#include "hyracks/profile.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace asterix::hyracks {

uint32_t ThisThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

// ---- ProfiledStream ---------------------------------------------------------

Status ProfiledStream::Open() {
  const uint64_t t0 = metrics::NowNs();
  stats_->start_ns = t0;
  stats_->tid = ThisThreadOrdinal();
  Status st = child_->Open();
  stats_->open_ns = metrics::NowNs() - t0;
  return st;
}

Result<bool> ProfiledStream::NextBatch(Batch* out) {
  const bool first_call = stats_->batch_calls++ == 0;
  const uint64_t t0 = metrics::NowNs();
  Result<bool> r = child_->NextBatch(out);
  const uint64_t dt = metrics::NowNs() - t0;
  // Time-to-first-batch is kept apart: a blocking operator pays its whole
  // upstream in the first call.
  (first_call ? stats_->first_batch_ns : stats_->batch_ns) += dt;
  if (r.ok() && *r) stats_->tuples_out += out->size();
  return r;
}

Status ProfiledStream::Close() {
  const uint64_t t0 = metrics::NowNs();
  Status st = child_->Close();
  const uint64_t now = metrics::NowNs();
  stats_->close_ns = now - t0;
  stats_->end_ns = now;
  if (harvest_) harvest_(stats_);
  return st;
}

// ---- PlanProfile ------------------------------------------------------------

uint64_t PlanProfile::Node::TuplesOut() const {
  uint64_t n = 0;
  for (const auto& p : partitions) n += p.tuples_out;
  return n;
}

uint64_t PlanProfile::Node::TotalNs() const {
  uint64_t n = 0;
  for (const auto& p : partitions) n += p.TotalNs();
  return n;
}

int PlanProfile::AddNode(std::string label, std::vector<int> children,
                         size_t n_partitions) {
  Node node;
  node.id = static_cast<int>(nodes_.size());
  node.label = std::move(label);
  node.children = std::move(children);
  node.partitions.resize(n_partitions);
  nodes_.push_back(std::move(node));
  root_ = nodes_.back().id;  // last added is the plan root (bottom-up build)
  return nodes_.back().id;
}

void PlanProfile::AddFinalizer(std::function<void()> fn) {
  finalizers_.push_back(std::move(fn));
}

void PlanProfile::Finalize() {
  for (auto& fn : finalizers_) fn();
  finalizers_.clear();
}

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

/// Sum per-partition extras with the node-level extras (finalizer-written).
std::map<std::string, uint64_t> MergedExtras(const PlanProfile::Node& n) {
  std::map<std::string, uint64_t> out = n.extra;
  for (const auto& p : n.partitions) {
    for (const auto& [k, v] : p.extra) out[k] += v;
  }
  return out;
}

void JsonEscape(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

std::string PlanProfile::Render() const {
  std::string out;
  if (root_ < 0) return out;
  // Recursive pre-order walk with box-drawing connectors.
  std::function<void(int, const std::string&, bool, bool)> walk =
      [&](int id, const std::string& prefix, bool last, bool is_root) {
        const Node& n = node(id);
        if (is_root) {
          out += n.label;
        } else {
          out += prefix + (last ? "└─ " : "├─ ") + n.label;
        }
        char info[96];
        std::snprintf(info, sizeof(info), "  [%zux]  tuples=%llu  time≈%s",
                      n.partitions.size(),
                      static_cast<unsigned long long>(n.TuplesOut()),
                      FormatMs(n.TotalNs()).c_str());
        out += info;
        for (const auto& [k, v] : MergedExtras(n)) {
          out += "  " + k + "=" + std::to_string(v);
        }
        out += "\n";
        std::string child_prefix =
            is_root ? "" : prefix + (last ? "   " : "│  ");
        for (size_t i = 0; i < n.children.size(); i++) {
          walk(n.children[i], child_prefix, i + 1 == n.children.size(), false);
        }
      };
  walk(root_, "", true, true);
  return out;
}

std::string PlanProfile::ToChromeTrace() const {
  // Normalize timestamps so the trace starts at ts=0.
  uint64_t base = UINT64_MAX;
  for (const auto& n : nodes_) {
    for (const auto& p : n.partitions) {
      if (p.start_ns != 0) base = std::min(base, p.start_ns);
    }
  }
  if (base == UINT64_MAX) base = 0;

  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"asterix-lite query\"}}";
  for (const auto& n : nodes_) {
    std::string label;
    JsonEscape(n.label, &label);
    for (size_t p = 0; p < n.partitions.size(); p++) {
      const OpStats& s = n.partitions[p];
      if (s.start_ns == 0) continue;  // never opened (skipped partition)
      const uint64_t end = std::max(s.end_ns, s.start_ns);
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"partition\":%zu,"
                    "\"tuples_out\":%llu,\"batch_calls\":%llu,"
                    "\"open_us\":%.3f,\"cpu_est_us\":%.3f",
                    label.c_str(), s.tid,
                    static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(end - s.start_ns) / 1e3, p,
                    static_cast<unsigned long long>(s.tuples_out),
                    static_cast<unsigned long long>(s.batch_calls),
                    static_cast<double>(s.open_ns) / 1e3,
                    static_cast<double>(s.TotalNs()) / 1e3);
      out += buf;
      for (const auto& [k, v] : s.extra) {
        out += ",\"" + k + "\":" + std::to_string(v);
      }
      if (p == 0) {
        // Node-level extras (exchange traffic) ride on partition 0's event.
        for (const auto& [k, v] : n.extra) {
          out += ",\"" + k + "\":" + std::to_string(v);
        }
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace asterix::hyracks
