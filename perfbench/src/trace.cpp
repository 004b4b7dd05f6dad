#include "trace.h"

#include <cstdio>

#include "bench_math.h"

namespace perfbench {

uint32_t Tracer::BeginOp(const char* name) {
  uint32_t op = next_op_++;
  open_op_ = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowNs(), 0, 1, op, -1});
  return op;
}

void Tracer::EndOp() {
  if (open_op_ < 0) return;
  spans_[static_cast<size_t>(open_op_)].end_ns = NowNs();
  open_op_ = -1;
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                    uint64_t items) {
  if (open_op_ >= 0) {
    uint32_t op = spans_[static_cast<size_t>(open_op_)].op;
    spans_.push_back(Span{name, start_ns, end_ns, items, op, open_op_});
  } else {
    spans_.push_back(Span{name, start_ns, end_ns, items, next_op_++, -1});
  }
}

std::map<std::string, Tracer::SpanStats> Tracer::Aggregate() const {
  // Children always follow their parent, so one backward pass collects
  // each span's child intervals before the span itself is visited.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  std::map<std::string, SpanStats> out;
  for (size_t i = spans_.size(); i-- > 0;) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
    SpanStats& agg = out[s.name];
    agg.spans++;
    agg.total_ns += s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    agg.self_ns += SelfTimeNs(s.start_ns, s.end_ns, std::move(children[i]));
    agg.items += s.items;
  }
  return out;
}

std::string Tracer::ToChromeTrace(size_t max_ops) const {
  std::string out = "{\"traceEvents\":[";
  uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  bool first = true;
  for (const Span& s : spans_) {
    if (s.op >= max_ops) break;
    const char* dot = s.name;
    while (*dot != '\0' && *dot != '.') dot++;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"op\":%u,\"items\":%llu}}",
                  first ? "" : ",", s.name, static_cast<int>(dot - s.name),
                  s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  s.parent < 0 ? 1 : 2, s.op,
                  static_cast<unsigned long long>(s.items));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
