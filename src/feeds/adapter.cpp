#include "feeds/adapter.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "adm/delimited.h"
#include "adm/json.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix::feeds {

namespace {

constexpr size_t kReadChunk = 256 * 1024;

/// Registry of adapters contributed by higher layers. Guarded by its own
/// local mutex; registration happens at subsystem init, lookups at feed
/// connect — never on the data path.
struct AdapterRegistry {
  std::mutex mu;
  std::map<std::string, AdapterFactory> factories AX_GUARDED_BY(mu);
};

AdapterRegistry& Registry() {
  static AdapterRegistry* r = new AdapterRegistry();
  return *r;
}

}  // namespace

std::string GetAdapterProp(const std::map<std::string, std::string>& props,
                           const char* key, const std::string& fallback) {
  auto it = props.find(key);
  return it == props.end() ? fallback : it->second;
}

void RegisterAdapterFactory(const std::string& name, AdapterFactory factory) {
  AdapterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.factories[name] = std::move(factory);
}

bool HasAdapterFactory(const std::string& name) {
  if (name == "localfs" || name == "channel") return true;
  AdapterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.factories.count(name) > 0;
}

// ---- parse spec -------------------------------------------------------------

Result<ParseSpec> BuildParseSpec(
    const std::map<std::string, std::string>& props, adm::TypePtr type) {
  ParseSpec spec;
  std::string fmt = GetAdapterProp(props, "format", "adm");
  if (fmt == "delimited-text" || fmt == "csv") {
    spec.format = ParseSpec::Format::kDelimited;
    std::string d = GetAdapterProp(props, "delimiter", ",");
    if (d.size() != 1) {
      return Status::InvalidArgument("feed delimiter must be one character");
    }
    spec.delimiter = d[0];
    if (!type) {
      return Status::InvalidArgument(
          "delimited-text feed requires a dataset with a declared type");
    }
    spec.type = std::move(type);
  } else if (fmt == "adm" || fmt == "json") {
    spec.format = ParseSpec::Format::kAdm;
    spec.type = std::move(type);
  } else {
    return Status::InvalidArgument("unknown feed format '" + fmt + "'");
  }
  return spec;
}

Result<adm::Value> ParseRaw(const ParseSpec& spec, const std::string& raw) {
  if (spec.format == ParseSpec::Format::kDelimited) {
    return adm::ParseDelimitedLine(raw, spec.delimiter, spec.type);
  }
  return adm::ParseAdm(raw);
}

// ---- LocalFsAdapter ---------------------------------------------------------

Status LocalFsAdapter::Open(uint64_t resume_after) {
  offset_ = 0;
  pending_.clear();
  next_seqno_ = 1;
  skip_ = resume_after;
  if (!tail_ && !fs::Exists(path_)) {
    return Status::IOError("feed source not found: " + path_);
  }
  return Status::OK();
}

Result<bool> LocalFsAdapter::NextBatch(std::vector<FeedRecord>* out,
                                       size_t max, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t appended = 0;
  auto emit = [&](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) return;  // blank lines carry no seqno
    uint64_t seq = next_seqno_++;
    if (skip_ > 0) {
      skip_--;
      return;
    }
    FeedRecord r;
    r.seqno = seq;
    r.raw = std::move(line);
    out->push_back(std::move(r));
    appended++;
  };
  for (;;) {
    // A large on-disk backlog keeps read_any true for many iterations, so
    // the deadline branch below is never reached; poll the runtime's stop
    // probe here or Stop() blocks for the whole catch-up.
    if (ShouldStop()) return true;
    size_t nl;
    while (appended < max &&
           (nl = pending_.find('\n')) != std::string::npos) {
      emit(pending_.substr(0, nl));
      pending_.erase(0, nl + 1);
    }
    if (appended >= max) return true;

    bool read_any = false;
    if (fs::Exists(path_)) {
      AX_ASSIGN_OR_RETURN(std::unique_ptr<File> file, File::Open(path_));
      uint64_t size = file->size();
      if (offset_ < size) {
        size_t n = static_cast<size_t>(
            std::min<uint64_t>(kReadChunk, size - offset_));
        size_t old = pending_.size();
        pending_.resize(old + n);
        AX_RETURN_NOT_OK(file->ReadAt(offset_, n, pending_.data() + old));
        offset_ += n;
        read_any = true;
      }
    }
    if (read_any) {
      // Honor the timeout during backlog catch-up too: hand back whatever
      // is complete and let the runtime re-poll (and notice stop/kill).
      if (std::chrono::steady_clock::now() >= deadline) return true;
      continue;
    }

    if (!tail_) {
      // EOF: a trailing unterminated line is still one record.
      emit(std::move(pending_));
      pending_.clear();
      return false;
    }
    if (appended > 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---- ChannelAdapter ---------------------------------------------------------

uint64_t ChannelAdapter::PushRecord(FeedRecord r) {
  std::lock_guard<std::mutex> lock(mu_);
  r.seqno = log_.size() + 1;
  log_.push_back(std::move(r));
  cv_.notify_all();
  return log_.size();
}

uint64_t ChannelAdapter::Push(adm::Value record) {
  FeedRecord r;
  r.parsed = true;
  r.value = std::move(record);
  return PushRecord(std::move(r));
}

uint64_t ChannelAdapter::PushRaw(std::string raw) {
  FeedRecord r;
  r.raw = std::move(raw);
  return PushRecord(std::move(r));
}

uint64_t ChannelAdapter::PushDelete(adm::Value key) {
  FeedRecord r;
  r.deletion = true;
  r.key = std::move(key);
  return PushRecord(std::move(r));
}

void ChannelAdapter::CloseChannel() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

uint64_t ChannelAdapter::pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
}

Status ChannelAdapter::Open(uint64_t resume_after) {
  std::lock_guard<std::mutex> lock(mu_);
  cursor_ = std::min<size_t>(resume_after, log_.size());
  return Status::OK();
}

Result<bool> ChannelAdapter::NextBatch(std::vector<FeedRecord>* out,
                                       size_t max, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Explicit wait loop (not a predicate lambda) so thread-safety analysis
  // sees the guarded accesses under the lock.
  while (cursor_ >= log_.size() && !closed_) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  size_t appended = 0;
  while (cursor_ < log_.size() && appended < max) {
    out->push_back(log_[cursor_++]);
    appended++;
  }
  return !(closed_ && cursor_ >= log_.size());
}

// ---- factory ----------------------------------------------------------------

Result<std::unique_ptr<FeedAdapter>> MakeAdapter(
    const std::string& adapter,
    const std::map<std::string, std::string>& props) {
  if (adapter == "localfs") {
    std::string path = GetAdapterProp(props, "path", "");
    if (path.empty()) {
      return Status::InvalidArgument(
          "localfs feed requires a \"path\" property");
    }
    const std::string prefix = "localhost://";
    if (path.rfind(prefix, 0) == 0) path = path.substr(prefix.size());
    bool tail = GetAdapterProp(props, "tail", "false") == "true";
    return {std::make_unique<LocalFsAdapter>(std::move(path), tail)};
  }
  if (adapter == "channel") {
    return {std::make_unique<ChannelAdapter>()};
  }
  {
    AdapterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.factories.find(adapter);
    if (it != r.factories.end()) return it->second(props);
  }
  return Status::InvalidArgument("unknown feed adapter '" + adapter + "'");
}

}  // namespace asterix::feeds
