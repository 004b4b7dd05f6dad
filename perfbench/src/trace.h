// In-memory spans recorded by the benchmark around its calls into each
// layer. Every timed op gets a root span; the layer calls it makes are its
// children and share its op id. Nothing is written until the run ends,
// when the spans are aggregated per name (with self time) and exported as
// Chrome trace_event JSON, the format hyracks::PlanProfile::ToChromeTrace
// emits.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct SpanStats {
    uint64_t spans = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t items = 0;  // units of work the spans covered (records, ...)
  };

  /// Open the root span of op `name` (a string literal); returns its id.
  uint32_t BeginOp(const char* name);
  void EndOp();
  /// A child span of the open op, or a root span when no op is open.
  /// `name` is a string literal of the form "<layer>.<call>".
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              uint64_t items = 1);

  /// Per span name: count, total and self time, items.
  std::map<std::string, SpanStats> Aggregate() const;
  /// {"traceEvents":[...]} with one complete event per span of the first
  /// `max_ops` ops (roots without an op count as ops too).
  std::string ToChromeTrace(size_t max_ops) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t items;
    uint32_t op;
    int32_t parent;  // index into spans_, -1 for a root
  };
  std::vector<Span> spans_;
  int32_t open_op_ = -1;  // index of the open root span
  uint32_t next_op_ = 0;
};

/// Times `fn()` into `tracer` (when non-null) under `name`.
template <typename F>
auto Traced(Tracer* tracer, const char* name, F&& fn, uint64_t items = 1) {
  if (tracer == nullptr) return fn();
  uint64_t start = NowNs();
  auto result = fn();
  tracer->Record(name, start, NowNs(), items);
  return result;
}

}  // namespace perfbench
