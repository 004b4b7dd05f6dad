// The three workloads: analytics (SQL++ over data at rest), lookup (short
// operational statements beside a few writes) and ingest (feed-style writes
// through the FeedSink surface). Each one generates its inputs from a seed,
// loads a fresh Instance, runs numbered ops in a closed loop, and checks
// every answer against a shadow it computed from the generated data.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asterix/instance.h"
#include "trace.h"

namespace perfbench {

/// Per-layer state of a traced phase beyond the spans: values the program
/// reports itself (QueryResult.elapsed_ms, the PlanProfile).
struct TraceContext {
  Tracer spans;
  uint64_t queries = 0;        // SELECT statements run
  double execute_ms = 0;       // sum of QueryResult.elapsed_ms
  double overhead_ms = 0;      // sum of Execute wall minus measured phases
  std::map<std::string, double> hyracks_self_ms;  // operator family -> ms
};

/// Accumulates the time spent inside the program's calls.
class CallClock {
 public:
  template <typename F>
  auto Time(F&& fn) {
    uint64_t start = NowNs();
    auto result = fn();
    ns_ += NowNs() - start;
    return result;
  }
  uint64_t ns() const { return ns_; }

 private:
  uint64_t ns_ = 0;
};

struct OpResult {
  size_t op_class = 0;
  double latency_ms = 0;  // time in the op's program call(s)
  bool ok = true;         // the call succeeded and its answer was right
};

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Op class names; OpResult::op_class indexes this.
  virtual const std::vector<std::string>& classes() const = 0;
  /// The fixed tail percentile of op_tail_ms (see ChooseTailPercentile).
  virtual double tail_percentile() const = 0;
  /// Ops run (and checked) as warm-up before each timed phase.
  virtual uint64_t warmup_ops() const = 0;

  /// Generate the op inputs from `seed`. Called once, before any setup.
  virtual void Generate(uint64_t seed) = 0;
  /// Create the schema and load the initial data into a fresh instance,
  /// timing only the program's calls on `clock`. Resets the shadow.
  virtual asterix::Status Load(asterix::Instance* db, CallClock* clock) = 0;
  /// Run op number `i` (ops are numbered from 0 across warm-up and the
  /// timed phase, so a run is deterministic given the seed).
  virtual OpResult RunOp(asterix::Instance* db, uint64_t i,
                         TraceContext* trace) = 0;
  /// Checkpoint after every this many ops (0 = never). The checkpoint
  /// counts in wall time but not in any op class.
  virtual uint64_t checkpoint_every() const { return 0; }
  /// The oracle run after the timed phase.
  virtual CheckResult Verify(asterix::Instance* db) { return {}; }

  /// ADM-text bytes of every live record (space_amp denominator).
  virtual uint64_t LiveTextBytes() const = 0;
  /// ADM-text bytes written since ResetWritten (write_amp denominator).
  virtual uint64_t WrittenTextBytes() const = 0;
  virtual void ResetWritten() = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
