// Query profiling: a per-query tree of operator statistics mirroring the
// lowered plan (one node per logical operator / exchange, one OpStats per
// partition instance). The Executor builds the tree while lowering,
// ProfiledStream wrappers fill it while the job runs, and the result is
// surfaced through ExecStats/QueryResult as an ASCII plan tree plus a
// Chrome trace_event JSON export (chrome://tracing, Perfetto).
//
// Overhead contract (<5% on the Fig. 1 benches): tuple/call counts are
// plain increments (each stream instance runs on exactly one partition
// thread), and Open, every NextBatch and Close are timed exactly — two
// clock reads per call, which a batch call amortizes over up to
// kFrameTuples tuples. When profiling is off the Executor never wraps
// streams, so the cost is exactly zero.
//
// Concurrency: each OpStats is written by the single thread driving its
// partition's pipeline; Node-level `extra` (exchange traffic) is written
// only by finalizers after the job has joined all threads. No locks (fits
// the PR-1 lock hierarchy: the profiler takes none).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "hyracks/stream.h"

namespace asterix::hyracks {

/// Statistics for one operator instance (one partition of one plan node).
struct OpStats {
  uint64_t tuples_out = 0;      // tuples carried by the emitted batches
  uint64_t batch_calls = 0;     // total NextBatch() calls
  uint64_t open_ns = 0;         // exact Open() latency
  uint64_t close_ns = 0;        // exact Close() latency
  uint64_t first_batch_ns = 0;  // exact first NextBatch() (time to first
                                // batch: blocking ops pay their whole
                                // upstream here)
  uint64_t batch_ns = 0;        // exact time in the later NextBatch() calls
  uint64_t start_ns = 0;        // wall clock at Open() entry
  uint64_t end_ns = 0;          // wall clock at Close() exit
  uint32_t tid = 0;             // small thread ordinal (trace lanes)
  // Operator-specific stats harvested at Close (spill bytes, runs, ...).
  std::map<std::string, uint64_t> extra;

  /// Time this instance spent inside the operator chain below it
  /// (inclusive — children are nested within its calls).
  uint64_t TotalNs() const {
    return open_ns + first_batch_ns + batch_ns + close_ns;
  }
};

/// The profiled-plan tree for one query execution.
class PlanProfile {
 public:
  struct Node {
    int id = -1;
    std::string label;           // e.g. "JOIN(hash)", "SCAN Gleambook"
    std::vector<int> children;   // node ids (plan order: first = left)
    std::vector<OpStats> partitions;  // one per partition instance
    // Node-level stats written by finalizers only (exchange traffic).
    std::map<std::string, uint64_t> extra;

    uint64_t TuplesOut() const;
    uint64_t TotalNs() const;  // summed over partitions (inclusive)
  };

  /// Append a node; `n_partitions` OpStats slots are allocated up front and
  /// never reallocated, so StatsFor pointers stay valid while the job runs.
  int AddNode(std::string label, std::vector<int> children,
              size_t n_partitions);
  OpStats* StatsFor(int node, size_t partition) {
    return &nodes_[static_cast<size_t>(node)].partitions[partition];
  }
  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  Node* mutable_node(int id) { return &nodes_[static_cast<size_t>(id)]; }
  size_t size() const { return nodes_.size(); }

  void set_root(int id) { root_ = id; }
  int root() const { return root_; }
  void set_elapsed_ms(double ms) { elapsed_ms_ = ms; }
  double elapsed_ms() const { return elapsed_ms_; }

  /// Deferred harvesting (e.g. copying ExchangeStats into an EXCHANGE node
  /// after all producer/consumer threads joined). Run via Finalize().
  void AddFinalizer(std::function<void()> fn);
  void Finalize();

  /// ASCII plan tree with per-operator tuple counts, estimated time, and
  /// operator-specific extras. One line per node; partitions aggregated.
  std::string Render() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}): one complete ("X")
  /// event per (node, partition) spanning Open()..Close(), laid out on the
  /// executing thread's lane. Load in chrome://tracing or Perfetto.
  std::string ToChromeTrace() const;

 private:
  std::deque<Node> nodes_;  // deque: stable element addresses
  std::vector<std::function<void()>> finalizers_;
  int root_ = -1;
  double elapsed_ms_ = 0;
};

/// Transparent TupleStream wrapper filling one OpStats. The harvest hook
/// (optional) runs at Close on the partition's own thread — it pulls
/// operator-specific stats (SortStats, JoinStats, ...) into stats->extra.
class ProfiledStream : public TupleStream {
 public:
  using Harvest = std::function<void(OpStats*)>;

  ProfiledStream(StreamPtr child, OpStats* stats, Harvest harvest = nullptr)
      : child_(std::move(child)), stats_(stats),
        harvest_(std::move(harvest)) {}

  Status Open() override;
  /// Timed exactly on every call; counts every tuple the batch carries.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  StreamPtr child_;
  OpStats* stats_;
  Harvest harvest_;
};

/// Small dense ordinal for the calling thread (stable within a process;
/// used as the `tid` lane in trace exports).
uint32_t ThisThreadOrdinal();

}  // namespace asterix::hyracks
