// External merge sort: the memory-bounded sort operator (paper Fig. 2's
// "working memory" consumer). Accumulates tuples up to its memory grant,
// sorts and spills sorted runs, then k-way merges runs with a bounded fan-in
// (multi-pass when there are more runs than the fan-in).
//
// Bounded (top-k) mode: given a limit k — the executor passes limit+offset
// when a LIMIT sits directly on an ORDER BY — the sort emits only its first
// k tuples and never keeps more. The in-memory run is a max-heap of at most
// k tuples; a tuple whose keys do not beat the heap's worst (or, once a full
// run has spilled, that run's worst) is dropped before its payload moves.
// Every input tuple is still pulled and has its keys evaluated, so input
// and key errors surface as they do without a limit. Spilled runs hold at
// most k tuples and every merge stops after k.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/io.h"
#include "hyracks/spill.h"
#include "hyracks/stream.h"
#include "resource/governor.h"

namespace asterix::hyracks {

/// One sort key: an evaluator plus direction.
struct SortKey {
  TupleEval eval;
  bool ascending = true;
};

struct SortStats {
  size_t runs_spilled = 0;
  size_t merge_passes = 0;
  uint64_t tuples = 0;  // input tuples
  uint64_t kept = 0;    // input tuples that entered a run (= tuples unbounded)
  uint64_t bytes_spilled = 0;  // serialized run bytes (incl. merge rewrites)
};

class ExternalSortOp : public TupleStream {
 public:
  static constexpr size_t kDefaultMergeFanin = 16;

  /// `grant` is the sort's whole memory budget, released at Close. With a
  /// `limit`, only the first `limit` tuples of the sorted order are kept
  /// and emitted (ties at the cut are broken arbitrarily).
  ExternalSortOp(StreamPtr child, std::vector<SortKey> keys,
                 resource::MemoryGrant grant, TempFileManager* tmp,
                 size_t merge_fanin = kDefaultMergeFanin,
                 std::optional<uint64_t> limit = std::nullopt)
      : child_(std::move(child)), keys_(std::move(keys)),
        grant_(std::move(grant)), spills_(tmp), fanin_(merge_fanin),
        limit_(limit) {}

  Status Open() override;
  /// Emits sorted output batch-at-a-time straight from the in-memory array
  /// (or the merged run reader).
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

  const SortStats& stats() const { return stats_; }
  const std::optional<uint64_t>& limit() const { return limit_; }

 private:
  // Tuples are augmented with their evaluated keys (prefix fields) so runs
  // never re-evaluate expressions; output strips the prefix again.
  // EvalKeys replaces `out`'s fields with the keys of `t`; AppendFields
  // then moves `t`'s fields in behind them.
  Status EvalKeys(const Tuple& t, Tuple* out) const;
  static void AppendFields(Tuple* from, Tuple* to);
  // Bounded mode: add `t` to the heap `run` unless its keys cannot be among
  // the first limit_ tuples; evicts the heap's worst past limit_ tuples.
  Status OfferBounded(Tuple* t, std::vector<Tuple>* run, size_t* run_bytes);
  // Strip the key prefix: move the payload fields of `aug` into `out`.
  void StripPrefix(Tuple* aug, Tuple* out) const;
  int CompareAugmented(const Tuple& a, const Tuple& b) const;
  // "Sorts before" over augmented tuples, for std::sort and the heap.
  auto Before() const {
    return [this](const Tuple& a, const Tuple& b) {
      return CompareAugmented(a, b) < 0;
    };
  }
  Status SpillRun(std::vector<Tuple>* run);
  Result<std::string> MergeRuns(const std::vector<std::string>& paths);

  StreamPtr child_;
  std::vector<SortKey> keys_;
  resource::MemoryGrant grant_;
  SpillFiles spills_;  // runs and merge outputs
  size_t fanin_;
  std::optional<uint64_t> limit_;
  SortStats stats_;
  // Bounded mode only: scratch for a tuple's keys before it is admitted,
  // and the key prefix of the worst tuple of the last full run spilled
  // (nothing that fails to beat it can be among the first limit_).
  Tuple probe_;
  std::optional<Tuple> cutoff_;

  // After Open(): either everything in memory, or one final merged reader.
  std::vector<Tuple> memory_;  // augmented, sorted
  size_t mem_pos_ = 0;
  std::unique_ptr<RunReader> merged_;
  std::vector<std::string> run_paths_back_;  // spilled run files
};

}  // namespace asterix::hyracks
