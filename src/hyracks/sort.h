// External merge sort: the memory-bounded sort operator (paper Fig. 2's
// "working memory" consumer). Accumulates tuples up to its memory grant,
// sorts and spills sorted runs, then k-way merges runs with a bounded fan-in
// (multi-pass when there are more runs than the fan-in).
#pragma once

#include <memory>
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
  uint64_t tuples = 0;
  uint64_t bytes_spilled = 0;  // serialized run bytes (incl. merge rewrites)
};

class ExternalSortOp : public TupleStream {
 public:
  /// `grant` is the sort's whole memory budget, released at Close.
  ExternalSortOp(StreamPtr child, std::vector<SortKey> keys,
                 resource::MemoryGrant grant, TempFileManager* tmp,
                 size_t merge_fanin = 16)
      : child_(std::move(child)), keys_(std::move(keys)),
        grant_(std::move(grant)), spills_(tmp), fanin_(merge_fanin) {}

  Status Open() override;
  /// Emits sorted output batch-at-a-time straight from the in-memory array
  /// (or the merged run reader).
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

  const SortStats& stats() const { return stats_; }

 private:
  // Tuples are augmented with their evaluated keys (prefix fields) so runs
  // never re-evaluate expressions; output strips the prefix again. Takes
  // the tuple by value: keys evaluate against it, then its fields move in.
  Result<Tuple> Augment(Tuple t) const;
  // Strip the key prefix: move the payload fields of `aug` into `out`.
  void StripPrefix(Tuple* aug, Tuple* out) const;
  int CompareAugmented(const Tuple& a, const Tuple& b) const;
  Status SpillRun(std::vector<Tuple>* run);
  Result<std::string> MergeRuns(const std::vector<std::string>& paths);

  StreamPtr child_;
  std::vector<SortKey> keys_;
  resource::MemoryGrant grant_;
  SpillFiles spills_;  // runs and merge outputs
  size_t fanin_;
  SortStats stats_;

  // After Open(): either everything in memory, or one final merged reader.
  std::vector<Tuple> memory_;  // augmented, sorted
  size_t mem_pos_ = 0;
  std::unique_ptr<RunReader> merged_;
  std::vector<std::string> run_paths_back_;  // spilled run files
};

}  // namespace asterix::hyracks
