// External merge sort: the memory-bounded sort operator (paper Fig. 2's
// "working memory" consumer). Accumulates tuples up to its budget, sorts
// and spills sorted runs, then k-way merges runs with a bounded fan-in
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
  ExternalSortOp(StreamPtr child, std::vector<SortKey> keys,
                 size_t memory_budget_bytes, TempFileManager* tmp,
                 size_t merge_fanin = 16)
      : child_(std::move(child)), keys_(std::move(keys)),
        budget_(memory_budget_bytes), tmp_(tmp), fanin_(merge_fanin) {}
  ~ExternalSortOp() override;

  /// Adopt a governor grant (overriding the constructor budget when the
  /// grant carries bytes) and a cancellation context checked at batch
  /// granularity. The grant is RAII-released at Close/destruction.
  void AttachResources(const resource::QueryContext* ctx,
                       resource::MemoryGrant grant) {
    ctx_ = ctx;
    SetQueryContext(ctx);  // keep the base probe (PollAlive) in step
    grant_ = std::move(grant);
    if (grant_.bytes() > 0) budget_ = grant_.bytes();
  }

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

  /// Remove every spill file this operator created and nobody consumed
  /// (abort/cancel paths; consumed files self-delete via RunReader).
  void CleanupSpillFiles();

  StreamPtr child_;
  std::vector<SortKey> keys_;
  size_t budget_;
  TempFileManager* tmp_;
  size_t fanin_;
  SortStats stats_;
  const resource::QueryContext* ctx_ = nullptr;
  resource::MemoryGrant grant_;

  // After Open(): either everything in memory, or one final merged reader.
  std::vector<Tuple> memory_;  // augmented, sorted
  size_t mem_pos_ = 0;
  std::unique_ptr<RunReader> merged_;
  std::vector<std::string> run_paths_back_;  // spilled run files
  /// Every temp path ever created (runs and merge outputs), kept for
  /// cleanup on abort. Removal of already-consumed (deleted) paths is a
  /// harmless no-op.
  std::vector<std::string> owned_spill_paths_;
};

}  // namespace asterix::hyracks
