// Hash join with grace-style partitioning when the build side exceeds the
// memory budget (paper Fig. 2: joins are among the working-memory
// consumers; the founding assumption is that inputs can exceed memory).
// Supports inner, left-outer and left-semi joins; the left input is the
// probe side, the right input is the build side.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "hyracks/spill.h"
#include "hyracks/stream.h"
#include "resource/governor.h"

namespace asterix::hyracks {

enum class JoinType { kInner, kLeftOuter, kLeftSemi };

struct JoinStats {
  size_t partitions_spilled = 0;
  size_t recursion_depth = 0;
  uint64_t bytes_spilled = 0;  // grace partitions + spilled join output
};

class HashJoinOp : public TupleStream {
 public:
  /// `left_keys`/`right_keys` are positionally paired equi-join keys.
  /// `residual` (optional) is evaluated over the concatenated tuple
  /// (left ++ right) and filters matches (non-equi conjuncts).
  HashJoinOp(StreamPtr left, StreamPtr right, std::vector<TupleEval> left_keys,
             std::vector<TupleEval> right_keys, JoinType type,
             size_t memory_budget_bytes, TempFileManager* tmp,
             TupleEval residual = nullptr, size_t right_arity_hint = 0);
  ~HashJoinOp() override;

  /// Adopt a governor grant (overriding the constructor budget when the
  /// grant carries bytes) and a cancellation context checked at batch
  /// granularity. The grant is RAII-released at Close/destruction.
  void AttachResources(const resource::QueryContext* ctx,
                       resource::MemoryGrant grant) {
    ctx_ = ctx;
    SetQueryContext(ctx);  // internal run readers inherit it via the base
    grant_ = std::move(grant);
    if (grant_.bytes() > 0) budget_ = grant_.bytes();
  }

  Status Open() override;
  /// Emits buffered (or spilled) join results batch-at-a-time.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

  const JoinStats& stats() const { return stats_; }

 private:
  struct Partition {
    std::string left_path, right_path;
    int level;
  };

  /// Join a (probe stream, build stream) pair; appends results to output_
  /// and may push sub-partitions when the build side overflows.
  Status JoinPair(TupleStream* probe, TupleStream* build, int level);
  Result<std::string> KeyOf(const Tuple& t, const std::vector<TupleEval>& keys,
                            bool* has_unknown) const;

  /// Remove every spill file this operator created and nobody consumed
  /// (abort/cancel paths; consumed files self-delete via RunReader).
  void CleanupSpillFiles();

  StreamPtr left_, right_;
  std::vector<TupleEval> left_keys_, right_keys_;
  JoinType type_;
  size_t budget_;
  TempFileManager* tmp_;
  TupleEval residual_;
  size_t right_arity_;  // for padding left-outer non-matches
  JoinStats stats_;
  const resource::QueryContext* ctx_ = nullptr;
  resource::MemoryGrant grant_;
  /// Every temp path ever created (grace partitions, output spill), kept
  /// for cleanup on abort. Removing already-deleted paths is a no-op.
  std::vector<std::string> owned_spill_paths_;

  /// Join results stream to a spill file once they outgrow the budget —
  /// intermediate results can exceed memory too (paper §III).
  Status EmitOutput(Tuple t);

  std::vector<Tuple> output_;
  size_t output_bytes_ = 0;
  size_t out_pos_ = 0;
  std::unique_ptr<RunWriter> output_writer_;
  std::unique_ptr<RunReader> output_reader_;
  std::vector<Partition> pending_;
};

}  // namespace asterix::hyracks
