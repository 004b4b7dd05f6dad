// Hash join with grace-style partitioning when the build side exceeds the
// memory grant (paper Fig. 2: joins are among the working-memory
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
  /// `grant` is the join's whole memory budget, released at Close.
  /// `residual` (optional) is evaluated over the concatenated tuple
  /// (left ++ right) and filters matches (non-equi conjuncts).
  HashJoinOp(StreamPtr left, StreamPtr right, std::vector<TupleEval> left_keys,
             std::vector<TupleEval> right_keys, JoinType type,
             resource::MemoryGrant grant, TempFileManager* tmp,
             TupleEval residual = nullptr, size_t right_arity_hint = 0);

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

  StreamPtr left_, right_;
  std::vector<TupleEval> left_keys_, right_keys_;
  JoinType type_;
  resource::MemoryGrant grant_;
  SpillFiles spills_;  // grace partitions and the output spill
  TupleEval residual_;
  size_t right_arity_;  // for padding left-outer non-matches
  JoinStats stats_;

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
