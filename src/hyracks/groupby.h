// Hash group-by with spilling, plus two-phase (partial/final) modes used
// by the parallel aggregation plans Algebricks produces: local group-by on
// each partition emits partial states, a hash exchange repartitions on the
// grouping key, and a final group-by merges partials (paper Fig. 2 lists
// grouped aggregation among the working-memory consumers).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "hyracks/spill.h"
#include "hyracks/stream.h"
#include "resource/governor.h"

namespace asterix::hyracks {

enum class AggKind { kCount, kSum, kMin, kMax, kAvg, kCollect };

/// One aggregate: a kind plus its argument expression. For kCount the
/// argument may be null (COUNT(*)); non-null COUNT(arg) skips unknowns.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  TupleEval arg;  // may be nullptr for COUNT(*)
};

/// Which phase of a (possibly two-phase) aggregation this operator runs.
enum class AggPhase {
  kComplete,  // raw input -> final values
  kPartial,   // raw input -> partial state fields
  kFinal,     // partial state fields -> final values
};

/// Hash group-by. Output tuple: group key fields ++ one field per aggregate
/// (kComplete/kFinal) or ++ partial-state fields (kPartial; kAvg emits two:
/// sum and count, kCollect emits an array).
class HashGroupByOp : public TupleStream {
 public:
  /// `grant` is the group-by's whole memory budget, released at Close.
  HashGroupByOp(StreamPtr child, std::vector<TupleEval> keys,
                std::vector<AggSpec> aggs, AggPhase phase,
                resource::MemoryGrant grant, TempFileManager* tmp);

  Status Open() override;
  /// Emits buffered group results batch-at-a-time.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

  size_t spill_partitions_used() const { return spills_used_; }
  uint64_t bytes_spilled() const { return bytes_spilled_; }

 private:
  struct GroupState {
    std::vector<adm::Value> key;
    // Per aggregate: running values. kAvg keeps {sum, count}; others one.
    std::vector<std::vector<adm::Value>> partials;
    size_t bytes = 0;
  };

  /// Raw-input accumulation (kComplete/kPartial).
  Status AccumulateRaw(GroupState* g, const Tuple& t);
  /// Partial-state merge (kFinal): `t` is key fields ++ partial fields.
  Status MergePartial(GroupState* g, const Tuple& t, size_t key_arity);
  /// Number of state fields each aggregate contributes in partial form.
  static size_t PartialArity(AggKind kind);
  /// Consumes the group state: key and aggregate values move into the
  /// output tuple (the table is cleared right after draining anyway).
  Result<Tuple> Emit(GroupState&& g) const;
  std::vector<adm::Value> InitPartial(const AggSpec& spec) const;

  Status ProcessStream(TupleStream* input, bool input_is_partial, int level,
                       std::vector<std::unique_ptr<RunWriter>>* spills);
  /// Fold one input tuple into the hash table (or spill it on overflow).
  Status ProcessTuple(const Tuple& t, bool input_is_partial, int level,
                      std::vector<std::unique_ptr<RunWriter>>* spills);
  Status DrainTableToOutput();

  StreamPtr child_;
  std::vector<TupleEval> keys_;
  std::vector<AggSpec> aggs_;
  AggPhase phase_;
  resource::MemoryGrant grant_;
  SpillFiles spills_;  // spill partitions at every level

  std::unordered_map<std::string, GroupState> table_;
  size_t table_bytes_ = 0;
  std::vector<Tuple> output_;
  size_t out_pos_ = 0;
  std::vector<std::pair<std::string, int>> pending_partitions_;  // (file, level)
  size_t spills_used_ = 0;
  uint64_t bytes_spilled_ = 0;
};

}  // namespace asterix::hyracks
