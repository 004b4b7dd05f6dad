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

/// One aggregate's running state: the one definition of COUNT, SUM, MIN,
/// MAX, AVG and COLLECT. Every phase of HashGroupByOp folds with it, and the
/// coll-* scalar functions fold a collection's items with it, so a grouped
/// aggregate, a keyless one and a collection aggregate agree:
///  * COUNT counts values that are not unknown (COUNT(*) counts rows, see
///    StepRow); coll-count, a plain item count, does not come here.
///  * SUM and AVG skip unknown values and any that are neither numbers nor
///    durations. Ints sum to an int until a double arrives; durations sum
///    to a duration and average to one (the §V-D temporal study's need). A
///    sum that meets both a number and a duration is an error.
///  * MIN and MAX skip unknowns and order by adm::Value::Compare.
///  * COLLECT keeps every value but MISSING, in arrival order, and builds
///    its array once, when the state is written.
/// Over no values SUM, AVG, MIN and MAX are NULL, COUNT is 0, COLLECT [].
/// The dispatch is a switch on the kind: no indirect call per value.
class AggState {
 public:
  explicit AggState(AggKind kind) : kind_(kind) {}

  /// Number of partial fields a state of `kind` writes: AVG's {sum, count},
  /// one value for the others.
  static size_t PartialArity(AggKind kind) {
    return kind == AggKind::kAvg ? 2 : 1;
  }

  /// Folds in one input value; adds what the state retains to *bytes.
  Status Step(const adm::Value& v, size_t* bytes);
  /// COUNT(*): counts a row whatever it holds.
  void StepRow() { count_++; }
  /// Folds in the PartialArity fields at `partial` that WritePartial wrote.
  Status Merge(const adm::Value* partial, size_t* bytes);
  /// Appends the partial fields. Consumes the state.
  void WritePartial(std::vector<adm::Value>* out);
  /// The aggregate's value. Consumes the state.
  adm::Value Finish();

 private:
  enum class SumType : uint8_t { kNone, kInt, kDouble, kDuration };

  /// SUM/AVG: adds a number or a duration.
  Status Add(const adm::Value& v);
  adm::Value SumValue() const;

  AggKind kind_;
  SumType sum_type_ = SumType::kNone;
  int64_t count_ = 0;  // COUNT; the values an AVG summed
  int64_t isum_ = 0;   // an int or duration sum (milliseconds)
  double dsum_ = 0;
  adm::Value best_;  // MIN/MAX so far; MISSING before the first
  std::vector<adm::Value> items_;  // COLLECT
};

/// Which phase of a (possibly two-phase) aggregation this operator runs.
enum class AggPhase {
  kComplete,  // raw input -> final values
  kPartial,   // raw input -> partial state fields
  kFinal,     // partial state fields -> final values
};

/// Hash group-by. Output tuple: group key fields ++ one field per aggregate
/// (kComplete/kFinal) or ++ partial-state fields (kPartial; kAvg emits two:
/// sum and count, kCollect emits an array). Spilled rows have the partial
/// layout.
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
    std::vector<AggState> aggs;  // one per aggs_ entry
    size_t bytes = 0;
  };

  GroupState NewGroup(std::vector<adm::Value> key) const;
  /// Folds one tuple into `g`: raw input, or (when `input_is_partial`) key
  /// fields ++ the partial fields of every aggregate.
  Status Fold(GroupState* g, const Tuple& t, bool input_is_partial);
  /// Consumes the group state: key ++ partial fields when `partial`, else
  /// key ++ final values.
  static Tuple Emit(GroupState&& g, bool partial);

  Status ProcessStream(TupleStream* input, bool input_is_partial, int level,
                       std::vector<std::unique_ptr<RunWriter>>* spills);
  /// Fold one input tuple into the hash table (or spill it on overflow).
  Status ProcessTuple(const Tuple& t, bool input_is_partial, int level,
                      std::vector<std::unique_ptr<RunWriter>>* spills);
  void DrainTableToOutput();

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
