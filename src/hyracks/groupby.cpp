#include "hyracks/groupby.h"

#include "adm/key_encoder.h"
#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
constexpr size_t kSpillPartitions = 16;

metrics::Counter* GroupBySpillPartitionsCounter() {
  static metrics::Counter* c = metrics::Registry::Global().GetCounter(
      "hyracks.groupby.spill_partitions");
  return c;
}
metrics::Counter* GroupBySpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.groupby.spill_bytes");
  return c;
}

// What SUM and AVG add: numbers and durations.
bool Summable(const adm::Value& v) {
  return v.is_numeric() || v.tag() == adm::TypeTag::kDuration;
}

std::string GroupKeyId(const std::vector<adm::Value>& key) {
  std::string id;
  for (const auto& v : key) adm::SerializeValue(v, &id);
  return id;
}
}  // namespace

Status AggState::Add(const adm::Value& v) {
  const bool duration = v.tag() == adm::TypeTag::kDuration;
  if (sum_type_ != SumType::kNone &&
      (sum_type_ == SumType::kDuration) != duration) {
    return Status::InvalidArgument("sum/avg cannot add a duration and a number");
  }
  if (duration || (v.is_int() && sum_type_ != SumType::kDouble)) {
    sum_type_ = duration ? SumType::kDuration : SumType::kInt;
    isum_ += v.AsInt();
    return Status::OK();
  }
  if (sum_type_ == SumType::kInt) dsum_ = static_cast<double>(isum_);
  sum_type_ = SumType::kDouble;
  dsum_ += v.AsNumber();
  return Status::OK();
}

adm::Value AggState::SumValue() const {
  switch (sum_type_) {
    case SumType::kNone: return adm::Value::Null();
    case SumType::kInt: return adm::Value::Int(isum_);
    case SumType::kDouble: return adm::Value::Double(dsum_);
    case SumType::kDuration: return adm::Value::Duration(isum_);
  }
  return adm::Value::Null();
}

Status AggState::Step(const adm::Value& v, size_t* bytes) {
  switch (kind_) {
    case AggKind::kCount:
      if (!v.is_unknown()) count_++;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (!Summable(v)) break;
      if (kind_ == AggKind::kAvg) count_++;
      return Add(v);
    case AggKind::kMin:
    case AggKind::kMax:
      if (!v.is_unknown() &&
          (best_.is_missing() ||
           adm::Holds(kind_ == AggKind::kMin ? adm::CmpOp::kLt
                                             : adm::CmpOp::kGt,
                      v.Compare(best_)))) {
        best_ = v;
      }
      break;
    case AggKind::kCollect:
      // The one aggregate whose state grows with its input: charge it so
      // the group-by's spill trigger sees it.
      if (!v.is_missing()) {
        *bytes += v.ByteSize();
        items_.push_back(v);
      }
      break;
  }
  return Status::OK();
}

Status AggState::Merge(const adm::Value* partial, size_t* bytes) {
  switch (kind_) {
    case AggKind::kCount:
      count_ += partial[0].AsInt();
      return Status::OK();
    case AggKind::kAvg:
      count_ += partial[1].AsInt();
      return Summable(partial[0]) ? Add(partial[0]) : Status::OK();
    case AggKind::kCollect:
      if (!partial[0].is_collection()) return Status::OK();
      for (const auto& v : partial[0].items()) {
        *bytes += v.ByteSize();
        items_.push_back(v);
      }
      return Status::OK();
    default:  // SUM, MIN, MAX: a partial is a value of the same kind
      return Step(partial[0], bytes);
  }
}

void AggState::WritePartial(std::vector<adm::Value>* out) {
  if (kind_ != AggKind::kAvg) {
    out->push_back(Finish());
    return;
  }
  out->push_back(SumValue());
  out->push_back(adm::Value::Int(count_));
}

adm::Value AggState::Finish() {
  switch (kind_) {
    case AggKind::kCount: return adm::Value::Int(count_);
    case AggKind::kSum: return SumValue();
    case AggKind::kAvg:
      if (count_ == 0) return adm::Value::Null();
      if (sum_type_ == SumType::kDuration) {
        return adm::Value::Duration(isum_ / count_);
      }
      return adm::Value::Double(
          (sum_type_ == SumType::kInt ? static_cast<double>(isum_) : dsum_) /
          static_cast<double>(count_));
    case AggKind::kMin:
    case AggKind::kMax:
      return best_.is_missing() ? adm::Value::Null() : std::move(best_);
    case AggKind::kCollect: return adm::Value::Array(std::move(items_));
  }
  return adm::Value::Null();
}

HashGroupByOp::HashGroupByOp(StreamPtr child, std::vector<TupleEval> keys,
                             std::vector<AggSpec> aggs, AggPhase phase,
                             resource::MemoryGrant grant, TempFileManager* tmp)
    : child_(std::move(child)), keys_(std::move(keys)), aggs_(std::move(aggs)),
      phase_(phase), grant_(std::move(grant)), spills_(tmp) {}

HashGroupByOp::GroupState HashGroupByOp::NewGroup(
    std::vector<adm::Value> key) const {
  GroupState g;
  g.key = std::move(key);
  g.aggs.reserve(aggs_.size());
  for (const auto& spec : aggs_) g.aggs.emplace_back(spec.kind);
  return g;
}

Status HashGroupByOp::Fold(GroupState* g, const Tuple& t,
                           bool input_is_partial) {
  size_t pos = keys_.size();
  for (size_t i = 0; i < aggs_.size(); i++) {
    const AggSpec& spec = aggs_[i];
    AggState& state = g->aggs[i];
    if (input_is_partial) {
      AX_RETURN_NOT_OK(state.Merge(&t.fields[pos], &g->bytes));
      pos += AggState::PartialArity(spec.kind);
    } else if (!spec.arg) {
      state.StepRow();
    } else {
      AX_ASSIGN_OR_RETURN(adm::Value arg, spec.arg(t));
      AX_RETURN_NOT_OK(state.Step(arg, &g->bytes));
    }
  }
  return Status::OK();
}

Tuple HashGroupByOp::Emit(GroupState&& g, bool partial) {
  Tuple out;
  out.fields = std::move(g.key);
  for (auto& state : g.aggs) {
    if (partial) {
      state.WritePartial(&out.fields);
    } else {
      out.fields.push_back(state.Finish());
    }
  }
  return out;
}

Status HashGroupByOp::ProcessStream(
    TupleStream* input, bool input_is_partial, int level,
    std::vector<std::unique_ptr<RunWriter>>* spills) {
  // Batched input drain: one virtual call per frame of input, both for the
  // live child stream and for spill-partition re-reads.
  Batch batch;
  while (true) {
    AX_RETURN_NOT_OK(CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, input->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      AX_RETURN_NOT_OK(ProcessTuple(batch[bi], input_is_partial, level,
                                    spills));
    }
  }
  return Status::OK();
}

Status HashGroupByOp::ProcessTuple(
    const Tuple& t, bool input_is_partial, int level,
    std::vector<std::unique_ptr<RunWriter>>* spills) {
  size_t key_arity = keys_.size();
  std::vector<adm::Value> key;
  key.reserve(key_arity);
  if (input_is_partial) {
    for (size_t i = 0; i < key_arity; i++) key.push_back(t.at(i));
  } else {
    for (const auto& kv : keys_) {
      AX_ASSIGN_OR_RETURN(adm::Value v, kv(t));
      key.push_back(std::move(v));
    }
  }
  std::string id = GroupKeyId(key);
  auto it = table_.find(id);
  if (it == table_.end()) {
    if (table_bytes_ > grant_.bytes()) {
      // Overflow: spill this tuple as a partial row to its partition.
      GroupState tmp_state = NewGroup(std::move(key));
      AX_RETURN_NOT_OK(Fold(&tmp_state, t, input_is_partial));
      Tuple row = Emit(std::move(tmp_state), /*partial=*/true);
      // Salt + fully remix (splitmix64) the partition hash with the
      // recursion level so an oversized partition splits differently at
      // the next level. XOR-only salting would preserve equivalence
      // classes mod kSpillPartitions and never make progress.
      uint64_t x = std::hash<std::string>{}(id) +
                   0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(level + 1);
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBULL;
      x ^= x >> 31;
      size_t part = static_cast<size_t>(x % kSpillPartitions);
      if (spills->empty()) spills->resize(kSpillPartitions);
      if (!(*spills)[part]) {
        AX_ASSIGN_OR_RETURN((*spills)[part], spills_.Create("gbyspill"));
        spills_used_++;
        GroupBySpillPartitionsCounter()->Add(1);
      }
      return (*spills)[part]->Write(row);
    }
    GroupState g = NewGroup(std::move(key));
    // Uniform grant accounting: hash-entry bookkeeping + the encoded key
    // the table stores + the key values held in the state.
    g.bytes = kHashEntryOverheadBytes + id.size();
    for (const auto& v : g.key) g.bytes += v.ByteSize();
    table_bytes_ += g.bytes;
    it = table_.emplace(std::move(id), std::move(g)).first;
  }
  // Aggregation may grow the state (kCollect); mirror that growth into the
  // table-wide total the spill trigger tests.
  GroupState& g = it->second;
  size_t before = g.bytes;
  AX_RETURN_NOT_OK(Fold(&g, t, input_is_partial));
  table_bytes_ += g.bytes - before;
  return Status::OK();
}

void HashGroupByOp::DrainTableToOutput() {
  for (auto& [id, g] : table_) {
    (void)id;
    output_.push_back(Emit(std::move(g), phase_ == AggPhase::kPartial));
  }
  table_.clear();
  table_bytes_ = 0;
}

Status HashGroupByOp::Open() {
  AX_RETURN_NOT_OK(child_->Open());
  std::vector<std::unique_ptr<RunWriter>> spills;
  AX_RETURN_NOT_OK(ProcessStream(child_.get(), phase_ == AggPhase::kFinal,
                                 /*level=*/0, &spills));
  AX_RETURN_NOT_OK(child_->Close());
  DrainTableToOutput();
  for (auto& w : spills) {
    if (w) {
      AX_RETURN_NOT_OK(w->Finish());
      bytes_spilled_ += w->bytes_written();
      GroupBySpillBytesCounter()->Add(w->bytes_written());
      pending_partitions_.emplace_back(w->path(), 1);
    }
  }
  // Process spill partitions (they may recursively re-spill).
  while (!pending_partitions_.empty()) {
    AX_RETURN_NOT_OK(CheckAlive());
    auto [path, level] = pending_partitions_.back();
    pending_partitions_.pop_back();
    AX_ASSIGN_OR_RETURN(auto reader, RunReader::Open(path));
    std::vector<std::unique_ptr<RunWriter>> more_spills;
    AX_RETURN_NOT_OK(ProcessStream(reader.get(), /*input_is_partial=*/true,
                                   level, &more_spills));
    DrainTableToOutput();
    for (auto& w : more_spills) {
      if (w) {
        AX_RETURN_NOT_OK(w->Finish());
        bytes_spilled_ += w->bytes_written();
        GroupBySpillBytesCounter()->Add(w->bytes_written());
        pending_partitions_.emplace_back(w->path(), level + 1);
      }
    }
  }
  // A keyless (global) aggregate must produce exactly one row even over
  // empty input: SELECT COUNT(*) on an empty dataset is 0, not zero rows.
  // Only the single complete/final instance seeds it — partial instances
  // stay silent so the final phase does not double-count empty partitions.
  if (keys_.empty() && output_.empty() && phase_ != AggPhase::kPartial) {
    output_.push_back(Emit(NewGroup({}), /*partial=*/false));
  }
  out_pos_ = 0;
  return Status::OK();
}

Result<bool> HashGroupByOp::NextBatch(Batch* out) {
  AX_RETURN_NOT_OK(CheckAlive());
  out->Clear();
  while (out_pos_ < output_.size() && !out->full()) {
    *out->Add() = std::move(output_[out_pos_++]);
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status HashGroupByOp::Close() {
  output_.clear();
  spills_.Remove();
  grant_.Release();
  return Status::OK();
}

}  // namespace asterix::hyracks
