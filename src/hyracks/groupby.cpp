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

// Numeric addition preserving int64 when both sides are ints; durations
// sum to durations (temporal aggregation, the §V-D study's need).
adm::Value AddNumbers(const adm::Value& a, const adm::Value& b) {
  if (a.is_unknown()) return b;
  if (b.is_unknown()) return a;
  if (a.tag() == adm::TypeTag::kDuration && b.tag() == adm::TypeTag::kDuration) {
    return adm::Value::Duration(a.TemporalValue() + b.TemporalValue());
  }
  if (a.is_int() && b.is_int()) return adm::Value::Int(a.AsInt() + b.AsInt());
  return adm::Value::Double(a.AsNumber() + b.AsNumber());
}

bool Summable(const adm::Value& v) {
  return v.is_numeric() || v.tag() == adm::TypeTag::kDuration;
}

std::string GroupKeyId(const std::vector<adm::Value>& key) {
  std::string id;
  for (const auto& v : key) adm::SerializeValue(v, &id);
  return id;
}
}  // namespace

HashGroupByOp::HashGroupByOp(StreamPtr child, std::vector<TupleEval> keys,
                             std::vector<AggSpec> aggs, AggPhase phase,
                             resource::MemoryGrant grant, TempFileManager* tmp)
    : child_(std::move(child)), keys_(std::move(keys)), aggs_(std::move(aggs)),
      phase_(phase), grant_(std::move(grant)), spills_(tmp) {}

size_t HashGroupByOp::PartialArity(AggKind kind) {
  return kind == AggKind::kAvg ? 2 : 1;
}

std::vector<adm::Value> HashGroupByOp::InitPartial(const AggSpec& spec) const {
  switch (spec.kind) {
    case AggKind::kCount: return {adm::Value::Int(0)};
    case AggKind::kSum: return {adm::Value::Null()};
    case AggKind::kMin: return {adm::Value::Null()};
    case AggKind::kMax: return {adm::Value::Null()};
    case AggKind::kAvg: return {adm::Value::Null(), adm::Value::Int(0)};
    case AggKind::kCollect: return {adm::Value::Array({})};
  }
  return {adm::Value::Null()};
}

Status HashGroupByOp::AccumulateRaw(GroupState* g, const Tuple& t) {
  for (size_t i = 0; i < aggs_.size(); i++) {
    const AggSpec& spec = aggs_[i];
    auto& p = g->partials[i];
    adm::Value arg;
    if (spec.arg) {
      AX_ASSIGN_OR_RETURN(arg, spec.arg(t));
    }
    switch (spec.kind) {
      case AggKind::kCount:
        if (!spec.arg || !arg.is_unknown()) {
          p[0] = adm::Value::Int(p[0].AsInt() + 1);
        }
        break;
      case AggKind::kSum:
        if (!arg.is_unknown() && Summable(arg)) p[0] = AddNumbers(p[0], arg);
        break;
      case AggKind::kMin:
        if (!arg.is_unknown() &&
            (p[0].is_unknown() || arg.Compare(p[0]) < 0)) {
          p[0] = arg;
        }
        break;
      case AggKind::kMax:
        if (!arg.is_unknown() &&
            (p[0].is_unknown() || arg.Compare(p[0]) > 0)) {
          p[0] = arg;
        }
        break;
      case AggKind::kAvg:
        if (!arg.is_unknown() && Summable(arg)) {
          p[0] = AddNumbers(p[0], arg);
          p[1] = adm::Value::Int(p[1].AsInt() + 1);
        }
        break;
      case AggKind::kCollect:
        if (!arg.is_missing()) {
          // Collected arrays are the one aggregate whose state grows with
          // input; charge the growth so the spill trigger sees it.
          g->bytes += arg.ByteSize();
          std::vector<adm::Value> items = p[0].items();
          items.push_back(arg);
          p[0] = adm::Value::Array(std::move(items));
        }
        break;
    }
  }
  return Status::OK();
}

Status HashGroupByOp::MergePartial(GroupState* g, const Tuple& t,
                                   size_t key_arity) {
  size_t pos = key_arity;
  for (size_t i = 0; i < aggs_.size(); i++) {
    const AggSpec& spec = aggs_[i];
    auto& p = g->partials[i];
    switch (spec.kind) {
      case AggKind::kCount:
      case AggKind::kSum:
        p[0] = AddNumbers(p[0], t.at(pos));
        break;
      case AggKind::kMin:
        if (!t.at(pos).is_unknown() &&
            (p[0].is_unknown() || t.at(pos).Compare(p[0]) < 0)) {
          p[0] = t.at(pos);
        }
        break;
      case AggKind::kMax:
        if (!t.at(pos).is_unknown() &&
            (p[0].is_unknown() || t.at(pos).Compare(p[0]) > 0)) {
          p[0] = t.at(pos);
        }
        break;
      case AggKind::kAvg:
        p[0] = AddNumbers(p[0], t.at(pos));
        p[1] = AddNumbers(p[1], t.at(pos + 1));
        break;
      case AggKind::kCollect: {
        std::vector<adm::Value> items = p[0].items();
        const auto& incoming = t.at(pos);
        if (incoming.is_collection()) {
          // Merged-in partial arrays grow the state; charge them like
          // AccumulateRaw does.
          for (const auto& v : incoming.items()) g->bytes += v.ByteSize();
          items.insert(items.end(), incoming.items().begin(),
                       incoming.items().end());
        }
        p[0] = adm::Value::Array(std::move(items));
        break;
      }
    }
    pos += PartialArity(spec.kind);
  }
  return Status::OK();
}

Result<Tuple> HashGroupByOp::Emit(GroupState&& g) const {
  Tuple out;
  out.fields = std::move(g.key);
  for (size_t i = 0; i < aggs_.size(); i++) {
    auto& p = g.partials[i];
    if (phase_ == AggPhase::kPartial) {
      out.fields.insert(out.fields.end(), std::make_move_iterator(p.begin()),
                        std::make_move_iterator(p.end()));
      continue;
    }
    switch (aggs_[i].kind) {
      case AggKind::kCount:
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kCollect:
        out.fields.push_back(std::move(p[0]));
        break;
      case AggKind::kAvg: {
        if (p[0].is_unknown() || p[1].AsInt() == 0) {
          out.fields.push_back(adm::Value::Null());
        } else if (p[0].tag() == adm::TypeTag::kDuration) {
          out.fields.push_back(
              adm::Value::Duration(p[0].TemporalValue() / p[1].AsInt()));
        } else {
          out.fields.push_back(
              adm::Value::Double(p[0].AsNumber() / p[1].AsNumber()));
        }
        break;
      }
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
      GroupState tmp_state;
      tmp_state.key = std::move(key);
      for (const auto& spec : aggs_) {
        tmp_state.partials.push_back(InitPartial(spec));
      }
      if (input_is_partial) {
        AX_RETURN_NOT_OK(MergePartial(&tmp_state, t, key_arity));
      } else {
        AX_RETURN_NOT_OK(AccumulateRaw(&tmp_state, t));
      }
      Tuple row;
      row.fields = std::move(tmp_state.key);
      for (auto& p : tmp_state.partials) {
        row.fields.insert(row.fields.end(),
                          std::make_move_iterator(p.begin()),
                          std::make_move_iterator(p.end()));
      }
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
    GroupState g;
    g.key = std::move(key);
    for (const auto& spec : aggs_) g.partials.push_back(InitPartial(spec));
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
  if (input_is_partial) {
    AX_RETURN_NOT_OK(MergePartial(&g, t, key_arity));
  } else {
    AX_RETURN_NOT_OK(AccumulateRaw(&g, t));
  }
  table_bytes_ += g.bytes - before;
  return Status::OK();
}

Status HashGroupByOp::DrainTableToOutput() {
  for (auto& [id, g] : table_) {
    (void)id;
    AX_ASSIGN_OR_RETURN(Tuple out, Emit(std::move(g)));
    output_.push_back(std::move(out));
  }
  table_.clear();
  table_bytes_ = 0;
  return Status::OK();
}

Status HashGroupByOp::Open() {
  AX_RETURN_NOT_OK(child_->Open());
  std::vector<std::unique_ptr<RunWriter>> spills;
  AX_RETURN_NOT_OK(ProcessStream(child_.get(), phase_ == AggPhase::kFinal,
                                 /*level=*/0, &spills));
  AX_RETURN_NOT_OK(child_->Close());
  AX_RETURN_NOT_OK(DrainTableToOutput());
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
    AX_RETURN_NOT_OK(DrainTableToOutput());
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
    GroupState g;
    for (const auto& spec : aggs_) g.partials.push_back(InitPartial(spec));
    AX_ASSIGN_OR_RETURN(Tuple out, Emit(std::move(g)));
    output_.push_back(std::move(out));
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
