#include "hyracks/join.h"

#include "adm/serde.h"
#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
constexpr size_t kJoinPartitions = 16;

metrics::Counter* JoinPartitionsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.join.partitions_spilled");
  return c;
}
metrics::Counter* JoinSpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.join.spill_bytes");
  return c;
}

size_t PartitionOf(const std::string& key, int level) {
  // Full splitmix64 remix: XOR-only salting preserves the equivalence
  // classes mod kJoinPartitions, so a recursion level would re-map an
  // entire oversized partition onto a single child partition forever.
  uint64_t x = std::hash<std::string>{}(key) +
               0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(level + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % kJoinPartitions);
}
}  // namespace

HashJoinOp::HashJoinOp(StreamPtr left, StreamPtr right,
                       std::vector<TupleEval> left_keys,
                       std::vector<TupleEval> right_keys, JoinType type,
                       resource::MemoryGrant grant, TempFileManager* tmp,
                       TupleEval residual, size_t right_arity_hint)
    : left_(std::move(left)), right_(std::move(right)),
      left_keys_(std::move(left_keys)), right_keys_(std::move(right_keys)),
      type_(type), grant_(std::move(grant)), spills_(tmp),
      residual_(std::move(residual)), right_arity_(right_arity_hint) {}

Result<std::string> HashJoinOp::KeyOf(const Tuple& t,
                                      const std::vector<TupleEval>& keys,
                                      bool* has_unknown) const {
  std::string id;
  *has_unknown = false;
  for (const auto& k : keys) {
    AX_ASSIGN_OR_RETURN(adm::Value v, k(t));
    if (v.is_unknown()) *has_unknown = true;
    adm::SerializeValue(v, &id);
  }
  return id;
}

Status HashJoinOp::JoinPair(TupleStream* probe, TupleStream* build,
                            int level) {
  if (level > static_cast<int>(stats_.recursion_depth)) {
    stats_.recursion_depth = static_cast<size_t>(level);
  }
  AX_RETURN_NOT_OK(build->Open());
  std::unordered_map<std::string, std::vector<Tuple>> table;
  size_t table_bytes = 0;
  bool grace = false;
  std::vector<std::unique_ptr<RunWriter>> build_parts(kJoinPartitions);
  std::vector<std::unique_ptr<RunWriter>> probe_parts(kJoinPartitions);

  // Batched build drain: one virtual NextBatch per frame of build input.
  Batch batch;
  while (true) {
    AX_RETURN_NOT_OK(CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, build->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      Tuple& t = batch[bi];
      bool unknown = false;
      AX_ASSIGN_OR_RETURN(std::string key, KeyOf(t, right_keys_, &unknown));
      if (unknown) continue;  // unknown keys never match
      if (right_arity_ == 0) right_arity_ = t.arity();
      // Grace partitioning only helps when keys spread rows across
      // partitions: with no equi keys (every row hashes identically) or
      // past the recursion cap (pathological skew), degrade to an
      // over-budget in-memory build instead of re-spilling the same rows
      // forever.
      // Uniform grant accounting: the tuple's in-memory footprint plus the
      // hash-entry bookkeeping it will cost if it stays in the table.
      size_t entry_bytes = t.ApproxBytes() + key.size() + kHashEntryOverheadBytes;
      bool can_partition = !right_keys_.empty() && level < 4;
      if (!grace && can_partition &&
          table_bytes + entry_bytes > grant_.bytes()) {
        // Switch to grace mode: open all partitions and dump the table.
        grace = true;
        stats_.partitions_spilled += kJoinPartitions;
        JoinPartitionsCounter()->Add(kJoinPartitions);
        for (size_t p = 0; p < kJoinPartitions; p++) {
          AX_ASSIGN_OR_RETURN(build_parts[p], spills_.Create("joinbuild"));
          AX_ASSIGN_OR_RETURN(probe_parts[p], spills_.Create("joinprobe"));
        }
        for (auto& [k, tuples] : table) {
          size_t p = PartitionOf(k, level);
          for (const auto& bt : tuples) {
            AX_RETURN_NOT_OK(build_parts[p]->Write(bt));
          }
        }
        table.clear();
        table_bytes = 0;
      }
      if (grace) {
        size_t p = PartitionOf(key, level);
        AX_RETURN_NOT_OK(build_parts[p]->Write(t));
      } else {
        // The batch slot is ours to cannibalize: move, don't copy.
        table_bytes += entry_bytes;
        table[std::move(key)].push_back(std::move(t));
      }
    }
  }
  AX_RETURN_NOT_OK(build->Close());

  AX_RETURN_NOT_OK(probe->Open());
  // Batched probe drain, mirroring the build side.
  while (true) {
    AX_RETURN_NOT_OK(CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, probe->NextBatch(&batch));
    if (!more) break;
    for (size_t bi = 0; bi < batch.size(); bi++) {
      Tuple& t = batch[bi];
      bool unknown = false;
      AX_ASSIGN_OR_RETURN(std::string key, KeyOf(t, left_keys_, &unknown));
      if (unknown) {
        if (type_ == JoinType::kLeftOuter) {
          // Last use of the slot: move the probe tuple into the padded row.
          Tuple padded = std::move(t);
          padded.fields.reserve(padded.arity() + right_arity_);
          for (size_t i = 0; i < right_arity_; i++) {
            padded.fields.push_back(adm::Value::Null());
          }
          AX_RETURN_NOT_OK(EmitOutput(std::move(padded)));
        }
        continue;
      }
      if (grace) {
        size_t p = PartitionOf(key, level);
        AX_RETURN_NOT_OK(probe_parts[p]->Write(t));
        continue;
      }
      auto it = table.find(key);
      bool any_match = false;
      if (it != table.end()) {
        // Concat must copy: `t` is reused for every build match and `bt`
        // stays in the table for later probes.
        for (const auto& bt : it->second) {
          Tuple joined = Tuple::Concat(t, bt);
          if (residual_) {
            AX_ASSIGN_OR_RETURN(adm::Value pass, residual_(joined));
            if (!IsTrue(pass)) continue;
          }
          any_match = true;
          if (type_ == JoinType::kLeftSemi) break;  // existence is enough
          AX_RETURN_NOT_OK(EmitOutput(std::move(joined)));
        }
      }
      if (type_ == JoinType::kLeftSemi && any_match) {
        AX_RETURN_NOT_OK(EmitOutput(std::move(t)));
      } else if (type_ == JoinType::kLeftOuter && !any_match) {
        Tuple padded = std::move(t);
        padded.fields.reserve(padded.arity() + right_arity_);
        for (size_t i = 0; i < right_arity_; i++) {
          padded.fields.push_back(adm::Value::Null());
        }
        AX_RETURN_NOT_OK(EmitOutput(std::move(padded)));
      }
    }
  }
  AX_RETURN_NOT_OK(probe->Close());

  if (grace) {
    for (size_t p = 0; p < kJoinPartitions; p++) {
      AX_RETURN_NOT_OK(build_parts[p]->Finish());
      AX_RETURN_NOT_OK(probe_parts[p]->Finish());
      uint64_t spilled =
          build_parts[p]->bytes_written() + probe_parts[p]->bytes_written();
      stats_.bytes_spilled += spilled;
      JoinSpillBytesCounter()->Add(spilled);
      pending_.push_back(Partition{probe_parts[p]->path(),
                                   build_parts[p]->path(), level + 1});
    }
  }
  return Status::OK();
}

Status HashJoinOp::EmitOutput(Tuple t) {
  if (output_writer_) {
    return output_writer_->Write(t);
  }
  output_bytes_ += t.ApproxBytes();
  output_.push_back(std::move(t));
  if (output_bytes_ > grant_.bytes()) {
    // Results outgrew the budget: move everything to a spill file and
    // stream from it (join output is unordered, so order is free).
    AX_ASSIGN_OR_RETURN(output_writer_, spills_.Create("joinout"));
    for (const auto& buffered : output_) {
      AX_RETURN_NOT_OK(output_writer_->Write(buffered));
    }
    output_.clear();
    output_bytes_ = 0;
  }
  return Status::OK();
}

Status HashJoinOp::Open() {
  // Grace-partitioned probe/build key evaluators: once tuples are spilled,
  // the original key evaluators still apply (tuples keep their layout).
  AX_RETURN_NOT_OK(JoinPair(left_.get(), right_.get(), 0));
  while (!pending_.empty()) {
    AX_RETURN_NOT_OK(CheckAlive());
    Partition part = pending_.back();
    pending_.pop_back();
    AX_ASSIGN_OR_RETURN(auto probe_reader, RunReader::Open(part.left_path));
    AX_ASSIGN_OR_RETURN(auto build_reader, RunReader::Open(part.right_path));
    AX_RETURN_NOT_OK(JoinPair(probe_reader.get(), build_reader.get(),
                              part.level));
  }
  if (output_writer_) {
    AX_RETURN_NOT_OK(output_writer_->Finish());
    stats_.bytes_spilled += output_writer_->bytes_written();
    JoinSpillBytesCounter()->Add(output_writer_->bytes_written());
    AX_ASSIGN_OR_RETURN(output_reader_, RunReader::Open(output_writer_->path()));
    output_reader_->SetQueryContext(query_context());
  }
  out_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOp::NextBatch(Batch* out) {
  AX_RETURN_NOT_OK(CheckAlive());
  if (output_reader_) return output_reader_->NextBatch(out);
  out->Clear();
  while (out_pos_ < output_.size() && !out->full()) {
    *out->Add() = std::move(output_[out_pos_++]);
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status HashJoinOp::Close() {
  output_.clear();
  output_reader_.reset();
  output_writer_.reset();
  spills_.Remove();
  grant_.Release();
  return Status::OK();
}

}  // namespace asterix::hyracks
