#include "asterix/dataset.h"

#include <algorithm>
#include <functional>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "common/io.h"

namespace asterix {

using adm::Value;

namespace {
std::vector<std::string> IndexedFields(const meta::DatasetDef& def) {
  std::vector<std::string> fields;
  for (const auto& ix : def.indexes) fields.push_back(ix.field);
  std::sort(fields.begin(), fields.end());
  fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
  return fields;
}
}  // namespace

DatasetPartition::DatasetPartition(meta::DatasetDef def,
                                   PartitionOptions options)
    : def_(std::move(def)), options_(std::move(options)),
      indexed_fields_(IndexedFields(def_)) {}

std::string DatasetPartition::TreeDir(uint64_t id, bool index) {
  return (index ? "ix" : "ds") + std::to_string(id);
}

Result<std::shared_ptr<DatasetPartition>> DatasetPartition::Open(
    const meta::DatasetDef& def, const PartitionOptions& options,
    bool create) {
  if (def.external) {
    return Status::InvalidArgument(
        "external datasets have no storage partitions");
  }
  auto part =
      std::shared_ptr<DatasetPartition>(new DatasetPartition(def, options));
  storage::LsmOptions lsm;
  lsm.dir = options.dir + "/" + TreeDir(def.id, /*index=*/false);
  lsm.name = "primary";
  lsm.cache = options.cache;
  lsm.mem_budget_bytes = options.mem_budget_bytes;
  lsm.merge_policy = options.merge_policy;
  lsm.storage_format = options.storage_format;
  lsm.scheduler = options.scheduler;
  lsm.max_pending_immutables = options.max_pending_immutables;
  if (create) AX_RETURN_NOT_OK(fs::RemoveAll(lsm.dir));
  AX_ASSIGN_OR_RETURN(part->primary_, storage::LsmBTree::Open(lsm));
  for (const auto& ix : def.indexes) {
    AX_ASSIGN_OR_RETURN(Secondary sec, part->OpenSecondary(ix, create));
    part->secondaries_.push_back(std::move(sec));
  }
  return part;
}

Result<DatasetPartition::Secondary> DatasetPartition::OpenSecondary(
    const meta::IndexDef& ix, bool create) const {
  Secondary sec;
  sec.def = ix;
  storage::LsmOptions o;
  o.dir = options_.dir + "/" + TreeDir(ix.id, /*index=*/true);
  o.name = "index";
  o.cache = options_.cache;
  o.mem_budget_bytes = options_.mem_budget_bytes;
  o.merge_policy = options_.merge_policy;
  o.scheduler = options_.scheduler;
  o.max_pending_immutables = options_.max_pending_immutables;
  if (create) AX_RETURN_NOT_OK(fs::RemoveAll(o.dir));
  switch (ix.kind) {
    case meta::IndexKind::kBTree: {
      // Secondary entries are key->PK pairs, not records: always row.
      AX_ASSIGN_OR_RETURN(sec.btree, storage::LsmBTree::Open(o));
      break;
    }
    case meta::IndexKind::kRTree: {
      AX_ASSIGN_OR_RETURN(sec.rtree, storage::LsmRTree::Open(o));
      break;
    }
    case meta::IndexKind::kKeyword: {
      AX_ASSIGN_OR_RETURN(sec.keyword, storage::LsmInvertedIndex::Open(o));
      break;
    }
  }
  return sec;
}

Result<std::shared_ptr<DatasetPartition>> DatasetPartition::Reshape(
    const meta::DatasetDef& def) const {
  auto part =
      std::shared_ptr<DatasetPartition>(new DatasetPartition(def, options_));
  part->primary_ = primary_;
  for (const auto& ix : def.indexes) {
    auto have = std::find_if(
        secondaries_.begin(), secondaries_.end(),
        [&](const Secondary& s) { return s.def.id == ix.id; });
    if (have != secondaries_.end()) {
      part->secondaries_.push_back(*have);
      continue;
    }
    AX_ASSIGN_OR_RETURN(Secondary sec, OpenSecondary(ix, /*create=*/true));
    part->secondaries_.push_back(std::move(sec));
  }
  return part;
}

Status DatasetPartition::Backfill(const meta::IndexDef& index) {
  AX_ASSIGN_OR_RETURN(const Secondary* ix,
                      FindSecondary(index.name, index.kind));
  AX_ASSIGN_OR_RETURN(auto scan, primary_->NewIterator());
  AX_RETURN_NOT_OK(scan.SeekToFirst());
  const std::vector<std::string> field = {ix->def.field};
  while (scan.Valid()) {
    AX_ASSIGN_OR_RETURN(Value record,
                        adm::DeserializeFields(scan.value(), field));
    AX_RETURN_NOT_OK(ApplyToIndex(*ix, record, scan.key(), /*remove=*/false));
    AX_RETURN_NOT_OK(scan.Next());
  }
  return ix->Flush();
}

void DatasetPartition::Secondary::MarkDropped() const {
  if (btree) btree->MarkDropped();
  if (rtree) rtree->MarkDropped();
  if (keyword) keyword->MarkDropped();
}

Status DatasetPartition::Secondary::Flush() const {
  if (btree) return btree->Flush();
  if (rtree) return rtree->Flush();
  return keyword->Flush();
}

void DatasetPartition::MarkDropped() {
  primary_->MarkDropped();
  for (const auto& sec : secondaries_) sec.MarkDropped();
}

void DatasetPartition::MarkIndexDropped(const std::string& index_name) {
  for (const auto& sec : secondaries_) {
    if (sec.def.name == index_name) sec.MarkDropped();
  }
}

Result<std::string> DatasetPartition::EncodePk(const adm::Value& pk) {
  return adm::EncodeKey(pk);
}

size_t DatasetPartition::PartitionOf(const std::string& encoded_pk,
                                     size_t num_partitions) {
  return std::hash<std::string>{}(encoded_pk) % num_partitions;
}

Result<adm::Value> DatasetPartition::ExtractPk(const Value& record) const {
  if (!record.is_object()) {
    return Status::TypeMismatch("dataset records must be objects, got " +
                                record.ToString());
  }
  const Value& pk = record.GetField(def_.primary_key);
  if (pk.is_unknown()) {
    return Status::InvalidArgument("record lacks primary key field '" +
                                   def_.primary_key + "'");
  }
  return pk;
}

Status DatasetPartition::LogMutation(txn::LogRecordType type,
                                     const std::string& pk_key,
                                     const adm::Value* record) {
  if (options_.wal == nullptr) return Status::OK();
  txn::LogRecord rec;
  rec.type = type;
  rec.dataset_id = def_.id;
  rec.partition = options_.partition_id;
  rec.key = pk_key;
  if (record) rec.value = adm::Serialize(*record);
  return options_.wal->Append(rec).ok()
             ? Status::OK()
             : Status::IOError("WAL append failed for dataset " + def_.name);
}

Status DatasetPartition::ApplyToIndex(const Secondary& ix, const Value& record,
                                      const std::string& pk_key,
                                      bool remove) {
  const Value& field = record.GetField(ix.def.field);
  if (field.is_unknown()) return Status::OK();  // unindexed when absent
  switch (ix.def.kind) {
    case meta::IndexKind::kBTree: {
      std::string key;
      AX_RETURN_NOT_OK(adm::EncodeKeyPart(field, &key));
      key += pk_key;
      return remove ? ix.btree->Delete(key) : ix.btree->Put(key, "");
    }
    case meta::IndexKind::kRTree: {
      if (!field.is_point() && !field.is_rectangle()) return Status::OK();
      return remove ? ix.rtree->Remove(field.Mbr(), pk_key)
                    : ix.rtree->Insert(field.Mbr(), pk_key);
    }
    case meta::IndexKind::kKeyword: {
      if (!field.is_string()) return Status::OK();
      return remove ? ix.keyword->RemoveText(field.AsString(), pk_key)
                    : ix.keyword->InsertText(field.AsString(), pk_key);
    }
  }
  return Status::OK();
}

Status DatasetPartition::ApplyToIndexes(const Value& record,
                                        const std::string& pk_key,
                                        bool remove) {
  for (const auto& ix : secondaries_) {
    AX_RETURN_NOT_OK(ApplyToIndex(ix, record, pk_key, remove));
  }
  return Status::OK();
}

Status DatasetPartition::Upsert(const Value& record, bool log) {
  AX_ASSIGN_OR_RETURN(Value pk, ExtractPk(record));
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  if (log) {
    AX_RETURN_NOT_OK(LogMutation(txn::LogRecordType::kUpsert, pk_key, &record));
  }
  // Read the prior version to unhook its index entries.
  if (!secondaries_.empty()) {
    std::string old_raw;
    AX_ASSIGN_OR_RETURN(bool existed, primary_->Get(pk_key, &old_raw));
    if (existed) {
      AX_ASSIGN_OR_RETURN(Value old_record,
                          adm::DeserializeFields(old_raw, indexed_fields_));
      AX_RETURN_NOT_OK(ApplyToIndexes(old_record, pk_key, /*remove=*/true));
    }
  }
  AX_RETURN_NOT_OK(primary_->Put(pk_key, adm::Serialize(record)));
  return ApplyToIndexes(record, pk_key, /*remove=*/false);
}

Status DatasetPartition::Insert(const Value& record, bool log) {
  AX_ASSIGN_OR_RETURN(Value pk, ExtractPk(record));
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  AX_ASSIGN_OR_RETURN(bool exists, primary_->Get(pk_key, nullptr));
  if (exists) {
    return Status::AlreadyExists("duplicate primary key " + pk.ToString() +
                                 " in dataset " + def_.name);
  }
  return Upsert(record, log);
}

Result<bool> DatasetPartition::DeleteByKey(const Value& pk, bool log) {
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  std::string old_raw;
  AX_ASSIGN_OR_RETURN(bool existed, primary_->Get(pk_key, &old_raw));
  if (!existed) return false;
  if (log) {
    AX_RETURN_NOT_OK(LogMutation(txn::LogRecordType::kDelete, pk_key, nullptr));
  }
  AX_ASSIGN_OR_RETURN(Value old_record,
                      adm::DeserializeFields(old_raw, indexed_fields_));
  AX_RETURN_NOT_OK(ApplyToIndexes(old_record, pk_key, /*remove=*/true));
  AX_RETURN_NOT_OK(primary_->Delete(pk_key));
  return true;
}

Result<bool> DatasetPartition::Get(const Value& pk, Value* record) const {
  AX_ASSIGN_OR_RETURN(std::string pk_key, EncodePk(pk));
  return GetByEncodedPk(pk_key, record);
}

Result<bool> DatasetPartition::GetByEncodedPk(const std::string& pk_key,
                                              Value* record) const {
  std::string raw;
  AX_ASSIGN_OR_RETURN(bool found, primary_->Get(pk_key, &raw));
  if (!found) return false;
  if (record) {
    AX_ASSIGN_OR_RETURN(*record, adm::Deserialize(raw));
  }
  return true;
}

Result<std::vector<std::string>> DatasetPartition::BTreeSearch(
    const std::string& index_name, const Value& lo, const Value& hi) const {
  AX_ASSIGN_OR_RETURN(const Secondary* ix,
                      FindSecondary(index_name, meta::IndexKind::kBTree));
  std::string lo_key = adm::MinKey();
  if (!lo.is_unknown()) {
    lo_key.clear();
    AX_RETURN_NOT_OK(adm::EncodeKeyPart(lo, &lo_key));
  }
  std::string hi_bound;
  if (hi.is_unknown()) {
    hi_bound = adm::MaxKey();
  } else {
    AX_RETURN_NOT_OK(adm::EncodeKeyPart(hi, &hi_bound));
    hi_bound += '\xff';  // include every (hi, pk) composite
  }
  std::vector<std::string> pks;
  AX_ASSIGN_OR_RETURN(auto it, ix->btree->NewIterator());
  AX_RETURN_NOT_OK(it.Seek(lo_key));
  while (it.Valid() && it.key() <= hi_bound) {
    // Composite key: secondary part then pk part; decode to split.
    size_t pos = 0;
    AX_ASSIGN_OR_RETURN(Value sk, adm::DecodeKeyPart(it.key(), &pos));
    (void)sk;
    pks.push_back(it.key().substr(pos));
    AX_RETURN_NOT_OK(it.Next());
  }
  return pks;
}

Result<std::vector<std::string>> DatasetPartition::RTreeSearch(
    const std::string& index_name, const adm::Rectangle& query) const {
  AX_ASSIGN_OR_RETURN(const Secondary* ix,
                      FindSecondary(index_name, meta::IndexKind::kRTree));
  AX_ASSIGN_OR_RETURN(auto entries, ix->rtree->Query(query));
  std::vector<std::string> pks;
  pks.reserve(entries.size());
  for (auto& e : entries) pks.push_back(std::move(e.payload));
  return pks;
}

Result<std::vector<std::string>> DatasetPartition::KeywordSearch(
    const std::string& index_name, const std::string& term) const {
  AX_ASSIGN_OR_RETURN(const Secondary* ix,
                      FindSecondary(index_name, meta::IndexKind::kKeyword));
  return ix->keyword->SearchAll(storage::TokenizeKeywords(term));
}

Result<const DatasetPartition::Secondary*> DatasetPartition::FindSecondary(
    const std::string& name, meta::IndexKind kind) const {
  for (const auto& sec : secondaries_) {
    if (sec.def.name == name && sec.def.kind == kind) return &sec;
  }
  return Status::NotFound("no such index '" + name + "' on " + def_.name);
}

Status DatasetPartition::Flush() {
  AX_RETURN_NOT_OK(primary_->Flush());
  for (const auto& sec : secondaries_) AX_RETURN_NOT_OK(sec.Flush());
  return Status::OK();
}

}  // namespace asterix
