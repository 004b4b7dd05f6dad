#include "asterix/dataset.h"

#include <functional>

#include "adm/key_encoder.h"
#include "adm/serde.h"

namespace asterix {

using adm::Value;

Result<std::unique_ptr<DatasetPartition>> DatasetPartition::Open(
    const meta::DatasetDef& def, const PartitionOptions& options) {
  if (def.external) {
    return Status::InvalidArgument(
        "external datasets have no storage partitions");
  }
  auto part = std::unique_ptr<DatasetPartition>(
      new DatasetPartition(def, options));
  AX_RETURN_NOT_OK(fs::CreateDirs(options.dir));
  storage::LsmOptions lsm;
  lsm.dir = options.dir;
  lsm.name = "primary";
  lsm.cache = options.cache;
  lsm.mem_budget_bytes = options.mem_budget_bytes;
  lsm.merge_policy = options.merge_policy;
  lsm.storage_format = options.storage_format;
  lsm.scheduler = options.scheduler;
  lsm.max_pending_immutables = options.max_pending_immutables;
  AX_ASSIGN_OR_RETURN(part->primary_, storage::LsmBTree::Open(lsm));
  for (const auto& ix : def.indexes) {
    switch (ix.kind) {
      case meta::IndexKind::kBTree: {
        storage::LsmOptions o = lsm;
        o.name = "ix_" + ix.name;
        // Secondary entries are key->PK pairs, not records: always row.
        o.storage_format = storage::StorageFormat::kRow;
        AX_ASSIGN_OR_RETURN(auto tree, storage::LsmBTree::Open(o));
        part->btree_indexes_[ix.name] = std::move(tree);
        break;
      }
      case meta::IndexKind::kRTree: {
        storage::LsmTreeOptions o = lsm;
        o.name = "ix_" + ix.name;
        AX_ASSIGN_OR_RETURN(auto tree, storage::LsmRTree::Open(o));
        part->rtree_indexes_[ix.name] = std::move(tree);
        break;
      }
      case meta::IndexKind::kKeyword: {
        storage::InvertedIndexOptions o;
        o.dir = options.dir;
        o.name = "ix_" + ix.name;
        o.cache = options.cache;
        o.mem_budget_bytes = options.mem_budget_bytes;
        o.scheduler = options.scheduler;
        AX_ASSIGN_OR_RETURN(auto idx, storage::LsmInvertedIndex::Open(o));
        part->keyword_indexes_[ix.name] = std::move(idx);
        break;
      }
    }
  }
  return part;
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
  rec.dataset = def_.name;
  rec.partition = options_.partition_id;
  rec.key = pk_key;
  if (record) rec.value = adm::Serialize(*record);
  return options_.wal->Append(rec).ok()
             ? Status::OK()
             : Status::IOError("WAL append failed for dataset " + def_.name);
}

Status DatasetPartition::AddToIndexes(const Value& record,
                                      const std::string& pk_key) {
  for (const auto& ix : def_.indexes) {
    const Value& field = record.GetField(ix.field);
    if (field.is_unknown()) continue;  // unindexed when absent
    switch (ix.kind) {
      case meta::IndexKind::kBTree: {
        std::string key;
        AX_RETURN_NOT_OK(adm::EncodeKeyPart(field, &key));
        key += pk_key;
        AX_RETURN_NOT_OK(btree_indexes_.at(ix.name)->Put(key, ""));
        break;
      }
      case meta::IndexKind::kRTree: {
        if (!field.is_point() && !field.is_rectangle()) continue;
        AX_RETURN_NOT_OK(rtree_indexes_.at(ix.name)->Insert(field.Mbr(), pk_key));
        break;
      }
      case meta::IndexKind::kKeyword: {
        if (!field.is_string()) continue;
        AX_RETURN_NOT_OK(
            keyword_indexes_.at(ix.name)->InsertText(field.AsString(), pk_key));
        break;
      }
    }
  }
  return Status::OK();
}

Status DatasetPartition::RemoveFromIndexes(const Value& record,
                                           const std::string& pk_key) {
  for (const auto& ix : def_.indexes) {
    const Value& field = record.GetField(ix.field);
    if (field.is_unknown()) continue;
    switch (ix.kind) {
      case meta::IndexKind::kBTree: {
        std::string key;
        AX_RETURN_NOT_OK(adm::EncodeKeyPart(field, &key));
        key += pk_key;
        AX_RETURN_NOT_OK(btree_indexes_.at(ix.name)->Delete(key));
        break;
      }
      case meta::IndexKind::kRTree: {
        if (!field.is_point() && !field.is_rectangle()) continue;
        AX_RETURN_NOT_OK(rtree_indexes_.at(ix.name)->Remove(field.Mbr(), pk_key));
        break;
      }
      case meta::IndexKind::kKeyword: {
        if (!field.is_string()) continue;
        AX_RETURN_NOT_OK(
            keyword_indexes_.at(ix.name)->RemoveText(field.AsString(), pk_key));
        break;
      }
    }
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
  if (!def_.indexes.empty()) {
    std::string old_raw;
    AX_ASSIGN_OR_RETURN(bool existed, primary_->Get(pk_key, &old_raw));
    if (existed) {
      AX_ASSIGN_OR_RETURN(Value old_record, adm::Deserialize(old_raw));
      AX_RETURN_NOT_OK(RemoveFromIndexes(old_record, pk_key));
    }
  }
  AX_RETURN_NOT_OK(primary_->Put(pk_key, adm::Serialize(record)));
  return AddToIndexes(record, pk_key);
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
  AX_ASSIGN_OR_RETURN(Value old_record, adm::Deserialize(old_raw));
  AX_RETURN_NOT_OK(RemoveFromIndexes(old_record, pk_key));
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

Result<storage::LsmBTree::Iterator> DatasetPartition::ScanIterator() const {
  return primary_->NewIterator();
}

Result<std::vector<std::string>> DatasetPartition::BTreeSearch(
    const std::string& index_name, const Value& lo, const Value& hi) const {
  auto it_tree = btree_indexes_.find(index_name);
  if (it_tree == btree_indexes_.end()) {
    return Status::NotFound("no B+tree index '" + index_name + "'");
  }
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
  AX_ASSIGN_OR_RETURN(auto it, it_tree->second->NewIterator());
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
  auto it = rtree_indexes_.find(index_name);
  if (it == rtree_indexes_.end()) {
    return Status::NotFound("no R-tree index '" + index_name + "'");
  }
  AX_ASSIGN_OR_RETURN(auto entries, it->second->Query(query));
  std::vector<std::string> pks;
  pks.reserve(entries.size());
  for (auto& e : entries) pks.push_back(std::move(e.payload));
  return pks;
}

Result<std::vector<std::string>> DatasetPartition::KeywordSearch(
    const std::string& index_name, const std::string& term) const {
  auto it = keyword_indexes_.find(index_name);
  if (it == keyword_indexes_.end()) {
    return Status::NotFound("no keyword index '" + index_name + "'");
  }
  auto terms = storage::TokenizeKeywords(term);
  return it->second->SearchAll(terms);
}

Status DatasetPartition::Flush() {
  AX_RETURN_NOT_OK(primary_->Flush());
  for (auto& [n, t] : btree_indexes_) AX_RETURN_NOT_OK(t->Flush());
  for (auto& [n, t] : rtree_indexes_) AX_RETURN_NOT_OK(t->Flush());
  for (auto& [n, t] : keyword_indexes_) AX_RETURN_NOT_OK(t->Flush());
  return Status::OK();
}

}  // namespace asterix
