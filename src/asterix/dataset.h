// Dataset partition: one hash partition of an internal dataset (paper
// Fig. 1/Fig. 2). Owns the partition's primary LSM B+tree plus the local
// secondary indexes (B+tree / R-tree / inverted keyword — §III item 8) and
// keeps them consistent on upserts and deletes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asterix/metadata.h"
#include "storage/lsm_btree.h"
#include "storage/lsm_inverted.h"
#include "storage/lsm_rtree.h"
#include "txn/log_manager.h"

namespace asterix {

struct PartitionOptions {
  std::string dir;
  storage::BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 4u << 20;
  storage::MergePolicy merge_policy;
  /// World box for R-tree-free spatial alternatives is configured at index
  /// level elsewhere; the LSM R-tree itself needs no world box.
  txn::LogManager* wal = nullptr;  // optional write-ahead log
  uint32_t partition_id = 0;
  /// Component format for the PRIMARY index only (secondary indexes store
  /// key->PK pairs, which stay row-format regardless).
  storage::StorageFormat storage_format = storage::StorageFormat::kRow;
  /// Shared background maintenance pool for every LSM structure of the
  /// partition (primary + secondaries). Null = inline maintenance. Owned
  /// by the Instance; must outlive the partition.
  storage::MaintenanceScheduler* scheduler = nullptr;
  /// Per-tree backpressure bound (see LsmOptions::max_pending_immutables).
  size_t max_pending_immutables = 2;
};

/// One partition of an internal dataset. Thread-safe per the underlying
/// LSM structures; statement-level locking happens above (Instance).
class DatasetPartition {
 public:
  static Result<std::unique_ptr<DatasetPartition>> Open(
      const meta::DatasetDef& def, const PartitionOptions& options);

  /// Insert-or-replace a record (validated against the dataset type by the
  /// caller). Maintains all secondary indexes. `log` controls WAL writes
  /// (recovery replays with log=false).
  Status Upsert(const adm::Value& record, bool log = true);
  /// Insert that fails if the key already exists.
  Status Insert(const adm::Value& record, bool log = true);
  /// Delete by primary key value; returns whether it existed.
  Result<bool> DeleteByKey(const adm::Value& pk, bool log = true);

  /// Point lookup by primary key value.
  Result<bool> Get(const adm::Value& pk, adm::Value* record) const;
  /// Point lookup by encoded primary key.
  Result<bool> GetByEncodedPk(const std::string& pk_key,
                              adm::Value* record) const;

  /// Snapshot scan over the partition's records.
  Result<storage::LsmBTree::Iterator> ScanIterator() const;

  // ---- secondary index searches (return encoded PKs) -----------------------
  /// B+tree range [lo, hi] (unknown bound = open). Values are raw field
  /// values; encoding happens inside.
  Result<std::vector<std::string>> BTreeSearch(const std::string& index_name,
                                               const adm::Value& lo,
                                               const adm::Value& hi) const;
  Result<std::vector<std::string>> RTreeSearch(const std::string& index_name,
                                               const adm::Rectangle& query) const;
  Result<std::vector<std::string>> KeywordSearch(const std::string& index_name,
                                                 const std::string& term) const;

  /// Flush every LSM structure of this partition.
  Status Flush();
  storage::LsmStats primary_stats() const { return primary_->stats(); }
  /// The primary LSM tree (batch scan sources snapshot it directly).
  const storage::LsmBTree* primary() const { return primary_.get(); }

  const meta::DatasetDef& def() const { return def_; }

  /// Encode a primary key value for this dataset.
  static Result<std::string> EncodePk(const adm::Value& pk);
  /// The partition, of `num_partitions`, that owns the record whose
  /// encoded primary key is `encoded_pk`. Write routing and the
  /// executor's pk-lookup pruning both call this, so they cannot diverge.
  static size_t PartitionOf(const std::string& encoded_pk,
                            size_t num_partitions);

 private:
  DatasetPartition(meta::DatasetDef def, PartitionOptions options)
      : def_(std::move(def)), options_(std::move(options)) {}

  Result<adm::Value> ExtractPk(const adm::Value& record) const;
  Status AddToIndexes(const adm::Value& record, const std::string& pk_key);
  Status RemoveFromIndexes(const adm::Value& record, const std::string& pk_key);
  Status LogMutation(txn::LogRecordType type, const std::string& pk_key,
                     const adm::Value* record);

  meta::DatasetDef def_;
  PartitionOptions options_;
  std::unique_ptr<storage::LsmBTree> primary_;
  std::map<std::string, std::unique_ptr<storage::LsmBTree>> btree_indexes_;
  std::map<std::string, std::unique_ptr<storage::LsmRTree>> rtree_indexes_;
  std::map<std::string, std::unique_ptr<storage::LsmInvertedIndex>>
      keyword_indexes_;
};

}  // namespace asterix
