// Dataset partition: one hash partition of an internal dataset (paper
// Fig. 1/Fig. 2). Holds the partition's primary LSM B+tree plus the local
// secondary indexes (B+tree / R-tree / inverted keyword — §III item 8) and
// keeps them consistent on upserts and deletes.
#pragma once

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
  /// The partition's directory. Each tree of a dataset lives in its own
  /// subdirectory, named by the dataset's or index's id (TreeDir).
  std::string dir;
  storage::BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 4u << 20;
  storage::MergePolicy merge_policy;
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

/// One partition of an internal dataset, as one catalog version defines
/// it. Its LSM trees are shared with the same partition in the dataset's
/// other versions, so index DDL builds a new DatasetPartition instead of
/// changing one. Thread-safe per the underlying LSM structures;
/// statement-level locking happens above (Instance).
class DatasetPartition {
 public:
  /// Open the partition of internal dataset `def`, recovering its trees.
  /// With `create` (CREATE DATASET) every tree starts from empty storage.
  static Result<std::shared_ptr<DatasetPartition>> Open(
      const meta::DatasetDef& def, const PartitionOptions& options,
      bool create);
  /// The partition of `def`, a later version of this partition's dataset.
  /// It shares the primary tree and the trees of the indexes both versions
  /// have, and opens an empty tree for each index `def` adds.
  Result<std::shared_ptr<DatasetPartition>> Reshape(
      const meta::DatasetDef& def) const;
  /// CREATE INDEX: index every record of a snapshot scan of the primary
  /// in secondary index `index` alone, then flush that index.
  Status Backfill(const meta::IndexDef& index);
  /// DROP DATASET: remove every tree's files once the tree is destroyed.
  void MarkDropped();
  /// DROP INDEX: likewise for index `index_name`'s tree.
  void MarkIndexDropped(const std::string& index_name);

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
  /// The primary LSM tree, which scans walk directly.
  const storage::LsmBTree* primary() const { return primary_.get(); }

  /// Encode a primary key value for this dataset.
  static Result<std::string> EncodePk(const adm::Value& pk);
  /// The partition, of `num_partitions`, that owns the record whose
  /// encoded primary key is `encoded_pk`. Write routing and the
  /// executor's pk-lookup pruning both call this, so they cannot diverge.
  static size_t PartitionOf(const std::string& encoded_pk,
                            size_t num_partitions);
  /// The subdirectory of a partition directory holding dataset `id`'s
  /// primary tree ("ds<id>") or, with `index`, index `id`'s tree ("ix<id>").
  static std::string TreeDir(uint64_t id, bool index);

 private:
  /// One secondary index and its tree (exactly one pointer is set).
  struct Secondary {
    meta::IndexDef def;
    std::shared_ptr<storage::LsmBTree> btree;
    std::shared_ptr<storage::LsmRTree> rtree;
    std::shared_ptr<storage::LsmInvertedIndex> keyword;
    void MarkDropped() const;
    Status Flush() const;
  };

  DatasetPartition(meta::DatasetDef def, PartitionOptions options);

  /// Open index `ix`'s tree; with `create`, from empty storage.
  Result<Secondary> OpenSecondary(const meta::IndexDef& ix, bool create) const;
  /// The secondary named `name`; NotFound if it has none of `kind`.
  Result<const Secondary*> FindSecondary(const std::string& name,
                                         meta::IndexKind kind) const;
  Result<adm::Value> ExtractPk(const adm::Value& record) const;
  /// Add (or, with `remove`, remove) `record`'s entry in one index.
  static Status ApplyToIndex(const Secondary& ix, const adm::Value& record,
                             const std::string& pk_key, bool remove);
  Status ApplyToIndexes(const adm::Value& record, const std::string& pk_key,
                        bool remove);
  Status LogMutation(txn::LogRecordType type, const std::string& pk_key,
                     const adm::Value* record);

  const meta::DatasetDef def_;
  const PartitionOptions options_;
  /// The fields the secondaries index, sorted and unique: all a prior
  /// version is decoded for when its index entries are removed.
  const std::vector<std::string> indexed_fields_;
  std::shared_ptr<storage::LsmBTree> primary_;
  std::vector<Secondary> secondaries_;
};

}  // namespace asterix
