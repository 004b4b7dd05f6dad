// Metadata manager: the catalog of types, datasets, indexes and feeds
// (paper Fig. 1's "metadata manager" box). The catalog is one immutable
// value, Catalog, that also holds each internal dataset's partitions.
// MetadataManager publishes versions of it: a statement pins one version
// and reads nothing else, and DDL edits a private copy, persists it (the
// commit point) and then publishes it. See DESIGN.md §4j.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adm/type.h"
#include "algebricks/optimizer.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace asterix {
class DatasetPartition;  // asterix/dataset.h
}

namespace asterix::meta {

enum class IndexKind : uint8_t { kBTree, kRTree, kKeyword };

struct IndexDef {
  std::string name;
  std::string field;
  IndexKind kind = IndexKind::kBTree;
  /// Assigned at CREATE and never reused: names the index's storage.
  uint64_t id = 0;
};

struct DatasetDef {
  std::string name;
  std::string type_name;       // declared item type
  std::string primary_key;     // empty for external datasets
  bool external = false;
  std::map<std::string, std::string> external_props;  // path/format/delimiter
  std::vector<IndexDef> indexes;
  /// Physical component format of the primary index: "row" (default) or
  /// "columnar" (DDL: WITH {"storage-format": "columnar"}).
  std::string storage_format = "row";
  /// Assigned at CREATE and never reused: names the dataset's storage
  /// directories and keys its WAL records, so a re-created name never
  /// meets its predecessor's files or log records.
  uint64_t id = 0;
};

/// A data feed declared via CREATE FEED: a named adapter + properties,
/// optionally connected to a dataset under an ingestion policy. Feeds are
/// catalog objects — they survive restart; the connection records which
/// dataset/policy to resume with (the runtime's progress watermark lives
/// in a separate per-feed progress file, not here).
struct FeedDef {
  std::string name;
  std::string adapter;  // "localfs" | "gleambook" | "channel"
  std::map<std::string, std::string> props;
  std::string connected_dataset;  // empty = not connected
  std::string policy = "BASIC";
};

/// Lets CREATE INDEX keep one dataset's writers out while it swaps in the
/// new partitions and backfills them. Writers pass freely while it is open.
/// Shared by every catalog version of one dataset. Close and Open run
/// inside one MetadataManager::Update, so index DDLs never overlap on it.
class WriteGate {
 public:
  /// Enter as a writer that pinned a catalog of `version`. Waits while
  /// index DDL holds the gate closed. Returns false, without entering, when
  /// that catalog predates the last index DDL's: the writer must re-pin.
  bool Enter(uint64_t version) AX_EXCLUDES(mu_);
  void Exit() AX_EXCLUDES(mu_);
  /// Index DDL: stop new writers and wait for those inside to leave.
  void Close() AX_EXCLUDES(mu_);
  /// Admit writers again, but only those pinning `min_version` or newer.
  void Open(uint64_t min_version) AX_EXCLUDES(mu_);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t writers_ AX_GUARDED_BY(mu_) = 0;
  bool closed_ AX_GUARDED_BY(mu_) = false;
  uint64_t min_version_ AX_GUARDED_BY(mu_) = 0;
};

/// One immutable version of the catalog. Published only through
/// MetadataManager, which edits private copies of it.
class Catalog : public algebricks::Catalog {
 public:
  struct Dataset {
    DatasetDef def;
    adm::TypePtr type;
    /// Partition p of an internal dataset; empty for external datasets.
    /// The partitions share their LSM trees with the same dataset's
    /// partitions in other versions; each tree is closed, and a dropped
    /// one's files removed, when its last holder lets go.
    std::vector<std::shared_ptr<DatasetPartition>> partitions;
    std::shared_ptr<WriteGate> gate;
  };

  Result<adm::TypePtr> GetType(const std::string& name) const;
  /// NotFound for an unknown dataset.
  Result<const Dataset*> GetDataset(const std::string& name) const;
  Result<FeedDef> GetFeed(const std::string& name) const;

  // ---- edits, applied to a private copy inside MetadataManager::Update ----
  Status AddType(const std::string& name, adm::TypePtr type);
  Status RemoveType(const std::string& name);
  /// Adds `def` under a fresh id and returns the new entry, whose
  /// partitions the caller attaches.
  Result<Dataset*> AddDataset(DatasetDef def);
  /// Removes a dataset and returns its last entry.
  Result<std::shared_ptr<const Dataset>> RemoveDataset(const std::string& name);
  /// Adds `index` to an internal dataset under a fresh id (it becomes the
  /// last of def.indexes). Returns the dataset's new entry, a copy this
  /// catalog owns alone.
  Result<Dataset*> AddIndex(const std::string& dataset, IndexDef index);
  /// Removes an index; returns the dataset's new entry.
  Result<Dataset*> RemoveIndex(const std::string& dataset,
                               const std::string& index);
  Status AddFeed(FeedDef def);
  Status RemoveFeed(const std::string& name);
  Status SetFeedConnection(const std::string& feed, const std::string& dataset,
                           const std::string& policy);

  // ---- algebricks::Catalog -------------------------------------------------
  bool HasDataset(const std::string& name) const override;
  std::string PrimaryKeyField(const std::string& name) const override;
  std::vector<IndexInfo> SecondaryIndexes(
      const std::string& name) const override;

  /// Bumped by every published update.
  uint64_t version = 0;
  /// The next dataset or index id; persisted, so ids are never reused.
  uint64_t next_id = 1;
  /// The partition count the instance's data is routed by; persisted, so
  /// a reopen at another count is refused. 0 in a catalog persisted before
  /// the count was recorded.
  size_t num_partitions = 0;
  std::map<std::string, adm::TypePtr> types;
  std::map<std::string, std::shared_ptr<const Dataset>> datasets;
  std::map<std::string, FeedDef> feeds;

 private:
  /// Replace `name`'s entry by a copy this catalog owns alone. (A failed
  /// edit leaves an equal copy behind; Update discards the catalog then.)
  Result<Dataset*> MutableDataset(const std::string& name);
};

using CatalogPtr = std::shared_ptr<const Catalog>;

/// Publishes catalog versions and persists them. Readers pin a version
/// with Snapshot() and never wait; updates are serialized.
class MetadataManager : public algebricks::Catalog {
 public:
  using Edit = std::function<Status(meta::Catalog*)>;

  /// Load (or initialize) the catalog stored at `path`. `attach`, if given,
  /// completes the loaded catalog (opens the partitions) before the first
  /// version is published.
  static Result<std::unique_ptr<MetadataManager>> Open(
      const std::string& path, const Edit& attach = nullptr);

  /// The published version. Statements pin it once and read only it.
  CatalogPtr Snapshot() const AX_EXCLUDES(published_mu_);

  /// Copy the published catalog, apply `edit` to the copy, persist it,
  /// then publish it. The persist is the commit point: if `edit` or the
  /// persist fails, nothing is published. Updates run one at a time.
  /// `finish`, if given, runs last, still inside the update, with the
  /// version then published: the new one, or after a failure the old one.
  Status Update(const Edit& edit,
                const std::function<void(const meta::Catalog&)>& finish =
                    nullptr) AX_EXCLUDES(mu_);
  /// Run `fn` on the published catalog while no update can run.
  Status WithUpdatesBlocked(
      const std::function<Status(const meta::Catalog&)>& fn) AX_EXCLUDES(mu_);

  // ---- algebricks::Catalog, answered from Snapshot() -----------------------
  bool HasDataset(const std::string& name) const override;
  std::string PrimaryKeyField(const std::string& name) const override;
  std::vector<IndexInfo> SecondaryIndexes(
      const std::string& name) const override;

  /// Serialize a Type declaration to an ADM document / restore from one.
  /// (Public for tests.)
  static adm::Value TypeToDoc(const adm::TypePtr& type);
  static Result<adm::TypePtr> TypeFromDoc(
      const adm::Value& doc,
      const std::map<std::string, adm::TypePtr>& known);

 private:
  explicit MetadataManager(std::string path) : path_(std::move(path)) {}
  void Publish(CatalogPtr catalog) AX_EXCLUDES(published_mu_);
  /// Write `catalog` to path_ atomically (temp file, then rename).
  Status Persist(const meta::Catalog& catalog) const AX_REQUIRES(mu_);
  static Result<meta::Catalog> Load(const std::string& path);

  // Serializes updates, which alone write the catalog file and publish,
  // and is held across their storage work.
  std::mutex mu_;
  const std::string path_ AX_GUARDED_BY(mu_);  // the catalog file
  // The published version. Its mutex guards only the pointer copy, so a
  // reader never waits for an update's work.
  mutable std::mutex published_mu_;
  CatalogPtr published_ AX_GUARDED_BY(published_mu_);
};

}  // namespace asterix::meta
