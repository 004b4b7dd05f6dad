// LSM R-tree secondary index (paper §III item 8, §V-B study). Follows the
// AsterixDB design: each disk component pairs an immutable R-tree of
// inserted entries with a B+tree of deleted keys; an entry from component i
// is live iff no newer component's deleted-key set contains it. This is the
// "change in how deletions were handled for LSM" the paper mentions.
//
// Rotation, flushing, merging, background maintenance and recovery are the
// shared LSM lifecycle (lsm_lifecycle.h); this file holds only what is
// R-tree-specific: the memory component, the component builders, and Query.
#pragma once

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/lsm_lifecycle.h"
#include "storage/rtree.h"

namespace asterix::storage {

/// LSM-managed R-tree mapping MBRs (or points) to opaque payloads
/// (encoded primary keys). Thread-safe. Flush(), MaybeMerge() and
/// ForceFullMerge() come from LsmLifecycle.
class LsmRTree : public LsmLifecycle {
 public:
  /// Open (or create) the tree, recovering `<name>_<lo>_<hi>.rt`
  /// components. The deleted-key file (.del) is the flush commit point.
  static Result<std::unique_ptr<LsmRTree>> Open(const LsmTreeOptions& options);
  /// Waits for in-flight background maintenance on this tree.
  ~LsmRTree() override;

  Status Insert(const adm::Rectangle& mbr, const std::string& payload)
      AX_EXCLUDES(mu_);
  /// Record deletion of a previously inserted (mbr, payload) entry.
  Status Remove(const adm::Rectangle& mbr, const std::string& payload)
      AX_EXCLUDES(mu_);

  /// All live entries whose MBR intersects `query`.
  Result<std::vector<SpatialEntry>> Query(const adm::Rectangle& query) const
      AX_EXCLUDES(mu_);

  /// disk_bytes counts the R-tree files only (deleted-key trees are
  /// sidecars, like the B+tree's Bloom files).
  LsmStats stats() const AX_EXCLUDES(mu_);

 private:
  struct DiskComponent : LsmDiskComponent {
    std::unique_ptr<RTree> rtree;
    std::unique_ptr<BTree> deleted;  // deleted-key B+tree
  };
  static const DiskComponent& AsDisk(const DiskPtr& comp) {
    return static_cast<const DiskComponent&>(*comp);
  }

  /// A rotated-out, frozen memory component awaiting flush.
  struct MemComponent : LsmMemComponent {
    std::vector<SpatialEntry> inserts;
    std::set<std::string> deleted;
  };

  explicit LsmRTree(const LsmTreeOptions& options);

  std::shared_ptr<LsmMemComponent> FreezeMemLocked() override
      AX_REQUIRES(mu_);
  Result<DiskPtr> OpenDiskComponent(const std::string& base,
                                    const std::string& ext) const override;
  Result<DiskPtr> BuildFlushComponent(const LsmMemComponent& mem, bool oldest,
                                      const std::string& base) const override;
  Result<DiskPtr> BuildMergedComponent(const std::vector<DiskPtr>& victims,
                                       bool includes_oldest,
                                       const std::string& base) const override;
  /// Write `inserts` and `deleted` as a component at `base`, in the point
  /// leaf format when every entry is a point.
  Result<DiskPtr> BuildDiskComponent(const std::vector<SpatialEntry>& inserts,
                                     const std::set<std::string>& deleted,
                                     const std::string& base) const;
  static std::string DeleteKey(const adm::Rectangle& mbr,
                               const std::string& payload);

  std::vector<SpatialEntry> mem_inserts_ AX_GUARDED_BY(mu_);
  std::set<std::string> mem_deleted_ AX_GUARDED_BY(mu_);
};

}  // namespace asterix::storage
