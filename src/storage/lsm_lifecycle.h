// The one LSM lifecycle (paper §III item 5: every index kind is
// "LSM-ified" the same way). LsmLifecycle owns everything an LSM tree does
// independent of what it stores: the mutable -> immutable -> disk component
// stacks, sequence numbers, rotation at the memory budget, backpressure,
// flushes, merge-policy choice, background scheduling, the sticky
// maintenance error, stats and counters, and the Open()-time recovery scan.
//
// A concrete tree (LsmBTree, LsmRTree) derives from it and supplies only
// what differs: the shape of its memory component, how a disk component is
// built from a frozen memory component or from a run of merge victims, how
// a recovered component is opened, and its read paths. The per-operation
// paths (Put/Delete/Get/Insert/Remove/Query) lock `mu_` and call only
// inline core code; the virtual hooks below run at rotation, flush, merge
// and recovery time.
//
// Maintenance runs on a shared MaintenanceScheduler when one is configured:
// writers only block on the bounded-backpressure contract (too many
// immutable memory components pending), never on disk I/O. Without a
// scheduler the writing thread does the flush and any policy merge inline.
// See DESIGN.md §4f.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/buffer_cache.h"

namespace asterix::metrics {
class Counter;
}  // namespace asterix::metrics

namespace asterix::storage {

class MaintenanceScheduler;

/// Which components a merge combines (paper: "merge policies").
enum class MergePolicyKind {
  kNoMerge,    // never merge (read amplification grows unbounded)
  kConstant,   // merge everything once there are > max_components components
  kPrefix,     // merge the newest run whose total size fits max_merged_bytes
};

struct MergePolicy {
  MergePolicyKind kind = MergePolicyKind::kConstant;
  int max_components = 5;                      // kConstant
  size_t max_merged_bytes = 64u << 20;         // kPrefix
};

/// Configuration shared by every LSM tree kind.
struct LsmTreeOptions {
  std::string dir;          // directory holding component files
  std::string name;         // component filename prefix
  BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 1u << 20;
  MergePolicy merge_policy;
  /// Background maintenance pool. When set, budget-tripping writes rotate
  /// the memory component and return immediately; component builds and
  /// merges run on the pool. When null, maintenance runs inline on the
  /// writing thread. The scheduler must outlive the tree.
  MaintenanceScheduler* scheduler = nullptr;
  /// Backpressure bound: a write blocks only while this many immutable
  /// memory components are already pending flush (async mode only). The
  /// wait is surfaced through the write_stall_* metrics.
  size_t max_pending_immutables = 2;
};

/// Point-in-time statistics (benchmarks read these).
struct LsmStats {
  size_t mem_entries = 0;  // mutable + pending immutable memory components
  size_t mem_bytes = 0;
  size_t pending_immutables = 0;  // immutable memory components not yet flushed
  size_t disk_components = 0;
  size_t columnar_components = 0;  // subset of disk_components
  uint64_t disk_entries = 0;   // includes antimatter
  uint64_t disk_bytes = 0;     // entries and deletions, without Bloom sidecars
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t write_stalls = 0;   // writes that hit the backpressure bound
};

/// The global counters one tree kind reports under (metric names are
/// registered where each kind defines its LsmLayout).
struct LsmCounters {
  metrics::Counter* flushes;
  metrics::Counter* flush_bytes;
  metrics::Counter* merges;
  metrics::Counter* merge_bytes;
  metrics::Counter* write_stalls;
  metrics::Counter* write_stall_ns;
  metrics::Counter* incomplete_components_dropped;
};

/// What the lifecycle needs to know about a tree kind's files. Component
/// files are `<name>_<lo>_<hi><ext>`; a component's commit-point file is
/// written last, so a data file without one is a torn flush.
struct LsmLayout {
  std::vector<std::string> data_exts;  // recovered data-file extensions
  std::string commit_ext;              // e.g. ".bloom"
  LsmCounters counters;
};

/// A rotated-out, frozen memory component awaiting flush. Trees derive
/// their own (the rows); readers may probe it without holding mu_ once they
/// hold the shared_ptr.
struct LsmMemComponent {
  uint64_t seq = 0;      // component sequence number assigned at rotation
  size_t bytes = 0;      // footprint charged against the memory budget
  size_t entries = 0;
  virtual ~LsmMemComponent() = default;
};

/// An immutable disk component. Trees derive their own (the readers).
/// Reference counted: readers (gets, iterators, scan snapshots, queries,
/// in-flight merges) hold shared_ptrs, so a merge that retires a component
/// only marks it obsolete — its files are unlinked when the last pin drops.
struct LsmDiskComponent {
  uint64_t seq_lo = 0, seq_hi = 0;
  uint64_t entries = 0;  // includes antimatter
  uint64_t bytes = 0;    // on-disk size of its entries and deletions
  std::vector<std::string> files;  // every file, commit point last
  bool obsolete = false;
  /// Unlinks `files` when obsolete. Runs after the derived destructor has
  /// closed the component's readers.
  virtual ~LsmDiskComponent();
};

class LsmLifecycle {
 public:
  LsmLifecycle(const LsmLifecycle&) = delete;
  LsmLifecycle& operator=(const LsmLifecycle&) = delete;

  /// Force all memory components to disk (no-op when empty). Synchronous:
  /// returns once every pending immutable component is flushed.
  Status Flush() AX_EXCLUDES(mu_);
  /// Apply the configured merge policy once; returns whether a merge ran.
  Result<bool> MaybeMerge() AX_EXCLUDES(mu_);
  /// Merge every disk component into one (full merge). Synchronous.
  Status ForceFullMerge() AX_EXCLUDES(mu_);
  /// The tree was dropped: when it is destroyed, remove options.dir, which
  /// must hold this tree's files alone.
  void MarkDropped() AX_EXCLUDES(mu_);

 protected:
  using MemPtr = std::shared_ptr<const LsmMemComponent>;
  using DiskPtr = std::shared_ptr<LsmDiskComponent>;

  LsmLifecycle(LsmTreeOptions options, const LsmLayout& layout)
      : options_(std::move(options)), layout_(layout) {}
  /// Derived destructors must call Close() first: background builds call
  /// back into the derived class.
  virtual ~LsmLifecycle() = default;

  /// Open()-time recovery: adopt `<name>_<lo>_<hi><ext>` components in
  /// options_.dir, newest first. A data file whose commit-point file is
  /// missing is an incomplete flush — it is removed, and WAL replay (the
  /// caller's recovery) re-ingests its rows.
  Status Recover() AX_EXCLUDES(mu_);
  /// Waits for in-flight background maintenance to finish. Unflushed memory
  /// components are dropped: WAL truncation only happens after an explicit
  /// checkpoint flush, so replay recovers them. A dropped tree also closes
  /// its disk components and removes its directory.
  void Close() AX_EXCLUDES(mu_);

  /// Post-write hook: charge `bytes` to the mutable component and rotate,
  /// flush and merge per the budget. `lock` owns mu_ on entry and exit.
  Status AfterWriteLocked(std::unique_lock<std::mutex>& lock, size_t bytes)
      AX_REQUIRES(mu_) {
    mem_bytes_ += bytes;
    if (mem_bytes_ <= options_.mem_budget_bytes) return Status::OK();
    return HandleBudgetLocked(lock);
  }
  /// Counters and stack sizes; the caller adds its mutable component's
  /// entry count and any kind-specific fields.
  LsmStats StatsLocked() const AX_REQUIRES(mu_);

  // ---- hooks implemented by each tree kind --------------------------------

  /// Move the mutable memory component out as a frozen one (entries set,
  /// seq and bytes filled in by the caller); null when it is empty.
  virtual std::shared_ptr<LsmMemComponent> FreezeMemLocked()
      AX_REQUIRES(mu_) = 0;
  /// Open a recovered component from `base` + `ext` (+ commit_ext).
  virtual Result<DiskPtr> OpenDiskComponent(const std::string& base,
                                            const std::string& ext) const = 0;
  /// Write `mem` as a disk component at `base`. `oldest`: nothing older is
  /// on disk, so deletions need not be kept. Runs without mu_.
  virtual Result<DiskPtr> BuildFlushComponent(const LsmMemComponent& mem,
                                              bool oldest,
                                              const std::string& base)
      const = 0;
  /// Merge `victims` (newest first, pinned and immutable) into one
  /// component at `base`. `includes_oldest`: the run ends at the oldest
  /// component, so deletions annihilate. Runs without mu_.
  virtual Result<DiskPtr> BuildMergedComponent(
      const std::vector<DiskPtr>& victims, bool includes_oldest,
      const std::string& base) const = 0;

  /// The sticky background failure; writes return it before mutating.
  const Status& maint_error() const AX_REQUIRES(mu_) { return maint_error_; }

  const LsmTreeOptions options_;
  mutable std::mutex mu_;
  // Read by the trees' read paths and stats; changed only by the core.
  std::vector<MemPtr> immutables_ AX_GUARDED_BY(mu_);   // newest first
  std::vector<DiskPtr> components_ AX_GUARDED_BY(mu_);  // newest first

 private:
  /// Rotate + schedule (async) or rotate + drain + merge inline (sync).
  Status HandleBudgetLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_);
  /// Freeze the mutable memory component into immutables_ (no-op if empty).
  void RotateLocked() AX_REQUIRES(mu_);
  /// Backpressure: wait until fewer than max_pending_immutables immutable
  /// components are pending (records the write_stall_* metrics).
  Status WaitForRoomLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_);
  /// Flush the oldest immutable component: claims the per-tree flush slot,
  /// releases mu_ for the component build, reacquires it to install.
  Status FlushOldestLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_);
  /// Barrier: flush every pending immutable component.
  Status DrainLocked(std::unique_lock<std::mutex>& lock) AX_REQUIRES(mu_);
  /// Victim-run length the merge policy wants merged (0/1 = nothing).
  size_t PickMergeRunLocked() const AX_REQUIRES(mu_);
  /// Merge the newest `run` disk components: claims the per-tree merge
  /// slot, releases mu_ for the merged-component build, reacquires it to
  /// splice the component list. Returns immediately if a merge is active.
  Status MergeRunLocked(std::unique_lock<std::mutex>& lock, size_t run)
      AX_REQUIRES(mu_);
  Result<bool> ApplyMergePolicyLocked(std::unique_lock<std::mutex>& lock)
      AX_REQUIRES(mu_);
  void ScheduleFlushLocked() AX_REQUIRES(mu_);
  void ScheduleMergeLocked() AX_REQUIRES(mu_);
  void BackgroundFlush() AX_EXCLUDES(mu_);
  void BackgroundMerge() AX_EXCLUDES(mu_);
  /// `<dir>/<name>_<lo>_<hi>`: a component's path without its extension.
  std::string ComponentBase(uint64_t lo, uint64_t hi) const;

  const LsmLayout& layout_;
  mutable std::condition_variable maint_cv_;  // flush/merge slots, drain,
                                              // backpressure
  size_t mem_bytes_ AX_GUARDED_BY(mu_) = 0;   // mutable component footprint
  Status maint_error_ AX_GUARDED_BY(mu_);     // sticky background failure
  uint64_t next_seq_ AX_GUARDED_BY(mu_) = 1;
  uint64_t flushes_ AX_GUARDED_BY(mu_) = 0;
  uint64_t merges_ AX_GUARDED_BY(mu_) = 0;
  uint64_t write_stalls_ AX_GUARDED_BY(mu_) = 0;
  bool flush_active_ AX_GUARDED_BY(mu_) = false;   // a thread owns the
                                                   // flush slot
  bool flush_queued_ AX_GUARDED_BY(mu_) = false;   // background flush task
                                                   // submitted
  bool merge_active_ AX_GUARDED_BY(mu_) = false;
  bool merge_queued_ AX_GUARDED_BY(mu_) = false;
  bool closing_ AX_GUARDED_BY(mu_) = false;
  bool dropped_ AX_GUARDED_BY(mu_) = false;
  int tasks_inflight_ AX_GUARDED_BY(mu_) = 0;      // scheduler tasks not
                                                   // yet finished
};

}  // namespace asterix::storage
