// LSM B+tree: the native storage structure of asterix-lite datasets
// (paper §III item 5, Fig. 2). Writes go to an in-memory component; when it
// exceeds its budget it is rotated to an immutable memory component and
// flushed to an on-disk B+tree component with a Bloom filter. Deletes write
// antimatter entries. Reads consult the mutable memory component, then
// immutable memory components, then disk components newest-to-oldest; scans
// merge all components, resolving each key to its newest version.
//
// Rotation, flushing, merging, background maintenance and recovery are the
// shared LSM lifecycle (lsm_lifecycle.h); this file holds only what is
// B+tree-specific: the sorted memory component, the row/columnar component
// builders, and the read paths.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/bloom.h"
#include "storage/btree.h"
#include "storage/buffer_cache.h"
#include "storage/columnar.h"
#include "storage/lsm_lifecycle.h"

namespace asterix::storage {

/// On-disk layout of flushed/merged components (paper §VII: columnar
/// storage). Row components are B+trees (.cmp); columnar components are
/// per-column page files (.col, see columnar.h). A tree may hold a mix —
/// reads and merges dispatch per component, and merges converge the stack
/// to the configured format.
enum class StorageFormat : uint8_t { kRow, kColumnar };

/// Configuration for an LSM B+tree: the shared lifecycle options plus the
/// B+tree's component format.
struct LsmOptions : LsmTreeOptions {
  int bloom_bits_per_key = 10;
  /// Compress values in disk components (paper §VII: storage compression).
  /// Applies to row components only; columnar components are uncompressed.
  bool compress_values = false;
  /// Format for components written by this tree's flushes and merges.
  /// Components written with kColumnar fall back to a row component when a
  /// buffered value is not a columnar-representable ADM record (see
  /// RecordIsColumnar); existing components of either format stay readable.
  StorageFormat storage_format = StorageFormat::kRow;
};

/// An LSM-managed B+tree over byte-string keys. Thread-safe. Flush(),
/// MaybeMerge() and ForceFullMerge() come from LsmLifecycle.
class LsmBTree : public LsmLifecycle {
 public:
  /// Open (or create) the tree; existing components in `options.dir` with
  /// the configured name prefix are recovered in sequence order. The Bloom
  /// file is the flush commit point: a data file without one is dropped
  /// and its rows are recovered from the WAL by the caller's replay.
  static Result<std::unique_ptr<LsmBTree>> Open(const LsmOptions& options);
  /// Waits for in-flight background maintenance on this tree to finish.
  ~LsmBTree() override;

  /// Insert or overwrite.
  Status Put(const std::string& key, const std::string& value)
      AX_EXCLUDES(mu_);
  /// Delete via antimatter.
  Status Delete(const std::string& key) AX_EXCLUDES(mu_);
  /// Point lookup (Bloom filters skip non-containing components).
  Result<bool> Get(const std::string& key, std::string* value) const
      AX_EXCLUDES(mu_);

  LsmStats stats() const AX_EXCLUDES(mu_);

  /// Snapshot iterator over the merged view: the one newest-wins merge of
  /// the memory, row and columnar components. Scans, merges and the
  /// columnar scan all walk it. The snapshot is stable: flushes and merges
  /// after creation do not affect it, because it pins every component it
  /// reads.
  class Iterator {
   public:
    Status Seek(const std::string& key);
    Status SeekToFirst();
    bool Valid() const { return current_ != nullptr; }
    /// Steps to the next key. Returns the error, if any, that value() met.
    Status Next();
    const std::string& key() const;
    /// The current value, produced on the first call for each entry (a
    /// columnar component loads its columns on its first one). If that
    /// fails, the value is empty and Next() returns the error.
    const std::string& value() const;
    /// True for an antimatter entry; only a merge's iterator yields them.
    bool antimatter() const;
    /// The component reader when the current entry is row columnar_row()
    /// of a columnar component, else null. The iterator pins the component,
    /// so the reader lives as long as the iterator.
    const ColumnarReader* columnar_reader() const;
    uint64_t columnar_row() const;

   private:
    friend class LsmBTree;
    struct Source;
    Iterator(std::vector<std::unique_ptr<Source>> sources,
             bool surface_antimatter);
    /// Make current_ the smallest key's newest entry, skipping deleted keys
    /// unless antimatter is surfaced.
    Status Select();
    /// Step every source positioned on the current key past it.
    Status StepPast();
    std::vector<std::unique_ptr<Source>> sources_;  // newest first
    bool surface_antimatter_ = false;
    Source* current_ = nullptr;
    // Sources not yet exhausted at the last Select(); when only one is left
    // the merge is a plain walk of it.
    size_t live_ = 0;
    mutable bool value_ready_ = false;
    mutable std::string value_;
    mutable Status status_;

   public:
    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;
    ~Iterator();
  };

  Result<Iterator> NewIterator() const AX_EXCLUDES(mu_);

 private:
  struct DiskComponent : LsmDiskComponent {
    std::unique_ptr<BTree> tree;          // row component
    std::unique_ptr<ColumnarReader> col;  // columnar component
    BloomFilter bloom;
    bool columnar() const { return col != nullptr; }
  };
  using ComponentPtr = std::shared_ptr<const DiskComponent>;
  static const DiskComponent& AsDisk(const DiskPtr& comp) {
    return static_cast<const DiskComponent&>(*comp);
  }

  struct MemEntry {
    bool antimatter = false;
    std::string value;
  };
  struct MemComponent : LsmMemComponent {
    std::map<std::string, MemEntry> rows;
  };

  explicit LsmBTree(const LsmOptions& options);

  std::shared_ptr<LsmMemComponent> FreezeMemLocked() override
      AX_REQUIRES(mu_);
  Result<DiskPtr> OpenDiskComponent(const std::string& base,
                                    const std::string& ext) const override;
  Result<DiskPtr> BuildFlushComponent(const LsmMemComponent& mem, bool oldest,
                                      const std::string& base) const override;
  Result<DiskPtr> BuildMergedComponent(const std::vector<DiskPtr>& victims,
                                       bool includes_oldest,
                                       const std::string& base) const override;
  /// One row of a component being written.
  struct ComponentRow {
    std::string key;
    bool antimatter = false;
    std::string value;
  };
  /// Write `rows` (sorted, already antimatter-filtered as the caller needs)
  /// as a new disk component at `base` in the configured format, falling
  /// back to a row component when a value is not columnar-representable.
  Result<DiskPtr> BuildDiskComponent(const std::vector<ComponentRow>& rows,
                                     const std::string& base) const;

  const int bloom_bits_per_key_;
  const bool compress_values_;
  const StorageFormat storage_format_;
  std::map<std::string, MemEntry> mem_ AX_GUARDED_BY(mu_);
};

}  // namespace asterix::storage
