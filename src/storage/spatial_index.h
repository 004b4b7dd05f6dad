// The cast of the paper's §V-B LSM spatial-index study behind one interface:
//   * LSM R-tree                         (what AsterixDB shipped)
//   * LSM B+tree on Hilbert-ordered keys (one senior researcher's pick)
//   * LSM B+tree on Z-ordered keys       (a variant of the same idea)
//   * LSM B+tree on grid cells           (the third researcher's pick)
// All index points to opaque payloads (encoded primary keys). The benchmark
// bench_spatial_index_study sweeps these against each other.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_cache.h"
#include "storage/spatial_curve.h"

namespace asterix::storage {

class MaintenanceScheduler;

enum class SpatialIndexKind {
  kRTree,
  kHilbertBTree,
  kZOrderBTree,
  kGrid,
};

const char* SpatialIndexKindName(SpatialIndexKind kind);

struct SpatialIndexOptions {
  SpatialIndexKind kind = SpatialIndexKind::kRTree;
  std::string dir;
  std::string name;
  BufferCache* cache = nullptr;
  size_t mem_budget_bytes = 1u << 20;
  /// World bounding box for curve quantization / grid cells.
  adm::Rectangle world{{-180, -90}, {180, 90}};
  /// Grid resolution per dimension (kGrid only).
  uint32_t grid_cells = 64;
  /// Background maintenance pool for the backing LSM structure (null =
  /// inline maintenance). Must outlive the index.
  MaintenanceScheduler* scheduler = nullptr;
};

struct SpatialIndexStats {
  uint64_t disk_pages = 0;
  uint64_t disk_entries = 0;
  size_t disk_components = 0;
};

/// A secondary index over points. Thread-safety follows the backing LSM
/// structures (safe for concurrent use).
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual Status Insert(const adm::Point& pt, const std::string& payload) = 0;
  virtual Status Remove(const adm::Point& pt, const std::string& payload) = 0;
  /// Payloads of all points inside `query` (inclusive bounds).
  virtual Result<std::vector<std::string>> Query(
      const adm::Rectangle& query) const = 0;
  virtual Status Flush() = 0;
  virtual Status ForceFullMerge() = 0;
  virtual SpatialIndexStats stats() const = 0;
  virtual SpatialIndexKind kind() const = 0;

  static Result<std::unique_ptr<SpatialIndex>> Create(
      const SpatialIndexOptions& options);
};

}  // namespace asterix::storage
