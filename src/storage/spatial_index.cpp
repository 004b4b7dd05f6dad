#include "storage/spatial_index.h"

#include <cstring>

#include "adm/key_encoder.h"
#include "storage/lsm_btree.h"
#include "storage/lsm_rtree.h"

namespace asterix::storage {

const char* SpatialIndexKindName(SpatialIndexKind kind) {
  switch (kind) {
    case SpatialIndexKind::kRTree: return "rtree";
    case SpatialIndexKind::kHilbertBTree: return "hilbert-btree";
    case SpatialIndexKind::kZOrderBTree: return "zorder-btree";
    case SpatialIndexKind::kGrid: return "grid";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// LSM R-tree adapter
// ---------------------------------------------------------------------------
class RTreeSpatialIndex : public SpatialIndex {
 public:
  static Result<std::unique_ptr<RTreeSpatialIndex>> Make(
      const SpatialIndexOptions& options) {
    LsmTreeOptions o;
    o.dir = options.dir;
    o.name = options.name;
    o.cache = options.cache;
    o.mem_budget_bytes = options.mem_budget_bytes;
    o.scheduler = options.scheduler;
    AX_ASSIGN_OR_RETURN(auto tree, LsmRTree::Open(o));
    auto idx = std::make_unique<RTreeSpatialIndex>();
    idx->tree_ = std::move(tree);
    return idx;
  }

  Status Insert(const adm::Point& pt, const std::string& payload) override {
    return tree_->Insert(adm::Rectangle{pt, pt}, payload);
  }
  Status Remove(const adm::Point& pt, const std::string& payload) override {
    return tree_->Remove(adm::Rectangle{pt, pt}, payload);
  }
  Result<std::vector<std::string>> Query(
      const adm::Rectangle& query) const override {
    AX_ASSIGN_OR_RETURN(auto entries, tree_->Query(query));
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (auto& e : entries) out.push_back(std::move(e.payload));
    return out;
  }
  Status Flush() override { return tree_->Flush(); }
  Status ForceFullMerge() override { return tree_->ForceFullMerge(); }
  SpatialIndexStats stats() const override {
    auto s = tree_->stats();
    return SpatialIndexStats{s.disk_bytes / kPageSize, s.disk_entries,
                             s.disk_components};
  }
  SpatialIndexKind kind() const override { return SpatialIndexKind::kRTree; }

 private:
  std::unique_ptr<LsmRTree> tree_;
};

// ---------------------------------------------------------------------------
// Shared base for B+tree-backed spatial indexes (curve & grid): composite
// key = (int64 linear key, payload), value = raw 16-byte point for
// post-filtering.
// ---------------------------------------------------------------------------
class BTreeBackedSpatialIndex : public SpatialIndex {
 public:
  Status Insert(const adm::Point& pt, const std::string& payload) override {
    AX_ASSIGN_OR_RETURN(std::string key, MakeKey(pt, payload));
    std::string value(16, '\0');
    std::memcpy(value.data(), &pt.x, 8);
    std::memcpy(value.data() + 8, &pt.y, 8);
    return tree_->Put(key, value);
  }
  Status Remove(const adm::Point& pt, const std::string& payload) override {
    AX_ASSIGN_OR_RETURN(std::string key, MakeKey(pt, payload));
    return tree_->Delete(key);
  }
  Result<std::vector<std::string>> Query(
      const adm::Rectangle& query) const override {
    std::vector<std::string> out;
    for (const auto& [lo, hi] : LinearRanges(query)) {
      AX_ASSIGN_OR_RETURN(
          std::string lo_key,
          adm::EncodeKey(adm::Value::Int(static_cast<int64_t>(lo))));
      AX_ASSIGN_OR_RETURN(
          std::string hi_key,
          adm::EncodeKey(adm::Value::Int(static_cast<int64_t>(hi))));
      // hi bound: first key strictly greater than every (hi, *) composite.
      std::string hi_bound = hi_key + std::string(1, '\xff');
      AX_ASSIGN_OR_RETURN(auto it, tree_->NewIterator());
      AX_RETURN_NOT_OK(it.Seek(lo_key));
      while (it.Valid() && it.key() <= hi_bound) {
        const std::string& v = it.value();
        if (v.size() == 16) {
          adm::Point pt;
          std::memcpy(&pt.x, v.data(), 8);
          std::memcpy(&pt.y, v.data() + 8, 8);
          if (query.Contains(pt)) {
            AX_ASSIGN_OR_RETURN(auto parts, adm::DecodeKey(it.key()));
            if (parts.size() == 2 && parts[1].is_string()) {
              out.push_back(parts[1].AsString());
            }
          }
        }
        AX_RETURN_NOT_OK(it.Next());
      }
    }
    return out;
  }
  Status Flush() override { return tree_->Flush(); }
  Status ForceFullMerge() override { return tree_->ForceFullMerge(); }
  SpatialIndexStats stats() const override {
    auto s = tree_->stats();
    return SpatialIndexStats{s.disk_bytes / kPageSize, s.disk_entries,
                             s.disk_components};
  }

 protected:
  virtual uint64_t LinearKey(const adm::Point& pt) const = 0;
  virtual std::vector<std::pair<uint64_t, uint64_t>> LinearRanges(
      const adm::Rectangle& query) const = 0;

  Result<std::string> MakeKey(const adm::Point& pt,
                              const std::string& payload) const {
    return adm::EncodeKey(
        {adm::Value::Int(static_cast<int64_t>(LinearKey(pt))),
         adm::Value::String(payload)});
  }

  Status InitTree(const SpatialIndexOptions& options) {
    LsmOptions o;
    o.dir = options.dir;
    o.name = options.name;
    o.cache = options.cache;
    o.mem_budget_bytes = options.mem_budget_bytes;
    o.scheduler = options.scheduler;
    AX_ASSIGN_OR_RETURN(tree_, LsmBTree::Open(o));
    return Status::OK();
  }

  std::unique_ptr<LsmBTree> tree_;
};

class CurveSpatialIndex : public BTreeBackedSpatialIndex {
 public:
  static Result<std::unique_ptr<CurveSpatialIndex>> Make(
      const SpatialIndexOptions& options, CurveKind curve_kind) {
    auto idx = std::make_unique<CurveSpatialIndex>(curve_kind, options.world);
    AX_RETURN_NOT_OK(idx->InitTree(options));
    return idx;
  }
  CurveSpatialIndex(CurveKind curve_kind, const adm::Rectangle& world)
      : curve_(curve_kind, world) {}

  SpatialIndexKind kind() const override {
    return curve_.kind() == CurveKind::kHilbert
               ? SpatialIndexKind::kHilbertBTree
               : SpatialIndexKind::kZOrderBTree;
  }

 protected:
  uint64_t LinearKey(const adm::Point& pt) const override {
    return curve_.Encode(pt);
  }
  std::vector<std::pair<uint64_t, uint64_t>> LinearRanges(
      const adm::Rectangle& query) const override {
    return curve_.CoverRanges(query);
  }

 private:
  SpaceFillingCurve curve_;
};

class GridSpatialIndex : public BTreeBackedSpatialIndex {
 public:
  static Result<std::unique_ptr<GridSpatialIndex>> Make(
      const SpatialIndexOptions& options) {
    auto idx =
        std::make_unique<GridSpatialIndex>(options.world, options.grid_cells);
    AX_RETURN_NOT_OK(idx->InitTree(options));
    return idx;
  }
  GridSpatialIndex(const adm::Rectangle& world, uint32_t cells)
      : world_(world), cells_(cells == 0 ? 1 : cells) {}

  SpatialIndexKind kind() const override { return SpatialIndexKind::kGrid; }

 protected:
  uint64_t LinearKey(const adm::Point& pt) const override {
    auto [gx, gy] = CellOf(pt);
    return static_cast<uint64_t>(gy) * cells_ + gx;
  }
  std::vector<std::pair<uint64_t, uint64_t>> LinearRanges(
      const adm::Rectangle& query) const override {
    auto [gx_lo, gy_lo] = CellOf(query.lo);
    auto [gx_hi, gy_hi] = CellOf(query.hi);
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (uint32_t gy = gy_lo; gy <= gy_hi; gy++) {
      // Each grid row touched by the query is one contiguous key range.
      out.emplace_back(static_cast<uint64_t>(gy) * cells_ + gx_lo,
                       static_cast<uint64_t>(gy) * cells_ + gx_hi);
    }
    return out;
  }

 private:
  std::pair<uint32_t, uint32_t> CellOf(const adm::Point& pt) const {
    double w = world_.hi.x - world_.lo.x;
    double h = world_.hi.y - world_.lo.y;
    double fx = w > 0 ? (pt.x - world_.lo.x) / w : 0;
    double fy = h > 0 ? (pt.y - world_.lo.y) / h : 0;
    fx = fx < 0 ? 0 : (fx > 1 ? 1 : fx);
    fy = fy < 0 ? 0 : (fy > 1 ? 1 : fy);
    uint32_t gx = std::min(static_cast<uint32_t>(fx * cells_), cells_ - 1);
    uint32_t gy = std::min(static_cast<uint32_t>(fy * cells_), cells_ - 1);
    return {gx, gy};
  }

  adm::Rectangle world_;
  uint32_t cells_;
};

}  // namespace

Result<std::unique_ptr<SpatialIndex>> SpatialIndex::Create(
    const SpatialIndexOptions& options) {
  if (options.cache == nullptr) {
    return Status::InvalidArgument("SpatialIndexOptions.cache is required");
  }
  switch (options.kind) {
    case SpatialIndexKind::kRTree: {
      AX_ASSIGN_OR_RETURN(auto idx, RTreeSpatialIndex::Make(options));
      return std::unique_ptr<SpatialIndex>(std::move(idx));
    }
    case SpatialIndexKind::kHilbertBTree: {
      AX_ASSIGN_OR_RETURN(auto idx,
                          CurveSpatialIndex::Make(options, CurveKind::kHilbert));
      return std::unique_ptr<SpatialIndex>(std::move(idx));
    }
    case SpatialIndexKind::kZOrderBTree: {
      AX_ASSIGN_OR_RETURN(auto idx,
                          CurveSpatialIndex::Make(options, CurveKind::kZOrder));
      return std::unique_ptr<SpatialIndex>(std::move(idx));
    }
    case SpatialIndexKind::kGrid: {
      AX_ASSIGN_OR_RETURN(auto idx, GridSpatialIndex::Make(options));
      return std::unique_ptr<SpatialIndex>(std::move(idx));
    }
  }
  return Status::InvalidArgument("unknown spatial index kind");
}

}  // namespace asterix::storage
