// Tests for space-filling curves, the LSM R-tree, and the four-way
// SpatialIndex interface of the §V-B study. The key property: all four
// index kinds return identical result sets on identical workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>

#include "common/rng.h"
#include "storage/lsm_rtree.h"
#include "storage/maintenance.h"
#include "storage/rtree.h"
#include "storage/spatial_curve.h"
#include "storage/spatial_index.h"

namespace asterix::storage {
namespace {

TEST(SpatialCurve, ZOrderCellIndexInterleavesBits) {
  // depth-2: cell (1,0) -> z = 01 (x bit in low position of the pair)
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 0, 0, 2), 0u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 1, 0, 2), 1u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 0, 1, 2), 2u);
  EXPECT_EQ(SpaceFillingCurve::CellIndex(CurveKind::kZOrder, 3, 3, 2), 15u);
}

TEST(SpatialCurve, HilbertIsABijectionAtDepth4) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; x++) {
    for (uint32_t y = 0; y < 16; y++) {
      uint64_t d = SpaceFillingCurve::CellIndex(CurveKind::kHilbert, x, y, 4);
      EXPECT_LT(d, 256u);
      EXPECT_TRUE(seen.insert(d).second) << "duplicate at " << x << "," << y;
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(SpatialCurve, HilbertNeighboursAreAdjacent) {
  // The defining property: consecutive curve indices are grid neighbours.
  std::vector<std::pair<uint32_t, uint32_t>> by_index(256);
  for (uint32_t x = 0; x < 16; x++) {
    for (uint32_t y = 0; y < 16; y++) {
      by_index[SpaceFillingCurve::CellIndex(CurveKind::kHilbert, x, y, 4)] = {
          x, y};
    }
  }
  for (size_t i = 1; i < by_index.size(); i++) {
    int dx = std::abs(int(by_index[i].first) - int(by_index[i - 1].first));
    int dy = std::abs(int(by_index[i].second) - int(by_index[i - 1].second));
    EXPECT_EQ(dx + dy, 1) << "gap at curve index " << i;
  }
}

TEST(SpatialCurve, CoverRangesContainAllPointsInQuery) {
  adm::Rectangle world{{0, 0}, {100, 100}};
  for (auto kind : {CurveKind::kZOrder, CurveKind::kHilbert}) {
    SpaceFillingCurve curve(kind, world);
    adm::Rectangle query{{20, 30}, {42.5, 55}};
    auto ranges = curve.CoverRanges(query);
    ASSERT_FALSE(ranges.empty());
    Rng rng(5);
    for (int i = 0; i < 500; i++) {
      adm::Point p{20 + rng.NextDouble() * 22.5, 30 + rng.NextDouble() * 25};
      uint64_t v = curve.Encode(p);
      bool covered = false;
      for (const auto& [lo, hi] : ranges) {
        if (v >= lo && v <= hi) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "point (" << p.x << "," << p.y
                           << ") escaped curve cover";
    }
  }
}

TEST(SpatialCurve, RangeBudgetRespected) {
  SpaceFillingCurve curve(CurveKind::kHilbert, {{0, 0}, {1, 1}});
  auto ranges = curve.CoverRanges({{0.111, 0.222}, {0.888, 0.999}}, 16);
  EXPECT_LE(ranges.size(), 16u);
  // Ranges are sorted and disjoint after coalescing.
  for (size_t i = 1; i < ranges.size(); i++) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second + 1);
  }
}

class SpatialIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axsidx_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(512);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmTreeOptions RTreeOptions(const std::string& name, size_t budget) {
    LsmTreeOptions o;
    o.dir = dir_;
    o.name = name;
    o.cache = cache_.get();
    o.mem_budget_bytes = budget;
    return o;
  }
  SpatialIndexOptions Options(SpatialIndexKind kind, const std::string& name) {
    SpatialIndexOptions o;
    o.kind = kind;
    o.dir = dir_;
    o.name = name;
    o.cache = cache_.get();
    o.world = {{0, 0}, {1000, 1000}};
    o.mem_budget_bytes = 1 << 14;  // force flushes
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(SpatialIndexTest, LsmRTreeInsertQueryDelete) {
  LsmTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  o.mem_budget_bytes = 1 << 12;
  auto tree = LsmRTree::Open(o).value();
  for (int i = 0; i < 500; i++) {
    adm::Point p{double(i % 50), double(i / 50)};
    ASSERT_TRUE(tree->Insert({p, p}, "pk" + std::to_string(i)).ok());
  }
  auto hits = tree->Query({{0, 0}, {9, 0}}).value();  // row 0, x 0..9
  EXPECT_EQ(hits.size(), 10u);
  // Delete an entry that already lives in a disk component.
  ASSERT_TRUE(tree->Flush().ok());
  adm::Point victim{3, 0};
  ASSERT_TRUE(tree->Remove({victim, victim}, "pk3").ok());
  hits = tree->Query({{0, 0}, {9, 0}}).value();
  EXPECT_EQ(hits.size(), 9u);
  for (const auto& e : hits) EXPECT_NE(e.payload, "pk3");
  // Merge annihilates the delete and keeps results stable.
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().disk_components, 1u);
  hits = tree->Query({{0, 0}, {9, 0}}).value();
  EXPECT_EQ(hits.size(), 9u);
}

TEST_F(SpatialIndexTest, LsmRTreeDeleteInMemoryAnnihilates) {
  LsmTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  auto tree = LsmRTree::Open(o).value();
  adm::Point p{5, 5};
  ASSERT_TRUE(tree->Insert({p, p}, "pk1").ok());
  ASSERT_TRUE(tree->Remove({p, p}, "pk1").ok());
  EXPECT_TRUE(tree->Query({{0, 0}, {10, 10}}).value().empty());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_TRUE(tree->Query({{0, 0}, {10, 10}}).value().empty());
}

// Recovery adopts only this tree's own files: a tree whose name extends
// this one's ("rt" vs "rt_1") shares the directory, not the components.
TEST_F(SpatialIndexTest, LsmRTreeReopenIgnoresComponentsOfTreeWithLongerName) {
  const adm::Point p{5, 5};
  {
    auto other = LsmRTree::Open(RTreeOptions("rt_1", 1 << 20)).value();
    ASSERT_TRUE(other->Insert({p, p}, "other").ok());
    ASSERT_TRUE(other->Flush().ok());
  }
  {
    auto tree = LsmRTree::Open(RTreeOptions("rt", 1 << 20)).value();
    EXPECT_EQ(tree->stats().disk_components, 0u);
    EXPECT_TRUE(tree->Query({{0, 0}, {10, 10}}).value().empty());
    // A full merge of "rt" must not retire any of "rt_1"'s files.
    ASSERT_TRUE(tree->Insert({p, p}, "mine1").ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Insert({p, p}, "mine2").ok());
    ASSERT_TRUE(tree->ForceFullMerge().ok());
  }
  auto other = LsmRTree::Open(RTreeOptions("rt_1", 1 << 20)).value();
  EXPECT_EQ(other->stats().disk_components, 1u);
  auto hits = other->Query({{0, 0}, {10, 10}}).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].payload, "other");
}

// Deletes are charged against the memory budget like inserts: a
// delete-only stream rotates and flushes instead of growing the memory
// component without bound, inline and on the background scheduler.
TEST_F(SpatialIndexTest, LsmRTreeDeleteOnlyStreamFlushesAtBudget) {
  MaintenanceScheduler sched(1);
  for (MaintenanceScheduler* s : {static_cast<MaintenanceScheduler*>(nullptr),
                                  &sched}) {
    LsmTreeOptions o =
        RTreeOptions(s == nullptr ? "inline" : "async", 1 << 12);
    o.scheduler = s;
    auto tree = LsmRTree::Open(o).value();
    auto pt = [](int i) {
      adm::Point p{double(i % 100), double(i / 100)};
      return adm::Rectangle{p, p};
    };
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(tree->Insert(pt(i), "pk" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    const uint64_t flushes_before = tree->stats().flushes;
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(tree->Remove(pt(i), "pk" + std::to_string(i)).ok());
    }
    // ~100 KB of deletes against a 4 KB budget.
    EXPECT_GE(tree->stats().flushes + tree->stats().pending_immutables,
              flushes_before + 10)
        << (s == nullptr ? "inline" : "async");
    EXPECT_TRUE(tree->Query({{0, 0}, {100, 100}}).value().empty());
    ASSERT_TRUE(tree->Flush().ok());
    EXPECT_TRUE(tree->Query({{0, 0}, {100, 100}}).value().empty());
  }
}

// Each flush and merge picks its R-tree leaf format from its own entries:
// point-only components keep the compact point format, and a component
// holding a rectangle is written with full MBR leaves instead of failing.
TEST_F(SpatialIndexTest, LsmRTreeLeafFormatFollowsComponentEntries) {
  auto tree = LsmRTree::Open(RTreeOptions("rt", 1 << 20)).value();
  const adm::Point p{1, 1};
  ASSERT_TRUE(tree->Insert({p, p}, "point").ok());
  ASSERT_TRUE(tree->Flush().ok());
  const adm::Rectangle area{{0, 0}, {2, 2}};
  ASSERT_TRUE(tree->Insert(area, "area").ok());
  ASSERT_TRUE(tree->Flush().ok());
  auto leaf_point_mode = [&](const std::string& file) {
    auto rt = RTree::Open(dir_ + "/" + file, cache_.get()).value();
    return rt->meta().point_mode;
  };
  EXPECT_TRUE(leaf_point_mode("rt_0000000001_0000000001.rt"));
  EXPECT_FALSE(leaf_point_mode("rt_0000000002_0000000002.rt"));
  auto hits = tree->Query({{1.5, 1.5}, {3, 3}}).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].payload, "area");
  EXPECT_EQ(tree->Query({{0, 0}, {2, 2}}).value().size(), 2u);
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_FALSE(leaf_point_mode("rt_0000000001_0000000002.rt"));
  EXPECT_EQ(tree->Query({{0, 0}, {2, 2}}).value().size(), 2u);
}

// The brute-force workload of the sweeps below: 4000 random points, every
// 7th deleted, then a flush and 8 range queries checked against the
// surviving points. `query` returns the payloads it finds.
void ExpectMatchesBruteForceWithDeletes(
    const std::function<Status(const adm::Point&, const std::string&)>& insert,
    const std::function<Status(const adm::Point&, const std::string&)>& remove,
    const std::function<Status()>& flush,
    const std::function<std::vector<std::string>(const adm::Rectangle&)>&
        query,
    const std::string& label) {
  Rng rng(99);
  std::vector<adm::Point> pts;
  const int n = 4000;
  for (int i = 0; i < n; i++) {
    pts.push_back({rng.NextDouble() * 1000, rng.NextDouble() * 1000});
    ASSERT_TRUE(insert(pts.back(), "pk" + std::to_string(i)).ok());
  }
  // Delete every 7th point.
  std::set<int> deleted;
  for (int i = 0; i < n; i += 7) {
    ASSERT_TRUE(remove(pts[static_cast<size_t>(i)], "pk" + std::to_string(i)).ok());
    deleted.insert(i);
  }
  ASSERT_TRUE(flush().ok());
  for (int q = 0; q < 8; q++) {
    double x = rng.NextDouble() * 900, y = rng.NextDouble() * 900;
    adm::Rectangle rect{{x, y}, {x + 100, y + 100}};
    std::set<std::string> expect;
    for (int i = 0; i < n; i++) {
      if (deleted.count(i)) continue;
      if (rect.Contains(pts[static_cast<size_t>(i)])) {
        expect.insert("pk" + std::to_string(i));
      }
    }
    auto got_vec = query(rect);
    std::set<std::string> got(got_vec.begin(), got_vec.end());
    EXPECT_EQ(got, expect) << label << " query " << q;
    EXPECT_EQ(got_vec.size(), got.size()) << "duplicates returned";
  }
}

// All four spatial index kinds agree with brute force — the precondition
// for the paper's apples-to-apples comparison.
class SpatialIndexKindSweep
    : public SpatialIndexTest,
      public ::testing::WithParamInterface<SpatialIndexKind> {};

TEST_P(SpatialIndexKindSweep, MatchesBruteForceWithDeletes) {
  auto idx = SpatialIndex::Create(
                 Options(GetParam(), SpatialIndexKindName(GetParam())))
                 .value();
  ExpectMatchesBruteForceWithDeletes(
      [&](const adm::Point& p, const std::string& pk) {
        return idx->Insert(p, pk);
      },
      [&](const adm::Point& p, const std::string& pk) {
        return idx->Remove(p, pk);
      },
      [&] { return idx->Flush(); },
      [&](const adm::Rectangle& rect) { return idx->Query(rect).value(); },
      SpatialIndexKindName(GetParam()));
}

TEST_P(SpatialIndexKindSweep, SurvivesMergeAndReopenlessRestartState) {
  auto idx = SpatialIndex::Create(
                 Options(GetParam(), SpatialIndexKindName(GetParam())))
                 .value();
  for (int i = 0; i < 1000; i++) {
    adm::Point p{double(i % 100) * 10, double(i / 100) * 100};
    ASSERT_TRUE(idx->Insert(p, "pk" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(idx->ForceFullMerge().ok());
  EXPECT_LE(idx->stats().disk_components, 1u);
  auto hits = idx->Query({{0, 0}, {95, 95}}).value();
  EXPECT_EQ(hits.size(), 10u);  // row 0: x = 0,10,...,90
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SpatialIndexKindSweep,
    ::testing::Values(SpatialIndexKind::kRTree, SpatialIndexKind::kHilbertBTree,
                      SpatialIndexKind::kZOrderBTree, SpatialIndexKind::kGrid),
    [](const ::testing::TestParamInfo<SpatialIndexKind>& info) {
      std::string name = SpatialIndexKindName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The LSM R-tree agrees with brute force under every merge policy, so a
// merge that stops short of the oldest component (prefix) must keep the
// deletions that still hide entries below it.
class LsmRTreeMergePolicySweep
    : public SpatialIndexTest,
      public ::testing::WithParamInterface<MergePolicyKind> {};

TEST_P(LsmRTreeMergePolicySweep, MatchesBruteForceWithDeletes) {
  LsmTreeOptions o = RTreeOptions("rt", 1 << 14);
  o.merge_policy.kind = GetParam();
  o.merge_policy.max_components = 3;
  o.merge_policy.max_merged_bytes = 96u << 10;
  auto tree = LsmRTree::Open(o).value();
  ExpectMatchesBruteForceWithDeletes(
      [&](const adm::Point& p, const std::string& pk) {
        return tree->Insert({p, p}, pk);
      },
      [&](const adm::Point& p, const std::string& pk) {
        return tree->Remove({p, p}, pk);
      },
      [&] { return tree->Flush(); },
      [&](const adm::Rectangle& rect) {
        auto hits = tree->Query(rect).value();
        std::vector<std::string> pks;
        for (auto& e : hits) pks.push_back(e.payload);
        return pks;
      },
      "rtree");
}

std::string PolicyName(const ::testing::TestParamInfo<MergePolicyKind>& info) {
  static const char* kNames[] = {"no_merge", "constant", "prefix"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LsmRTreeMergePolicySweep,
    ::testing::Values(MergePolicyKind::kNoMerge, MergePolicyKind::kConstant,
                      MergePolicyKind::kPrefix),
    PolicyName);

}  // namespace
}  // namespace asterix::storage
