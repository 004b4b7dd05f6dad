// Tests for the parallel-sort merge stream (OrderedMergeStream) — the
// §VII "much-improved parallel sorting" contribution.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.h"
#include "hyracks/merge.h"
#include "hyracks/sort.h"
#include "hyracks_test_util.h"

namespace asterix::hyracks {
namespace {

using adm::Value;

TupleEval Field(size_t i) {
  return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
}

TEST(OrderedMerge, MergesSortedStreamsGlobally) {
  // Three pre-sorted runs with interleaved ranges.
  std::vector<StreamPtr> children;
  std::vector<Tuple> a, b, c;
  for (int i = 0; i < 100; i += 3) a.push_back(Tuple({Value::Int(i)}));
  for (int i = 1; i < 100; i += 3) b.push_back(Tuple({Value::Int(i)}));
  for (int i = 2; i < 100; i += 3) c.push_back(Tuple({Value::Int(i)}));
  children.push_back(std::make_unique<VectorSource>(a));
  children.push_back(std::make_unique<VectorSource>(b));
  children.push_back(std::make_unique<VectorSource>(c));
  WorkerPool pool;
  OrderedMergeStream merge(std::move(children), {{Field(0), true}}, &pool);
  auto rows = CollectAll(&merge).value();
  ASSERT_EQ(rows.size(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(rows[static_cast<size_t>(i)].at(0).AsInt(), i);
}

TEST(OrderedMerge, OneTupleBatchesStayGloballyOrdered) {
  // Every child hands over one tuple per batch, so each head advance
  // refills that child's cursor; the merged order must not care.
  std::vector<StreamPtr> children;
  for (int c = 0; c < 3; c++) {
    std::vector<Tuple> run;
    for (int i = c; i < 600; i += 3) run.push_back(Tuple({Value::Int(i)}));
    children.push_back(
        Rechunked(std::make_unique<VectorSource>(std::move(run)), 1));
  }
  WorkerPool pool;
  OrderedMergeStream merge(std::move(children), {{Field(0), true}}, &pool);
  auto rows = CollectAll(&merge).value();
  ASSERT_EQ(rows.size(), 600u);
  for (int i = 0; i < 600; i++) {
    EXPECT_EQ(rows[static_cast<size_t>(i)].at(0).AsInt(), i);
  }
}

TEST(OrderedMerge, DescendingKeys) {
  std::vector<StreamPtr> children;
  std::vector<Tuple> a = {Tuple({Value::Int(9)}), Tuple({Value::Int(5)})};
  std::vector<Tuple> b = {Tuple({Value::Int(8)}), Tuple({Value::Int(1)})};
  children.push_back(std::make_unique<VectorSource>(a));
  children.push_back(std::make_unique<VectorSource>(b));
  WorkerPool pool;
  OrderedMergeStream merge(std::move(children), {{Field(0), false}}, &pool);
  auto rows = CollectAll(&merge).value();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].at(0).AsInt(), 9);
  EXPECT_EQ(rows[3].at(0).AsInt(), 1);
}

TEST(OrderedMerge, EmptyAndUnevenChildren) {
  std::vector<StreamPtr> children;
  children.push_back(std::make_unique<VectorSource>(std::vector<Tuple>{}));
  children.push_back(std::make_unique<VectorSource>(
      std::vector<Tuple>{Tuple({Value::Int(1)})}));
  children.push_back(std::make_unique<VectorSource>(std::vector<Tuple>{}));
  WorkerPool pool;
  OrderedMergeStream merge(std::move(children), {{Field(0), true}}, &pool);
  auto rows = CollectAll(&merge).value();
  ASSERT_EQ(rows.size(), 1u);
}

TEST(OrderedMerge, ParallelLocalSortsMatchSingleSort) {
  // Local sorts + merge == one global sort, across random partitionings.
  std::string dir = ::testing::TempDir() + "axmerge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TempFileManager tmp(dir);
  Rng rng(42);
  std::vector<std::vector<Tuple>> parts(4);
  std::vector<Tuple> all;
  for (int i = 0; i < 20000; i++) {
    Tuple t({Value::Int(static_cast<int64_t>(rng.Next() % 100000)),
             Value::String(rng.NextString(8))});
    all.push_back(t);
    parts[rng.Uniform(4)].push_back(std::move(t));
  }
  std::vector<StreamPtr> sorted_parts;
  for (auto& p : parts) {
    sorted_parts.push_back(std::make_unique<ExternalSortOp>(
        std::make_unique<VectorSource>(std::move(p)),
        std::vector<SortKey>{{Field(0), true}},
        resource::MemoryGrant::Fixed(1 << 18), &tmp));
  }
  WorkerPool pool;
  OrderedMergeStream merge(std::move(sorted_parts), {{Field(0), true}},
                           &pool);
  auto merged = CollectAll(&merge).value();

  ExternalSortOp global(std::make_unique<VectorSource>(std::move(all)),
                        {{Field(0), true}},
                        resource::MemoryGrant::Fixed(64 << 20), &tmp);
  auto reference = CollectAll(&global).value();
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t i = 0; i < merged.size(); i++) {
    EXPECT_EQ(merged[i].at(0).AsInt(), reference[i].at(0).AsInt()) << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace asterix::hyracks
