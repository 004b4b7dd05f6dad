// Tests for exchanges and the job executor: hash partitioning, merge,
// broadcast, multi-stage parallel plans, and failure propagation.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "hyracks/groupby.h"
#include "hyracks/job.h"
#include "hyracks/operators.h"

namespace asterix::hyracks {
namespace {

using adm::Value;

TupleEval Field(size_t i) {
  return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
}

Tuple T(std::initializer_list<Value> vals) {
  return Tuple(std::vector<Value>(vals));
}

TEST(Exchange, HashPartitionRoutesConsistently) {
  // 2 producers -> 3 consumers, partitioned on field 0. All copies of the
  // same key must land on the same consumer.
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(2, 3);
  for (int p = 0; p < 2; p++) {
    std::vector<Tuple> data;
    for (int i = 0; i < 300; i++) {
      data.push_back(T({Value::Int(i % 30), Value::Int(p)}));
    }
    job.AddProducerTask([ex, data = std::move(data)]() mutable {
      VectorSource src(std::move(data));
      return ex->RunProducer(&src, Exchange::HashRoute({Field(0)}, 3));
    });
  }
  std::vector<StreamPtr> roots;
  for (int c = 0; c < 3; c++) roots.push_back(ex->ConsumerStream(c));
  auto results = job.RunCollect(std::move(roots)).value();
  ASSERT_EQ(results.size(), 3u);
  size_t total = 0;
  std::set<int64_t> seen_keys[3];
  for (int c = 0; c < 3; c++) {
    total += results[c].size();
    for (const auto& t : results[c]) {
      seen_keys[c].insert(t.at(0).AsInt());
    }
  }
  EXPECT_EQ(total, 600u);
  // Key sets of different consumers are disjoint.
  for (int a = 0; a < 3; a++) {
    for (int b = a + 1; b < 3; b++) {
      for (int64_t k : seen_keys[a]) EXPECT_FALSE(seen_keys[b].count(k));
    }
  }
}

TEST(Exchange, MergeToSingleConsumer) {
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(4, 1);
  for (int p = 0; p < 4; p++) {
    std::vector<Tuple> data;
    for (int i = 0; i < 50; i++) data.push_back(T({Value::Int(p * 100 + i)}));
    job.AddProducerTask([ex, data = std::move(data)]() mutable {
      VectorSource src(std::move(data));
      return ex->RunProducer(&src, Exchange::SingleRoute());
    });
  }
  std::vector<StreamPtr> roots;
  roots.push_back(ex->ConsumerStream(0));
  auto results = job.RunCollect(std::move(roots)).value();
  EXPECT_EQ(results[0].size(), 200u);
}

TEST(Exchange, BroadcastReachesAllConsumers) {
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(1, 3);
  job.AddProducerTask([ex]() {
    VectorSource src({T({Value::Int(1)}), T({Value::Int(2)})});
    return ex->RunProducer(&src, Exchange::BroadcastRoute());
  });
  std::vector<StreamPtr> roots;
  for (int c = 0; c < 3; c++) roots.push_back(ex->ConsumerStream(c));
  auto results = job.RunCollect(std::move(roots)).value();
  for (int c = 0; c < 3; c++) EXPECT_EQ(results[c].size(), 2u);
}

TEST(Exchange, ProducerFailurePropagates) {
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(1, 1);
  job.AddProducerTask([ex]() {
    CallbackSource src(
        nullptr,
        [](Batch*) -> Result<bool> {
          return Status::Internal("injected producer failure");
        },
        nullptr);
    return ex->RunProducer(&src, Exchange::SingleRoute());
  });
  std::vector<StreamPtr> roots;
  roots.push_back(ex->ConsumerStream(0));
  auto result = job.RunCollect(std::move(roots));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(Exchange, BackpressureBoundedQueue) {
  // Tiny queue: producer must block and still complete correctly.
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(1, 1, /*queue_capacity=*/2);
  std::vector<Tuple> data;
  for (int i = 0; i < 5000; i++) data.push_back(T({Value::Int(i)}));
  job.AddProducerTask([ex, data = std::move(data)]() mutable {
    VectorSource src(std::move(data));
    return ex->RunProducer(&src, Exchange::SingleRoute());
  });
  std::vector<StreamPtr> roots;
  roots.push_back(ex->ConsumerStream(0));
  auto results = job.RunCollect(std::move(roots)).value();
  ASSERT_EQ(results[0].size(), 5000u);
  // Order preserved through a single queue.
  for (int i = 0; i < 5000; i++) EXPECT_EQ(results[0][i].at(0).AsInt(), i);
}

TEST(Exchange, TwoPhaseParallelAggregation) {
  // The canonical Fig.-1-style plan: N data partitions -> local partial
  // group-by -> hash exchange on key -> final group-by per partition.
  const int kPartitions = 4;
  std::string dir = ::testing::TempDir() + "axexgb";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TempFileManager tmp(dir);

  Rng rng(31);
  std::vector<std::vector<Tuple>> partition_data(kPartitions);
  std::map<int64_t, int64_t> expect;  // key -> count
  for (int i = 0; i < 20000; i++) {
    int64_t key = static_cast<int64_t>(rng.Uniform(57));
    expect[key]++;
    partition_data[static_cast<size_t>(rng.Uniform(kPartitions))].push_back(
        T({Value::Int(key)}));
  }

  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(kPartitions, kPartitions);
  std::vector<AggSpec> aggs = {{AggKind::kCount, nullptr}};
  for (int p = 0; p < kPartitions; p++) {
    auto local = std::make_unique<HashGroupByOp>(
        std::make_unique<VectorSource>(std::move(partition_data[p])),
        std::vector<TupleEval>{Field(0)}, aggs, AggPhase::kPartial,
        resource::MemoryGrant::Fixed(1 << 20), &tmp);
    job.AddProducerTask(
        [ex, local = std::shared_ptr<TupleStream>(std::move(local))]() {
          return ex->RunProducer(local.get(),
                                 Exchange::HashRoute({Field(0)}, kPartitions));
        });
  }
  std::vector<StreamPtr> roots;
  for (int c = 0; c < kPartitions; c++) {
    roots.push_back(std::make_unique<HashGroupByOp>(
        ex->ConsumerStream(c), std::vector<TupleEval>{Field(0)}, aggs,
        AggPhase::kFinal, resource::MemoryGrant::Fixed(1 << 20), &tmp));
  }
  auto results = job.RunCollect(std::move(roots)).value();
  std::map<int64_t, int64_t> got;
  for (const auto& part : results) {
    for (const auto& t : part) {
      EXPECT_EQ(got.count(t.at(0).AsInt()), 0u) << "key on two partitions";
      got[t.at(0).AsInt()] = t.at(1).AsInt();
    }
  }
  EXPECT_EQ(got, expect);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace asterix::hyracks
