// Tests for the persistent query worker pool (hyracks/worker_pool.h) and
// for how queries use it: caller-runs roots, pruned pk lookups that start
// no thread, elastic growth under blocking exchanges, clean shutdown, and
// concurrent queries with cancellation and deadlines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "hyracks/job.h"
#include "hyracks/operators.h"

namespace asterix {
namespace {

using adm::Value;
using hyracks::TaskGroup;
using hyracks::WorkerPool;

size_t LiveThreads() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    n++;
  }
  return n;
}

// The pool's own counters. Tests in this binary run one at a time, so a
// delta over a test belongs to the pool that test drives.
uint64_t Tasks() {
  return metrics::Registry::Global().GetCounter("hyracks.pool.tasks")->value();
}
uint64_t ThreadsStarted() {
  return metrics::Registry::Global()
      .GetCounter("hyracks.pool.threads_started")
      ->value();
}

TEST(WorkerPool, ParkedWorkersAreReused) {
  const uint64_t tasks0 = Tasks(), threads0 = ThreadsStarted();
  WorkerPool pool;
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; i++) {
    TaskGroup group(&pool);
    group.Spawn([&ran] { ran++; });
    group.Wait();
  }
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(Tasks() - tasks0, 50u);
  // One task at a time: the first worker parks and takes every later task.
  EXPECT_EQ(ThreadsStarted() - threads0, 1u);
}

TEST(WorkerPool, BlockedTasksEachGetAThread) {
  // Every task waits until all of them have started, so a pool that queued
  // a task behind a blocked one would hang here.
  const uint64_t threads0 = ThreadsStarted();
  WorkerPool pool;
  const int kTasks = 12;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  {
    TaskGroup group(&pool);
    for (int i = 0; i < kTasks; i++) {
      group.Spawn([&] {
        std::unique_lock<std::mutex> lock(mu);
        started++;
        cv.notify_all();
        while (started < kTasks) cv.wait(lock);
      });
    }
  }
  EXPECT_EQ(started, kTasks);
  EXPECT_EQ(ThreadsStarted() - threads0, static_cast<uint64_t>(kTasks));
}

TEST(WorkerPool, ProducersOutnumberingIdleWorkersDoNotStarve) {
  const uint64_t threads0 = ThreadsStarted();
  WorkerPool pool;
  {  // warm up two parked workers
    TaskGroup group(&pool);
    group.Spawn([] {});
    group.Spawn([] {});
  }
  const size_t kProducers = 8;
  const int kPerProducer = 2000;
  hyracks::Job job(&pool);
  // Capacity 1 tuple: producers block on almost every frame.
  hyracks::Exchange* ex = job.AddExchange(kProducers, 1, /*queue_capacity=*/1);
  for (size_t p = 0; p < kProducers; p++) {
    job.AddProducerTask([ex, p] {
      std::vector<hyracks::Tuple> rows;
      for (int i = 0; i < kPerProducer; i++) {
        rows.push_back(hyracks::Tuple({Value::Int(static_cast<int64_t>(p))}));
      }
      hyracks::VectorSource src(std::move(rows));
      return ex->RunProducer(&src, hyracks::Exchange::SingleRoute());
    });
  }
  std::vector<hyracks::StreamPtr> roots;
  roots.push_back(ex->ConsumerStream(0));
  auto r = job.RunCollect(std::move(roots));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)[0].size(), kProducers * kPerProducer);
  EXPECT_GE(ThreadsStarted() - threads0, kProducers);
}

TEST(WorkerPool, DestructorJoinsParkedWorkers) {
  const size_t before = LiveThreads();
  {
    WorkerPool pool;
    TaskGroup group(&pool);
    for (int i = 0; i < 4; i++) {
      group.Spawn(
          [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
    }
    group.Wait();
    EXPECT_GE(LiveThreads(), before + 1);
  }
  // A thread join has returned for can stay listed in /proc/self/task for a
  // moment: wait, bounded, for the count to drop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  size_t after = LiveThreads();
  while (after > before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = LiveThreads();
  }
  EXPECT_EQ(after, before);
}

// ---------------------------------------------------------------------------
// Queries on an Instance
// ---------------------------------------------------------------------------

class PoolInstanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  void Open(size_t partitions) {
    dir_ = ::testing::TempDir() + "axpool_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = partitions;
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_->ExecuteScript(gleambook::Generator::Ddl(true)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 200;
    gen_opts.num_messages = 1000;
    gleambook::Generator gen(gen_opts);
    for (const auto& u : gen.Users()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookUsers", u).ok());
    }
    for (const auto& m : gen.Messages()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookMessages", m).ok());
    }
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(PoolInstanceTest, PkLookupsStartNoThreadsAndSubmitNoTasks) {
  ASSERT_NO_FATAL_FAILURE(Open(4));
  auto pk = [&](int64_t id) {
    return instance_->Execute(
        "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = " +
        std::to_string(id));
  };
  ASSERT_TRUE(pk(0).ok());  // warm-up
  const uint64_t tasks0 = Tasks(), threads0 = ThreadsStarted();
  for (int64_t i = 0; i < 1000; i++) {
    auto r = pk(i % 1100);  // ids >= 1000 are misses
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), i % 1100 < 1000 ? 1u : 0u) << i;
  }
  EXPECT_EQ(Tasks(), tasks0);
  EXPECT_EQ(ThreadsStarted(), threads0);
}

TEST_F(PoolInstanceTest, SecondaryLookupsReuseParkedWorkers) {
  ASSERT_NO_FATAL_FAILURE(Open(2));
  auto secondary = [&](int64_t author) {
    return instance_->Execute(
        "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = " +
        std::to_string(author));
  };
  ASSERT_TRUE(secondary(0).ok());  // warm-up: root 1 starts one worker
  const uint64_t tasks0 = Tasks(), threads0 = ThreadsStarted();
  for (int64_t i = 0; i < 100; i++) {
    auto r = secondary(i % 200);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(ThreadsStarted(), threads0);
  // Root 0 runs on the caller; root 1 is the only pool task per statement.
  EXPECT_EQ(Tasks(), tasks0 + 100);
}

TEST_F(PoolInstanceTest, DestroyingInstanceJoinsEveryThread) {
  const size_t before = LiveThreads();
  const uint64_t threads0 = ThreadsStarted();
  ASSERT_NO_FATAL_FAILURE(Open(4));
  auto r = instance_->Execute(
      "SELECT u.id AS uid, COUNT(m.messageId) AS cnt FROM GleambookUsers u "
      "JOIN GleambookMessages m ON m.authorId = u.id "
      "GROUP BY u.id AS uid ORDER BY cnt DESC, uid LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(ThreadsStarted(), threads0);
  instance_.reset();
  EXPECT_EQ(LiveThreads(), before);
}

std::vector<Value> Canon(std::vector<Value> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

TEST_F(PoolInstanceTest, ConcurrentQueriesWithCancelAndDeadlines) {
  ASSERT_NO_FATAL_FAILURE(Open(4));
  const std::vector<std::string> queries = {
      "SELECT u.id AS uid, COUNT(m.messageId) AS cnt FROM GleambookUsers u "
      "JOIN GleambookMessages m ON m.authorId = u.id GROUP BY u.id AS uid",
      "SELECT g AS author, COUNT(*) AS n FROM GleambookMessages m "
      "GROUP BY m.authorId AS g",
      "SELECT VALUE m.messageId FROM GleambookMessages m "
      "ORDER BY m.authorId, m.messageId LIMIT 20",
      "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = 417",
      "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = 17",
  };
  std::vector<std::vector<Value>> want;
  for (const auto& q : queries) {
    auto r = instance_->Execute(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    ASSERT_FALSE(r->rows.empty()) << q;
    want.push_back(r->rows);
  }
  const int kClients = 16, kIters = 12;
  std::atomic<int> running{kClients};
  std::atomic<int> ok{0}, stopped{0}, wrong{0};
  std::thread canceller([&] {
    Rng rng(7);
    while (running.load() > 0) {
      (void)instance_->CancelQuery("c" + std::to_string(rng.Uniform(kClients)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int i = 0; i < kIters; i++) {
        size_t q = rng.Uniform(queries.size());
        QueryRunOptions run;
        run.client_context_id = "c" + std::to_string(c);
        if (rng.Uniform(3) == 0) run.deadline_ms = 1;
        auto r = instance_->Query(queries[q], run);
        if (r.ok()) {
          // Query 2 has a total ORDER BY; the others compare as multisets.
          bool same = q == 2 ? r->rows == want[q]
                             : Canon(r->rows) == Canon(want[q]);
          if (!same) wrong++;
          ok++;
        } else if (r.status().IsCancelled() || r.status().IsDeadlineExceeded()) {
          stopped++;
        } else {
          ADD_FAILURE() << queries[q] << ": " << r.status().ToString();
        }
      }
      running--;
    });
  }
  for (auto& t : clients) t.join();
  canceller.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok.load() + stopped.load(), kClients * kIters);
  EXPECT_GT(ok.load(), 0);
}

}  // namespace
}  // namespace asterix
