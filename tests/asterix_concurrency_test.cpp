// Concurrency tests: concurrent writers, readers during writes, and the
// record-level locking semantics the paper's item 9 promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "asterix/instance.h"
#include "common/rng.h"

namespace asterix {
namespace {

using adm::Value;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axcc_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    opts.lsm_mem_budget_bytes = 1 << 16;  // force flushes under load
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_
                    ->ExecuteScript(
                        "CREATE TYPE T AS { id: int, v: int, s: string };"
                        "CREATE DATASET D(T) PRIMARY KEY id;"
                        "CREATE INDEX vIdx ON D (v) TYPE BTREE")
                    .ok());
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  Value Rec(int id, int v) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("v", Value::Int(v))
        .Add("s", Value::String(std::string(50, 'x')))
        .Build();
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ConcurrencyTest, ParallelWritersDisjointKeys) {
  const int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        int id = t * kPerThread + i;
        if (!instance_->UpsertValue("D", Rec(id, id % 10)).ok()) failed = true;
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_FALSE(failed.load());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kThreads * kPerThread);
  // Secondary index consistent with the data.
  r = instance_->Execute("SELECT COUNT(*) AS n FROM D d WHERE d.v = 3").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kThreads * kPerThread / 10);
}

TEST_F(ConcurrencyTest, ContendedUpsertsOnSameKeys) {
  // All threads hammer the same small key range; locking must keep the
  // primary and secondary indexes mutually consistent.
  const int kThreads = 4, kOps = 800, kKeys = 20;
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOps; i++) {
        int id = static_cast<int>(rng.Uniform(kKeys));
        if (!instance_->UpsertValue("D", Rec(id, static_cast<int>(rng.Uniform(5))))
                 .ok()) {
          failed = true;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_FALSE(failed.load());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), kKeys);
  // Each key appears exactly once in the secondary index (no stale entries
  // from racing updates).
  int64_t total = 0;
  for (int v = 0; v < 5; v++) {
    auto rv = instance_
                  ->Execute("SELECT COUNT(*) AS n FROM D d WHERE d.v = " +
                            std::to_string(v))
                  .value();
    total += rv.rows[0].GetField("n").AsInt();
  }
  EXPECT_EQ(total, kKeys);
}

// SQL++ DELETE takes the same pk lock as UpsertValue, so deletes by pk,
// by the indexed field and by pk range may race upserts of the same keys.
// Afterwards the B-tree index and a full scan answer alike for every
// indexed value.
TEST_F(ConcurrencyTest, SqlDeletesRaceUpsertsOnSameKeys) {
  const int kKeys = 40, kValues = 5;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 600; i++) {
        int id = static_cast<int>(rng.Uniform(kKeys));
        int v = static_cast<int>(rng.Uniform(kValues));
        if (!instance_->UpsertValue("D", Rec(id, v)).ok()) failed = true;
      }
    });
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 101);
      for (int i = 0; i < 120; i++) {
        std::string k = std::to_string(rng.Uniform(kKeys));
        std::string stmt =
            i % 3 == 0   ? "DELETE FROM D d WHERE d.id = " + k
            : i % 3 == 1 ? "DELETE FROM D d WHERE d.v = " +
                               std::to_string(rng.Uniform(kValues))
                         : "DELETE FROM D d WHERE d.id >= " + k +
                               " AND d.id < " + k + " + 3";
        auto r = instance_->Execute(stmt);
        if (!r.ok()) {
          ADD_FAILURE() << stmt << ": " << r.status().ToString();
          failed = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());
  algebricks::OptimizerOptions scan_only;
  scan_only.index_selection = false;
  auto sorted = [](std::vector<Value> rows) {
    std::sort(rows.begin(), rows.end(), [](const Value& a, const Value& b) {
      return a.Compare(b) < 0;
    });
    return rows;
  };
  int64_t indexed_total = 0;
  for (int v = 0; v < kValues; v++) {
    std::string q =
        "SELECT VALUE d.id FROM D d WHERE d.v = " + std::to_string(v);
    auto indexed = instance_->Execute(q);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    ASSERT_NE(indexed->plan.find("btree-search"), std::string::npos);
    auto scanned = instance_->QueryWithOptions(q, scan_only);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    EXPECT_EQ(sorted(indexed->rows), sorted(scanned->rows)) << q;
    indexed_total += static_cast<int64_t>(indexed->rows.size());
  }
  auto n = instance_->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(n.rows[0].GetField("n").AsInt(), indexed_total);
}

TEST_F(ConcurrencyTest, ReadersDuringWrites) {
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    int id = 0;
    while (!stop.load()) {
      if (!instance_->UpsertValue("D", Rec(id++ % 5000, 7)).ok()) failed = true;
    }
  });
  // Queries run against consistent snapshots while writes stream in.
  for (int q = 0; q < 30; q++) {
    auto r = instance_->Execute(
        "SELECT COUNT(*) AS n, COUNT(d.v) AS nv FROM D d");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Exactly one row even when the query wins the race against the
    // writer's first upsert (global aggregate over an empty dataset).
    ASSERT_EQ(r->rows.size(), 1u);
    // Internal consistency: every record has a v.
    EXPECT_EQ(r->rows[0].GetField("n").AsInt(),
              r->rows[0].GetField("nv").AsInt());
  }
  stop = true;
  writer.join();
  ASSERT_FALSE(failed.load());
}

TEST_F(ConcurrencyTest, GetSeesLatestCommittedWrite) {
  ASSERT_TRUE(instance_->UpsertValue("D", Rec(1, 100)).ok());
  std::thread t1([&] {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(instance_->UpsertValue("D", Rec(1, i)).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 500; i++) {
      adm::Value rec;
      auto found = instance_->GetByKey("D", Value::Int(1), &rec);
      ASSERT_TRUE(found.ok());
      ASSERT_TRUE(found.value());
      // Record is always a complete, internally consistent object.
      ASSERT_TRUE(rec.GetField("v").is_int());
      ASSERT_EQ(rec.GetField("s").AsString().size(), 50u);
    }
  });
  t1.join();
  t2.join();
}

}  // namespace
}  // namespace asterix
