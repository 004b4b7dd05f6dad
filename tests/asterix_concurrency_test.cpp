// Concurrency tests: concurrent writers, readers during writes, and the
// record-level locking semantics the paper's item 9 promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>
#include <tuple>

#include "asterix/feed_manager.h"
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

// DDL under load. One thread creates and drops a B-tree, an R-tree and a
// keyword index on D and drops and re-creates dataset E, while SQL++
// queries (scan, index, pk, join), SQL++ UPSERT/DELETE, the direct API and
// a connected feed run against both. Every operation answers OK or
// NotFound (E may be gone), never crashes or reports another error; after
// the load stops, each index answers like a full scan.
TEST_F(ConcurrencyTest, DdlUnderLoad) {
  auto rec = [](int id, int x) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("v", Value::Int(x % 10))
        .Add("w", Value::Int(x % 7))
        .Add("loc", Value::MakePoint(x % 10, x % 10))
        .Add("s", Value::String("x"))
        .Add("msg", Value::String("t" + std::to_string(x % 5) + " common"))
        .Build();
  };
  auto sql_rec = [](int id, int x) {
    return "{\"id\": " + std::to_string(id) + ", \"v\": " +
           std::to_string(x % 10) + ", \"w\": " + std::to_string(x % 7) +
           ", \"loc\": create_point(" + std::to_string(x % 10) + ".0, " +
           std::to_string(x % 10) + ".0), \"s\": \"x\", \"msg\": \"t" +
           std::to_string(x % 5) + " common\"}";
  };
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(instance_->UpsertValue("D", rec(i, i)).ok());
  }
  ASSERT_TRUE(instance_->Execute("CREATE DATASET E(T) PRIMARY KEY id").ok());
  ASSERT_TRUE(instance_->Execute("CREATE FEED f USING channel").ok());
  ASSERT_TRUE(instance_->Execute("CONNECT FEED f TO DATASET D").ok());
  feeds::ChannelAdapter* channel = instance_->feeds()->channel("f");
  ASSERT_NE(channel, nullptr);

  std::mutex errors_mu;
  std::vector<std::string> errors;
  auto check = [&](const Status& st, const std::string& what) {
    if (st.ok() || st.IsNotFound()) return;
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(what + ": " + st.ToString());
  };
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // DDL
    const char* cycle[] = {
        "CREATE INDEX bIdx ON D (w) TYPE BTREE",
        "CREATE INDEX rIdx ON D (loc) TYPE RTREE",
        "DROP DATASET E",
        "CREATE INDEX kIdx ON D (msg) TYPE KEYWORD",
        "CREATE DATASET E(T) PRIMARY KEY id",
        "DROP INDEX D.bIdx",
        "DROP INDEX D.rIdx",
        "DROP INDEX D.kIdx",
    };
    for (int round = 0; round < 15; round++) {
      for (const char* stmt : cycle) {
        auto r = instance_->Execute(stmt);
        if (!r.ok()) check(Status::Internal(r.status().ToString()), stmt);
      }
    }
    done = true;
  });
  threads.emplace_back([&] {  // SQL++ queries
    const std::string queries[] = {
        "SELECT COUNT(*) AS n FROM D d",
        "SELECT COUNT(*) AS n FROM D d WHERE d.v = 3",
        "SELECT COUNT(*) AS n FROM D d WHERE d.w = 4",
        "SELECT COUNT(*) AS n FROM D d WHERE spatial_intersect(d.loc, "
        "create_rectangle(create_point(0.0, 0.0), create_point(2.0, 2.0)))",
        "SELECT COUNT(*) AS n FROM D d WHERE ftcontains(d.msg, \"t2\")",
        "SELECT VALUE d FROM D d WHERE d.id = 17",
        "SELECT COUNT(*) AS n FROM D d, E e WHERE d.id = e.id",
        "SELECT COUNT(*) AS n FROM E e",
    };
    for (size_t i = 0; !done; i++) {
      const std::string& q = queries[i % std::size(queries)];
      check(instance_->Execute(q).status(), q);
    }
  });
  threads.emplace_back([&] {  // SQL++ DML
    Rng rng(7);
    for (int i = 0; !done; i++) {
      int id = static_cast<int>(rng.Uniform(100));
      const char* ds = i % 2 == 0 ? "D" : "E";
      std::string stmt =
          i % 4 < 2 ? std::string("UPSERT INTO ") + ds + " (" +
                          sql_rec(id, i) + ")"
                    : std::string("DELETE FROM ") + ds +
                          " x WHERE x.id = " + std::to_string(id);
      check(instance_->Execute(stmt).status(), stmt);
    }
  });
  threads.emplace_back([&] {  // direct API
    Rng rng(11);
    for (int i = 0; !done; i++) {
      int id = 100 + static_cast<int>(rng.Uniform(100));
      const std::string ds = i % 3 == 0 ? "E" : "D";
      Value out;
      switch (i % 4) {
        case 0:
        case 1:
          check(instance_->UpsertValue(ds, rec(id, i)), "upsert " + ds);
          break;
        case 2:
          check(instance_->GetByKey(ds, Value::Int(id), &out).status(),
                "get " + ds);
          break;
        default:
          check(instance_->DeleteByKey(ds, Value::Int(id)).status(),
                "delete " + ds);
      }
    }
  });
  // The feed writes keys no other writer touches.
  uint64_t pushed = 0;
  for (int i = 0; !done && i < 3000; i++) {
    channel->Push(rec(1000 + i % 500, i));
    pushed++;
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  channel->CloseChannel();
  feeds::FeedRuntime* rt = instance_->feeds()->runtime("f");
  ASSERT_NE(rt, nullptr);
  ASSERT_TRUE(rt->WaitForCompletion().ok());
  EXPECT_TRUE(rt->error().ok()) << rt->error().ToString();
  EXPECT_EQ(rt->records_applied(), pushed);
  for (const auto& e : errors) ADD_FAILURE() << e;

  // Quiesced: with every index in place, each probed value has the same
  // answer through its index as through a scan.
  ASSERT_TRUE(instance_
                  ->ExecuteScript(
                      "CREATE INDEX bIdx ON D (w) TYPE BTREE;"
                      "CREATE INDEX rIdx ON D (loc) TYPE RTREE;"
                      "CREATE INDEX kIdx ON D (msg) TYPE KEYWORD")
                  .ok());
  algebricks::OptimizerOptions scan_only;
  scan_only.index_selection = false;
  std::vector<std::pair<std::string, std::string>> probes;
  for (int x = 0; x < 10; x++) {
    const std::string xs = std::to_string(x);
    probes.emplace_back("SELECT COUNT(*) AS n FROM D d WHERE d.v = " + xs,
                        "btree-search");
    if (x < 7) {
      probes.emplace_back("SELECT COUNT(*) AS n FROM D d WHERE d.w = " + xs,
                          "btree-search");
    }
    if (x < 5) {
      probes.emplace_back(
          "SELECT COUNT(*) AS n FROM D d WHERE ftcontains(d.msg, \"t" + xs +
              "\")",
          "keyword-search");
    }
    probes.emplace_back(
        "SELECT COUNT(*) AS n FROM D d WHERE spatial_intersect(d.loc, "
        "create_rectangle(create_point(" + xs + ".0, " + xs +
            ".0), create_point(" + xs + ".5, " + xs + ".5)))",
        "rtree-search");
  }
  for (const auto& [q, path] : probes) {
    auto indexed = instance_->Execute(q);
    ASSERT_TRUE(indexed.ok()) << q << ": " << indexed.status().ToString();
    EXPECT_NE(indexed->plan.find(path), std::string::npos) << q;
    auto scanned = instance_->QueryWithOptions(q, scan_only);
    ASSERT_TRUE(scanned.ok()) << q << ": " << scanned.status().ToString();
    EXPECT_EQ(indexed->rows[0].GetField("n").AsInt(),
              scanned->rows[0].GetField("n").AsInt())
        << q;
  }
}

// Two CREATE INDEX statements on one dataset at once, while writers run.
// Each index must end up with every record: the second build's backfill
// must not run while writers are let in by the first build's end.
TEST_F(ConcurrencyTest, ConcurrentIndexBuildsUnderWrites) {
  auto rec = [](int id, int x) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("v", Value::Int(x % 10))
        .Add("a", Value::Int(x % 7))
        .Add("b", Value::Int(x % 5))
        .Add("s", Value::String("x"))
        .Build();
  };
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(instance_->UpsertValue("D", rec(i, i)).ok());
  }
  algebricks::OptimizerOptions scan_only;
  scan_only.index_selection = false;
  for (int round = 0; round < 6; round++) {
    std::atomic<bool> done{false};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; w++) {
      threads.emplace_back([&, w] {
        Rng rng(round * 2 + w + 1);
        for (int i = 0; !done; i++) {
          int id = static_cast<int>(rng.Uniform(300));
          ASSERT_TRUE(instance_->UpsertValue("D", rec(id, i + w)).ok());
        }
      });
    }
    std::vector<std::thread> ddl;
    for (const char* stmt : {"CREATE INDEX aIdx ON D (a) TYPE BTREE",
                             "CREATE INDEX bIdx ON D (b) TYPE BTREE"}) {
      ddl.emplace_back([&, stmt] {
        ready++;
        while (ready < 2) std::this_thread::yield();
        auto r = instance_->Execute(stmt);
        EXPECT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
      });
    }
    for (auto& t : ddl) t.join();
    done = true;
    for (auto& t : threads) t.join();

    for (const auto& [field, values, index] :
         {std::tuple<std::string, int, std::string>{"a", 7, "aIdx"},
          {"b", 5, "bIdx"}}) {
      for (int x = 0; x < values; x++) {
        const std::string q = "SELECT COUNT(*) AS n FROM D d WHERE d." +
                              field + " = " + std::to_string(x);
        auto indexed = instance_->Execute(q);
        ASSERT_TRUE(indexed.ok()) << q << ": " << indexed.status().ToString();
        EXPECT_NE(indexed->plan.find(index), std::string::npos) << q;
        auto scanned = instance_->QueryWithOptions(q, scan_only);
        ASSERT_TRUE(scanned.ok()) << q << ": " << scanned.status().ToString();
        EXPECT_EQ(indexed->rows[0].GetField("n").AsInt(),
                  scanned->rows[0].GetField("n").AsInt())
            << "round " << round << ": " << q;
      }
    }
    ASSERT_TRUE(
        instance_->ExecuteScript("DROP INDEX D.aIdx; DROP INDEX D.bIdx").ok());
  }
}

}  // namespace
}  // namespace asterix
