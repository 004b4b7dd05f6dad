// Tests for asynchronous LSM maintenance: the shared MaintenanceScheduler
// (graceful drain, batch fan-out, error propagation), background flushes
// and merges with concurrent readers (get/scan parity, snapshot
// stability), write-stall backpressure, drain-on-close, torn-flush
// recovery through the Instance's WAL replay, and the checkpoint fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "adm/key_encoder.h"
#include "asterix/instance.h"
#include "common/io.h"
#include "storage/lsm_btree.h"
#include "storage/lsm_rtree.h"
#include "storage/maintenance.h"

namespace asterix::storage {
namespace {

std::string IntKey(int64_t v) {
  return adm::EncodeKey(adm::Value::Int(v)).value();
}

// ---- scheduler ------------------------------------------------------------

TEST(MaintenanceSchedulerTest, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  MaintenanceScheduler sched(3);
  EXPECT_EQ(sched.worker_count(), 3u);
  for (int i = 0; i < 100; i++) {
    sched.Submit([&] { ran.fetch_add(1); });
  }
  sched.Drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(MaintenanceSchedulerTest, DestructorDrainsQueuedTasks) {
  // Graceful drain: destroying the scheduler must run every queued task
  // first — trees rely on this so a queued flush never vanishes.
  std::atomic<int> ran{0};
  {
    MaintenanceScheduler sched(1);
    for (int i = 0; i < 50; i++) {
      sched.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(MaintenanceSchedulerTest, RunBatchPropagatesFirstError) {
  MaintenanceScheduler sched(2);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> jobs;
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::IOError("boom");
  });
  jobs.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  Status s = sched.RunBatch(std::move(jobs));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  EXPECT_EQ(ran.load(), 3);  // an error does not cancel the other jobs
}

// ---- LSM B+tree under background maintenance ------------------------------

class MaintenanceLsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmaint_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmOptions Options(MaintenanceScheduler* sched,
                     size_t mem_budget = 1 << 14) {
    LsmOptions o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = mem_budget;
    o.scheduler = sched;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(MaintenanceLsmTest, ConcurrentReadersDuringBackgroundFlush) {
  MaintenanceScheduler sched(2);
  auto tree = LsmBTree::Open(Options(&sched)).value();
  const int kN = 3000;
  std::atomic<int> written{0};
  std::atomic<bool> failed{false};

  // Readers chase the writer: every key at index < written must be
  // visible with its final value, whether it lives in the mutable
  // component, a pending immutable, or an already-flushed component.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      std::string v;
      while (written.load() < kN && !failed.load()) {
        int upto = written.load();
        if (upto == 0) continue;
        int key = upto / 2;
        auto got = tree->Get(IntKey(key), &v);
        if (!got.ok() || !got.value() || v != "v" + std::to_string(key)) {
          failed.store(true);
        }
      }
    });
  }
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "v" + std::to_string(i)).ok());
    written.store(i + 1);
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().flushes, 0u);
  EXPECT_EQ(tree->stats().pending_immutables, 0u);
  std::string v;
  for (int i = 0; i < kN; i++) {
    ASSERT_TRUE(tree->Get(IntKey(i), &v).value()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
}

TEST_F(MaintenanceLsmTest, SnapshotStableAcrossFlushAndMerge) {
  MaintenanceScheduler sched(2);
  auto tree = LsmBTree::Open(Options(&sched)).value();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "old").ok());
  }
  ASSERT_TRUE(tree->Flush().ok());

  // Open the iterators first; everything after must be invisible to them.
  // `mid` is already part-way through its walk when the merge retires the
  // components it reads.
  auto it = tree->NewIterator().value();
  auto mid = tree->NewIterator().value();
  ASSERT_TRUE(mid.SeekToFirst().ok());
  for (int i = 0; i < 100; i++) ASSERT_TRUE(mid.Next().ok());
  for (int i = 200; i < 400; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "new").ok());
  }
  ASSERT_TRUE(tree->Put(IntKey(0), "overwritten").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  EXPECT_EQ(tree->stats().disk_components, 1u);

  size_t n = 0;
  ASSERT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    EXPECT_EQ(it.value(), "old");  // pre-merge, pre-overwrite contents
    n++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(n, 200u);
  for (int i = 100; i < 200; i++) {
    ASSERT_TRUE(mid.Valid()) << i;
    EXPECT_EQ(mid.key(), IntKey(i));
    EXPECT_EQ(mid.value(), "old");
    ASSERT_TRUE(mid.Next().ok());
  }
  EXPECT_FALSE(mid.Valid());

  // Fresh reads see the post-merge state.
  std::string v;
  ASSERT_TRUE(tree->Get(IntKey(0), &v).value());
  EXPECT_EQ(v, "overwritten");
  ASSERT_TRUE(tree->Get(IntKey(399), &v).value());
  EXPECT_EQ(v, "new");
}

TEST_F(MaintenanceLsmTest, GetScanParityDuringBackgroundMerges) {
  MaintenanceScheduler sched(2);
  LsmOptions o = Options(&sched, 1 << 13);
  o.merge_policy = {MergePolicyKind::kConstant, 3, 0};
  auto tree = LsmBTree::Open(o).value();

  std::map<std::string, std::string> model;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // A reader hammers point lookups on a fixed key that is overwritten
  // throughout: it must always see *some* committed value for it.
  std::thread reader([&] {
    std::string v;
    while (!stop.load()) {
      auto got = tree->Get(IntKey(7), &v);
      if (!got.ok() || (got.value() && v.rfind("x", 0) != 0)) {
        failed.store(true);
        return;
      }
    }
  });
  for (int i = 0; i < 4000; i++) {
    std::string key = IntKey(i % 500);
    if (i % 7 == 3) {
      ASSERT_TRUE(tree->Delete(key).ok());
      model.erase(key);
    } else {
      std::string val = "x" + std::to_string(i);
      ASSERT_TRUE(tree->Put(key, val).ok());
      model[key] = val;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(failed.load());

  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  // Scan parity with the model after merges settled.
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  size_t n = 0;
  while (it.Valid()) {
    auto m = model.find(it.key());
    ASSERT_NE(m, model.end());
    EXPECT_EQ(it.value(), m->second);
    n++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(n, model.size());
}

TEST_F(MaintenanceLsmTest, BackpressureStallsWriterAtBound) {
  // One worker, blocked by a long sleeper: flushes queue behind it, so the
  // writer must hit the max_pending_immutables bound and stall (counted in
  // stats + metrics) instead of buffering unboundedly.
  MaintenanceScheduler sched(1);
  std::atomic<bool> release{false};
  sched.Submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  LsmOptions o = Options(&sched, 1 << 12);
  o.max_pending_immutables = 1;
  auto tree = LsmBTree::Open(o).value();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release.store(true);
  });
  std::string pad(128, 'p');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), pad).ok());
  }
  releaser.join();
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().write_stalls, 0u);
  std::string v;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree->Get(IntKey(i), &v).value()) << i;
  }
}

TEST_F(MaintenanceLsmTest, DrainOnCloseCompletesInflightFlushes) {
  MaintenanceScheduler sched(2);
  size_t flushes = 0;
  std::string pad(64, 'q');
  {
    auto tree = LsmBTree::Open(Options(&sched, 1 << 12)).value();
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), pad).ok());
    }
    flushes = tree->stats().flushes + tree->stats().pending_immutables;
    // Destructor: waits for in-flight background work; queued-but-unrun
    // flushes still run (scheduler holds no dangling tree pointer after).
  }
  EXPECT_GT(flushes, 0u);  // the budget was crossed before close
  // Reopen without a scheduler: every component on disk must be complete
  // (a torn file would have been dropped and changed the count).
  auto tree = LsmBTree::Open(Options(nullptr)).value();
  EXPECT_GE(tree->stats().disk_components, 1u);
  std::string v;
  // Whatever was flushed must read back intact.
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    EXPECT_EQ(it.value(), pad);
    ASSERT_TRUE(it.Next().ok());
  }
}

// ---- LSM R-tree under background maintenance ------------------------------

TEST_F(MaintenanceLsmTest, RTreeBackgroundFlushQueryParity) {
  MaintenanceScheduler sched(2);
  LsmTreeOptions o;
  o.dir = dir_;
  o.name = "rt";
  o.cache = cache_.get();
  o.mem_budget_bytes = 1 << 12;
  o.scheduler = &sched;
  auto tree = LsmRTree::Open(o).value();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    adm::Rectangle q{{0, 0}, {1000, 1000}};
    while (!stop.load()) {
      if (!tree->Query(q).ok()) failed.store(true);
    }
  });
  std::set<std::string> expect;
  Status write_status;
  for (int i = 0; i < 800 && write_status.ok(); i++) {
    double x = (i * 13) % 900, y = (i * 29) % 900;
    adm::Rectangle r{{x, y}, {x, y}};  // point entries
    write_status = tree->Insert(r, "p" + std::to_string(i));
    if (!write_status.ok()) break;
    if (i % 5 == 2) {
      write_status = tree->Remove(r, "p" + std::to_string(i));
    } else {
      expect.insert("p" + std::to_string(i));
    }
  }
  stop.store(true);
  reader.join();
  ASSERT_TRUE(write_status.ok()) << write_status.message();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_GT(tree->stats().flushes, 0u);

  auto entries = tree->Query({{0, 0}, {1000, 1000}}).value();
  std::set<std::string> got;
  for (auto& e : entries) got.insert(e.payload);
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace asterix::storage

// ---- Instance-level: torn flush + WAL replay, checkpoint fan-out ----------

namespace asterix {
namespace {

using adm::Value;

class MaintenanceInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmainti_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // The small default budget forces flushes during ingest.
  std::unique_ptr<Instance> OpenInstance(size_t mem_budget = 1 << 14) {
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    opts.lsm_mem_budget_bytes = mem_budget;
    auto inst = Instance::Open(opts).value();
    return inst;
  }
  Value Rec(int id) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("s", Value::String(std::string(60, 'x')))
        .Build();
  }
  std::string dir_;
};

TEST_F(MaintenanceInstanceTest, TornBackgroundFlushRecoversFromWal) {
  {
    auto inst = OpenInstance();
    ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                    "CREATE DATASET D(T) PRIMARY KEY id")
                    .ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(inst->UpsertValue("D", Rec(i)).ok());
    }
    // No Checkpoint: the WAL still covers every row. Close gracefully
    // (drains background flushes, drops unflushed memory components).
  }
  // Simulate a crash that tore the newest background flush: remove one
  // component's Bloom commit-point file, leaving a data file without it.
  std::vector<std::filesystem::path> blooms;
  for (auto& p : std::filesystem::recursive_directory_iterator(dir_)) {
    if (p.path().extension() == ".bloom") blooms.push_back(p.path());
  }
  ASSERT_FALSE(blooms.empty()) << "ingest produced no flushed components";
  std::filesystem::remove(blooms.back());

  // Reopen: Open() must drop the torn component and WAL replay must
  // restore its rows — every record is still visible.
  auto inst = OpenInstance();
  Value rec;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(inst->GetByKey("D", Value::Int(i), &rec).value()) << i;
  }
}

TEST_F(MaintenanceInstanceTest, CheckpointFansOutAcrossPartitions) {
  auto inst = OpenInstance();
  ASSERT_NE(inst->maintenance(), nullptr);  // async is the default
  ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                  "CREATE DATASET D(T) PRIMARY KEY id;"
                                  "CREATE DATASET E(T) PRIMARY KEY id")
                  .ok());
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(inst->UpsertValue("D", Rec(i)).ok());
    ASSERT_TRUE(inst->UpsertValue("E", Rec(i)).ok());
  }
  ASSERT_TRUE(inst->Checkpoint().ok());
  // After the fan-out checkpoint nothing is left in memory components.
  auto stats = inst->DatasetStats("D").value();
  EXPECT_EQ(stats.mem_entries, 0u);
  // A second checkpoint over empty trees is a no-op but must still work.
  ASSERT_TRUE(inst->Checkpoint().ok());
  inst.reset();

  auto reopened = OpenInstance();
  Value rec;
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(reopened->GetByKey("D", Value::Int(i), &rec).value()) << i;
    ASSERT_TRUE(reopened->GetByKey("E", Value::Int(i), &rec).value()) << i;
  }
}

TEST_F(MaintenanceInstanceTest, ConcurrentWritersWithCheckpoints) {
  // Checkpoint's RunBatch fans out on the same pool the trees use for
  // background flushes; interleaving it with writers must not deadlock
  // (the cooperative-drain design). Every acknowledged write must survive
  // a crash right after the checkpoints: a record logged between a
  // partition's flush and the WAL truncate would otherwise be dropped from
  // the log while it is still only in memory. The large budget keeps such
  // records in memory until the crash.
  auto inst = OpenInstance(256 << 10);
  ASSERT_TRUE(inst->ExecuteScript("CREATE TYPE T AS { id: int, s: string };"
                                  "CREATE DATASET D(T) PRIMARY KEY id")
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  int acked[3] = {0, 0, 0};  // writer t's acknowledged records
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; !stop.load(); i++) {
        if (!inst->UpsertValue("D", Rec(t * 1000000 + i)).ok()) {
          failed.store(true);
          return;
        }
        acked[t] = i + 1;
      }
    });
  }
  Status checkpointed;
  for (int c = 0; c < 5 && checkpointed.ok(); c++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    checkpointed = inst->Checkpoint();
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.message();
  EXPECT_FALSE(failed.load());
  inst.reset();  // drops the memory components: only the WAL has them

  auto reopened = OpenInstance(256 << 10);
  Value rec;
  for (int t = 0; t < 3; t++) {
    EXPECT_GT(acked[t], 0);
    for (int i = 0; i < acked[t]; i++) {
      ASSERT_TRUE(
          reopened->GetByKey("D", Value::Int(t * 1000000 + i), &rec).value())
          << "writer " << t << " record " << i << " of " << acked[t];
    }
  }
}

}  // namespace
}  // namespace asterix
