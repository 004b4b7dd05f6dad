// Tests for the transaction substrate: WAL append/replay/truncate,
// torn-tail tolerance, lock manager semantics, inverted index.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/metrics.h"
#include "storage/lsm_inverted.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"

namespace asterix::txn {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axtxn_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(TxnTest, LogAppendAndReplay) {
  auto log = LogManager::Open(dir_ + "/wal", SyncMode::kNoSync).value();
  LogRecord r1{LogRecordType::kUpsert, 7, 0, "k1", "v1"};
  LogRecord r2{LogRecordType::kDelete, 7, 1, "k2", ""};
  uint64_t lsn1 = log->Append(r1).value();
  uint64_t lsn2 = log->Append(r2).value();
  EXPECT_LT(lsn1, lsn2);

  std::vector<LogRecord> seen;
  ASSERT_TRUE(log->Replay([&](const LogRecord& r) {
                   seen.push_back(r);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].dataset_id, 7u);
  EXPECT_EQ(seen[0].key, "k1");
  EXPECT_EQ(seen[0].value, "v1");
  EXPECT_EQ(seen[1].type, LogRecordType::kDelete);
  EXPECT_EQ(seen[1].partition, 1u);
}

TEST_F(TxnTest, LogSurvivesReopen) {
  {
    auto log = LogManager::Open(dir_ + "/wal", SyncMode::kSync).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k", "v"}).value();
  }
  auto log = LogManager::Open(dir_ + "/wal", SyncMode::kSync).value();
  int count = 0;
  ASSERT_TRUE(log->Replay([&](const LogRecord&) {
                   count++;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1);
  // New appends land after the recovered tail.
  uint64_t lsn =
      log->Append({LogRecordType::kUpsert, 1, 0, "k2", "v2"}).value();
  EXPECT_GT(lsn, 0u);
}

TEST_F(TxnTest, LogToleratesTornTail) {
  std::string path = dir_ + "/wal";
  {
    auto log = LogManager::Open(path, SyncMode::kSync).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k1", "v1"}).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k2", "v2"}).value();
  }
  // Simulate a crash mid-write: append garbage that looks like a header.
  {
    auto f = File::Open(path, true).value();
    std::string junk = "\x40\x00\x00\x00\xde\xad\xbe\xefpartial";
    (void)f->WriteAt(f->size(), junk.size(), junk.data());
  }
  auto log = LogManager::Open(path, SyncMode::kSync).value();
  int count = 0;
  ASSERT_TRUE(log->Replay([&](const LogRecord&) {
                   count++;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 2);  // torn tail ignored
}

TEST_F(TxnTest, LogReportsTornTailInStats) {
  std::string path = dir_ + "/wal";
  uint64_t full_tail;
  {
    auto log = LogManager::Open(path, SyncMode::kSync).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k1", "v1"}).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k2", "v2"}).value();
    (void)log->Append({LogRecordType::kUpsert, 1, 0, "k3", "v3"}).value();
    full_tail = log->tail_lsn();
  }
  // Crash mid-append: chop a few bytes off the last record's body.
  std::filesystem::resize_file(path, full_tail - 3);

  auto* ctr =
      metrics::Registry::Global().GetCounter("txn.wal.torn_tail_records");
  uint64_t before = ctr->value();
  auto log = LogManager::Open(path, SyncMode::kSync).value();
  ReplayStats stats;
  int count = 0;
  ASSERT_TRUE(log->Replay(
                     [&](const LogRecord&) {
                       count++;
                       return Status::OK();
                     },
                     &stats)
                  .ok());
  EXPECT_EQ(count, 2);
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(stats.torn_tail_records, 1u);
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(ctr->value() - before, 1u);

  // An intact log reports a clean tail.
  ReplayStats clean;
  std::string path2 = dir_ + "/wal2";
  auto log2 = LogManager::Open(path2, SyncMode::kSync).value();
  (void)log2->Append({LogRecordType::kUpsert, 1, 0, "k", "v"}).value();
  ASSERT_TRUE(
      log2->Replay([&](const LogRecord&) { return Status::OK(); }, &clean)
          .ok());
  EXPECT_EQ(clean.records_replayed, 1u);
  EXPECT_EQ(clean.torn_tail_records, 0u);
  EXPECT_EQ(clean.torn_tail_bytes, 0u);
}

TEST_F(TxnTest, LogTruncateAfterCheckpoint) {
  auto log = LogManager::Open(dir_ + "/wal", SyncMode::kNoSync).value();
  (void)log->Append({LogRecordType::kUpsert, 1, 0, "k", "v"}).value();
  ASSERT_TRUE(log->Truncate().ok());
  EXPECT_EQ(log->tail_lsn(), 0u);
  int count = 0;
  ASSERT_TRUE(log->Replay([&](const LogRecord&) {
                   count++;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 0);
}

TEST(LockManager, SharedLocksCoexist) {
  LockManager mgr;
  TxnId t1 = mgr.Begin(), t2 = mgr.Begin();
  EXPECT_TRUE(mgr.Lock(t1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(mgr.Lock(t2, "k", LockMode::kShared).ok());
  mgr.ReleaseAll(t1);
  mgr.ReleaseAll(t2);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, ExclusiveBlocksOthers) {
  LockManager mgr(std::chrono::milliseconds(50));
  TxnId t1 = mgr.Begin(), t2 = mgr.Begin();
  EXPECT_TRUE(mgr.Lock(t1, "k", LockMode::kExclusive).ok());
  auto st = mgr.Lock(t2, "k", LockMode::kShared);
  EXPECT_TRUE(st.IsTxnConflict());
  mgr.ReleaseAll(t1);
  EXPECT_TRUE(mgr.Lock(t2, "k", LockMode::kShared).ok());
  mgr.ReleaseAll(t2);
}

TEST(LockManager, ReentrantAndUpgrade) {
  LockManager mgr;
  TxnId t = mgr.Begin();
  EXPECT_TRUE(mgr.Lock(t, "k", LockMode::kShared).ok());
  EXPECT_TRUE(mgr.Lock(t, "k", LockMode::kExclusive).ok());  // upgrade
  EXPECT_TRUE(mgr.Lock(t, "k", LockMode::kExclusive).ok());  // reentrant
  mgr.ReleaseAll(t);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, BlockedWaiterWakesOnRelease) {
  LockManager mgr(std::chrono::milliseconds(2000));
  TxnId t1 = mgr.Begin(), t2 = mgr.Begin();
  ASSERT_TRUE(mgr.Lock(t1, "k", LockMode::kExclusive).ok());
  std::thread waiter([&] {
    EXPECT_TRUE(mgr.Lock(t2, "k", LockMode::kExclusive).ok());
    mgr.ReleaseAll(t2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mgr.ReleaseAll(t1);
  waiter.join();
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, SharedToExclusiveUpgradeUnderContention) {
  LockManager mgr(std::chrono::milliseconds(2000));
  TxnId t1 = mgr.Begin(), t2 = mgr.Begin(), t3 = mgr.Begin();
  ASSERT_TRUE(mgr.Lock(t1, "k", LockMode::kShared).ok());
  ASSERT_TRUE(mgr.Lock(t2, "k", LockMode::kShared).ok());
  ASSERT_TRUE(mgr.Lock(t3, "k", LockMode::kShared).ok());

  // t2 upgrades: must wait for the other sharers, then win.
  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    EXPECT_TRUE(mgr.Lock(t2, "k", LockMode::kExclusive).ok());
    upgraded = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(upgraded.load());  // t1/t3 still share the key

  // A second concurrent upgrader would deadlock against t2 — it must be
  // refused eagerly with TxnConflict, not hang until the timeout.
  auto begin = std::chrono::steady_clock::now();
  auto st = mgr.Lock(t3, "k", LockMode::kExclusive);
  auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_TRUE(st.IsTxnConflict()) << st.ToString();
  EXPECT_LT(waited, std::chrono::milliseconds(500));

  mgr.ReleaseAll(t3);
  EXPECT_FALSE(upgraded.load());  // t1 still shares
  mgr.ReleaseAll(t1);
  upgrader.join();
  EXPECT_TRUE(upgraded.load());

  mgr.ReleaseAll(t2);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, DeadlockByTimeoutReturnsTxnConflict) {
  LockManager mgr(std::chrono::milliseconds(100));
  TxnId t1 = mgr.Begin(), t2 = mgr.Begin();
  ASSERT_TRUE(mgr.Lock(t1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(mgr.Lock(t2, "b", LockMode::kExclusive).ok());
  // t1 -> b and t2 -> a: a cycle neither can break by itself. Both requests
  // must come back as TxnConflict after the timeout instead of hanging.
  Status s1, s2;
  std::thread th1([&] { s1 = mgr.Lock(t1, "b", LockMode::kExclusive); });
  std::thread th2([&] { s2 = mgr.Lock(t2, "a", LockMode::kExclusive); });
  th1.join();
  th2.join();
  EXPECT_TRUE(s1.IsTxnConflict()) << s1.ToString();
  EXPECT_TRUE(s2.IsTxnConflict()) << s2.ToString();
  mgr.ReleaseAll(t1);
  mgr.ReleaseAll(t2);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, ReleaseAllWakesAllBlockedWaiters) {
  LockManager mgr(std::chrono::milliseconds(5000));
  TxnId holder = mgr.Begin();
  const char* keys[] = {"k0", "k1", "k2"};
  for (const char* k : keys) {
    ASSERT_TRUE(mgr.Lock(holder, k, LockMode::kExclusive).ok());
  }
  std::atomic<int> granted{0};
  std::vector<std::thread> waiters;
  for (const char* k : keys) {
    waiters.emplace_back([&, k] {
      TxnId t = mgr.Begin();
      EXPECT_TRUE(mgr.Lock(t, k, LockMode::kExclusive).ok());
      granted++;
      mgr.ReleaseAll(t);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(granted.load(), 0);
  mgr.ReleaseAll(holder);  // one release wakes every blocked waiter
  for (auto& w : waiters) w.join();
  EXPECT_EQ(granted.load(), 3);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, ContendedLockReleaseHammer) {
  // Regression stress for the seed's use-after-free: waiters used to hold a
  // reference into the lock table across the wait while ReleaseAll erased
  // the entry. Many threads hammering few keys maximizes that interleaving
  // (run under -DASTERIX_SANITIZE=thread to make any recurrence fatal).
  LockManager mgr(std::chrono::milliseconds(2000));
  const int kThreads = 8, kOps = 400, kKeys = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&, i] {
      for (int op = 0; op < kOps; op++) {
        TxnId t = mgr.Begin();
        std::string key = "k" + std::to_string((i + op) % kKeys);
        LockMode mode =
            (op % 3 == 0) ? LockMode::kShared : LockMode::kExclusive;
        if (!mgr.Lock(t, key, mode).ok()) failures++;
        mgr.ReleaseAll(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

TEST(LockManager, TxnScopeReleasesOnDestruction) {
  LockManager mgr(std::chrono::milliseconds(50));
  {
    TxnScope scope(&mgr);
    ASSERT_TRUE(scope.Lock("a", LockMode::kExclusive).ok());
    ASSERT_TRUE(scope.Lock("b", LockMode::kShared).ok());
    EXPECT_EQ(mgr.locked_keys(), 2u);
  }
  EXPECT_EQ(mgr.locked_keys(), 0u);
}

class InvertedTest : public TxnTest {};

TEST_F(InvertedTest, Tokenizer) {
  auto toks = storage::TokenizeKeywords("Hello, Big-Data World! hello");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0], "hello");
  EXPECT_EQ(toks[1], "big");
  EXPECT_EQ(toks[2], "data");
  EXPECT_EQ(toks[3], "world");
  EXPECT_EQ(toks[4], "hello");
  EXPECT_TRUE(storage::TokenizeKeywords("").empty());
  EXPECT_TRUE(storage::TokenizeKeywords("!!! ---").empty());
}

TEST_F(InvertedTest, SearchPostings) {
  storage::BufferCache cache(64);
  storage::LsmOptions o;
  o.dir = dir_;
  o.name = "inv";
  o.cache = &cache;
  auto idx = storage::LsmInvertedIndex::Open(o).value();
  ASSERT_TRUE(idx->InsertText("the quick brown fox", "pk1").ok());
  ASSERT_TRUE(idx->InsertText("the lazy brown dog", "pk2").ok());
  ASSERT_TRUE(idx->InsertText("quick silver", "pk3").ok());

  auto hits = idx->Search("brown").value();
  EXPECT_EQ(hits.size(), 2u);
  hits = idx->Search("quick").value();
  EXPECT_EQ(hits.size(), 2u);
  hits = idx->Search("missing").value();
  EXPECT_TRUE(hits.empty());
  // Term-prefix must not match ("quic" is not "quick").
  EXPECT_TRUE(idx->Search("quic").value().empty());

  auto both = idx->SearchAll({"quick", "brown"}).value();
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0], "pk1");
}

TEST_F(InvertedTest, RemoveAndFlush) {
  storage::BufferCache cache(64);
  storage::LsmOptions o;
  o.dir = dir_;
  o.name = "inv";
  o.cache = &cache;
  auto idx = storage::LsmInvertedIndex::Open(o).value();
  ASSERT_TRUE(idx->InsertText("alpha beta", "pk1").ok());
  ASSERT_TRUE(idx->Flush().ok());
  ASSERT_TRUE(idx->RemoveText("alpha beta", "pk1").ok());
  EXPECT_TRUE(idx->Search("alpha").value().empty());
  ASSERT_TRUE(idx->Flush().ok());
  ASSERT_TRUE(idx->ForceFullMerge().ok());
  EXPECT_TRUE(idx->Search("beta").value().empty());
}

}  // namespace
}  // namespace asterix::txn
