// Tests for the workload-management subsystem (src/resource/): memory
// grant/release invariants under the governor, FIFO admission with timeout
// and load shedding, cooperative cancellation mid-sort/join (no leaked
// grants, slots or spill files), and deadline expiry during a spilling
// query.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "resource/admission.h"
#include "resource/budgets.h"
#include "resource/governor.h"
#include "resource/query_context.h"

namespace asterix {
namespace {

using adm::Value;
using resource::AdmissionController;
using resource::AdmissionOptions;
using resource::AdmissionSlot;
using resource::GovernorOptions;
using resource::MemoryGovernor;
using resource::MemoryGrant;
using resource::OperatorBudgetDefaults;
using resource::QueryContext;
using std::chrono::milliseconds;

uint64_t Ctr(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->value();
}

// ---------------------------------------------------------------------------
// QueryContext
// ---------------------------------------------------------------------------

TEST(QueryContextTest, CheckAliveTransitionsOnCancel) {
  QueryContext ctx;
  EXPECT_TRUE(ctx.CheckAlive().ok());
  EXPECT_FALSE(ctx.cancelled());
  ctx.Cancel();
  EXPECT_TRUE(ctx.cancelled());
  EXPECT_TRUE(ctx.CheckAlive().IsCancelled());
  ctx.Cancel();  // idempotent
  EXPECT_TRUE(ctx.CheckAlive().IsCancelled());
}

TEST(QueryContextTest, DeadlineExpiryIsDeadlineExceeded) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  ctx.SetDeadlineAfter(milliseconds(5));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.CheckAlive().ok());
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(ctx.CheckAlive().IsDeadlineExceeded());
  // Cancellation takes precedence in reporting once requested.
  ctx.Cancel();
  EXPECT_TRUE(ctx.CheckAlive().IsCancelled());
}

TEST(QueryContextTest, ListenersFireOnCancelOnce) {
  QueryContext ctx;
  std::atomic<int> fired{0};
  ctx.AddCancelListener([&] { fired++; });
  ctx.Cancel();
  EXPECT_EQ(fired.load(), 1);
  ctx.Cancel();  // listeners are consumed, not re-run
  EXPECT_EQ(fired.load(), 1);
  // Registering on an already-cancelled context fires immediately.
  ctx.AddCancelListener([&] { fired++; });
  EXPECT_EQ(fired.load(), 2);
}

TEST(QueryContextTest, RemovedListenerNeverFires) {
  QueryContext ctx;
  std::atomic<int> fired{0};
  auto id = ctx.AddCancelListener([&] { fired++; });
  ctx.RemoveCancelListener(id);
  ctx.Cancel();
  EXPECT_EQ(fired.load(), 0);
}

// ---------------------------------------------------------------------------
// MemoryGovernor
// ---------------------------------------------------------------------------

TEST(GovernorTest, UngovernedHandsOutDefaultsWithNoAccounting) {
  GovernorOptions opts;  // pool_bytes == 0
  opts.defaults.per_operator_bytes = 8u << 20;
  MemoryGovernor gov(opts);
  auto grant = gov.Acquire().value();
  EXPECT_EQ(grant.bytes(), 8u << 20);
  EXPECT_EQ(gov.used_bytes(), 0u);  // ungoverned: nothing to undo
  grant.Release();
  EXPECT_EQ(gov.used_bytes(), 0u);
}

TEST(GovernorTest, UniformDefaultsPreserveLegacyBudgets) {
  // One per-operator size serves every blocking operator; the floor is
  // 1 MiB, clamped to that size.
  OperatorBudgetDefaults d;
  EXPECT_EQ(d.per_operator_bytes, 32u << 20);
  EXPECT_EQ(d.floor_bytes(), 1u << 20);
  // A tiny knob drags the floor down with it.
  d.per_operator_bytes = 64u << 10;
  EXPECT_EQ(d.floor_bytes(), 64u << 10);
  // A governed request for the default gets exactly the per-operator size.
  GovernorOptions opts;
  opts.pool_bytes = 8u << 20;
  opts.defaults.per_operator_bytes = 3u << 20;
  MemoryGovernor gov(opts);
  EXPECT_EQ(gov.Acquire().value().bytes(), 3u << 20);
  EXPECT_EQ(gov.used_bytes(), 0u);
}

TEST(GovernorTest, ShrinksUnderPressureAndReleasesRestorePool) {
  GovernorOptions opts;
  opts.pool_bytes = 10u << 20;
  opts.defaults.per_operator_bytes = 4u << 20;
  MemoryGovernor gov(opts);
  uint64_t shrinks_before = Ctr("resource.shrinks");

  auto g1 = gov.Acquire().value();
  auto g2 = gov.Acquire().value();
  EXPECT_EQ(g1.bytes(), 4u << 20);
  EXPECT_EQ(g2.bytes(), 4u << 20);
  EXPECT_EQ(gov.used_bytes(), 8u << 20);

  // Only 2 MiB free (>= 1 MiB floor): the third grant shrinks to it.
  auto g3 = gov.Acquire().value();
  EXPECT_EQ(g3.bytes(), 2u << 20);
  EXPECT_EQ(gov.used_bytes(), 10u << 20);
  EXPECT_EQ(Ctr("resource.shrinks"), shrinks_before + 1);

  g2.Release();
  EXPECT_EQ(gov.used_bytes(), 6u << 20);
  g2.Release();  // idempotent
  EXPECT_EQ(gov.used_bytes(), 6u << 20);
  g1.Release();
  g3.Release();
  EXPECT_EQ(gov.used_bytes(), 0u);
}

TEST(GovernorTest, MoveTransfersOwnershipWithoutDoubleRelease) {
  GovernorOptions opts;
  opts.pool_bytes = 4u << 20;
  opts.defaults.per_operator_bytes = 2u << 20;
  MemoryGovernor gov(opts);
  {
    auto g1 = gov.Acquire().value();
    MemoryGrant g2 = std::move(g1);
    EXPECT_EQ(g1.bytes(), 0u);
    EXPECT_EQ(g2.bytes(), 2u << 20);
    EXPECT_EQ(gov.used_bytes(), 2u << 20);
  }  // destructor of g2 releases exactly once
  EXPECT_EQ(gov.used_bytes(), 0u);
}

TEST(GovernorTest, TimesOutWhenEvenFloorIsUnavailable) {
  GovernorOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.defaults.per_operator_bytes = 2u << 20;
  opts.grant_timeout_ms = 50;
  MemoryGovernor gov(opts);
  auto hog = gov.Acquire().value();
  EXPECT_EQ(gov.used_bytes(), 2u << 20);
  auto r = gov.Acquire();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  hog.Release();
  EXPECT_TRUE(gov.Acquire().ok());
  EXPECT_EQ(gov.used_bytes(), 0u);  // temporary grant already destroyed
}

TEST(GovernorTest, ReleaseUnblocksWaiter) {
  GovernorOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.defaults.per_operator_bytes = 2u << 20;
  opts.grant_timeout_ms = 10'000;
  MemoryGovernor gov(opts);
  auto hog = gov.Acquire().value();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto g = gov.Acquire().value();
    acquired = true;
  });
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(acquired.load());
  hog.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(gov.used_bytes(), 0u);
}

TEST(GovernorTest, CancelAbortsBlockedAcquire) {
  GovernorOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.defaults.per_operator_bytes = 2u << 20;
  opts.grant_timeout_ms = 10'000;
  MemoryGovernor gov(opts);
  auto hog = gov.Acquire().value();
  QueryContext ctx;
  Status why = Status::OK();
  std::thread waiter([&] {
    auto r = gov.Acquire(0, &ctx);
    why = r.status();
  });
  std::this_thread::sleep_for(milliseconds(30));
  ctx.Cancel();
  waiter.join();
  EXPECT_TRUE(why.IsCancelled());
  hog.Release();
  EXPECT_EQ(gov.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, UnlimitedControllerAdmitsImmediately) {
  AdmissionController ctrl(AdmissionOptions{});  // max_concurrent == 0
  auto slot = ctrl.Admit().value();
  EXPECT_EQ(ctrl.running(), 0u);  // empty slot: nothing counted
}

TEST(AdmissionTest, AdmitsInFifoOrder) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_limit = 8;
  AdmissionController ctrl(opts);
  auto first = ctrl.Admit().value();
  EXPECT_EQ(ctrl.running(), 1u);

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; i++) {
    size_t queued_before = ctrl.queued();
    waiters.emplace_back([&ctrl, &order_mu, &order, i] {
      auto slot = ctrl.Admit().value();
      std::lock_guard<std::mutex> l(order_mu);
      order.push_back(i);
      // Slot releases at lambda exit, admitting the next waiter.
    });
    // Admission is FIFO over enqueue order, so serialize the enqueues.
    while (ctrl.queued() == queued_before) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
  EXPECT_EQ(ctrl.queued(), 3u);
  first.Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ctrl.running(), 0u);
  EXPECT_EQ(ctrl.queued(), 0u);
}

TEST(AdmissionTest, RejectsWhenQueueFull) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_limit = 0;  // no waiting allowed at all
  AdmissionController ctrl(opts);
  uint64_t rejects_before = Ctr("resource.rejects");
  auto slot = ctrl.Admit().value();
  auto r = ctrl.Admit();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(Ctr("resource.rejects"), rejects_before + 1);
}

TEST(AdmissionTest, QueueTimeoutRejects) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_limit = 4;
  opts.queue_timeout_ms = 50;
  AdmissionController ctrl(opts);
  auto slot = ctrl.Admit().value();
  auto r = ctrl.Admit();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted());
  EXPECT_EQ(ctrl.queued(), 0u);  // timed-out waiter removed itself
  slot.Release();
  EXPECT_TRUE(ctrl.Admit().ok());
}

TEST(AdmissionTest, CancelAbortsQueuedWait) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_limit = 4;
  opts.queue_timeout_ms = 10'000;
  AdmissionController ctrl(opts);
  auto slot = ctrl.Admit().value();
  QueryContext ctx;
  Status why = Status::OK();
  std::thread waiter([&] { why = ctrl.Admit(&ctx).status(); });
  while (ctrl.queued() == 0) std::this_thread::sleep_for(milliseconds(1));
  ctx.Cancel();
  waiter.join();
  EXPECT_TRUE(why.IsCancelled());
  EXPECT_EQ(ctrl.queued(), 0u);
  EXPECT_EQ(ctrl.running(), 1u);  // original slot still held
}

// ---------------------------------------------------------------------------
// End-to-end through Instance: cancellation, deadlines, admission
// ---------------------------------------------------------------------------

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axres_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Open an instance with a tiny operator budget (so the heavy queries
  /// below spill) and seed `rows` records sized to make sorts/joins take
  /// long enough to cancel mid-flight.
  void OpenAndSeed(InstanceOptions opts, int64_t rows = 20'000) {
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    opts.op_memory_budget_bytes = 256u << 10;
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_
                    ->ExecuteScript(
                        "CREATE TYPE T AS { id: int, v: int, pad: string };"
                        "CREATE DATASET D(T) PRIMARY KEY id")
                    .ok());
    std::string pad(64, 'x');
    for (int64_t i = 0; i < rows; i++) {
      Value rec = Value::Object({{"id", Value::Int(i)},
                                 {"v", Value::Int((i * 7919) % rows)},
                                 {"pad", Value::String(pad)}});
      ASSERT_TRUE(instance_->InsertValue("D", rec).ok());
    }
  }

  size_t TempFileCount() const {
    size_t n = 0;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(dir_ + "/tmp")) {
      if (e.is_regular_file()) n++;
    }
    return n;
  }

  /// Spill files present right now. Unlike TempFileCount it tolerates
  /// files that a running query deletes during the walk.
  size_t SpillFilesNow() const {
    size_t n = 0;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir_ + "/tmp", ec),
         end;
         !ec && it != end; it.increment(ec)) {
      n++;
    }
    return n;
  }

  static constexpr const char* kHeavySort =
      "SELECT VALUE d.v FROM D d ORDER BY d.v, d.pad";
  static constexpr const char* kHeavyJoin =
      "SELECT a.id AS x, b.id AS y FROM D a JOIN D b ON a.v = b.v "
      "WHERE a.id < b.id ORDER BY x, y LIMIT 10";
  static constexpr const char* kHeavyTopK =
      "SELECT VALUE d FROM D d ORDER BY d.v DESC, d.pad LIMIT 15000";
  static constexpr const char* kHeavyGroupBy =
      "SELECT k, p, COUNT(*) AS n FROM D d GROUP BY d.id AS k, d.pad AS p";

  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(WorkloadTest, CancelMidSortLeaksNothing) {
  InstanceOptions opts;
  opts.query_memory_bytes = 8u << 20;  // governed pool
  OpenAndSeed(opts);
  uint64_t cancels_before = Ctr("resource.cancels");

  Result<QueryResult> result = QueryResult{};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "victim";
    result = instance_->Query(kHeavySort, run);
  });
  // Cancel as soon as the query registers (well before the sort finishes).
  while (!instance_->CancelQuery("victim").ok()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(Ctr("resource.cancels"), cancels_before + 1);
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);  // no leaked grants
  EXPECT_EQ(TempFileCount(), 0u);                      // no leaked spill files
  // The id is free again and the instance still runs queries.
  EXPECT_TRUE(instance_->CancelQuery("victim").IsNotFound());
  auto again = instance_->Execute("SELECT VALUE COUNT(*) FROM D d");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rows[0].AsInt(), 20'000);
}

TEST_F(WorkloadTest, CancelMidJoinLeaksNothing) {
  InstanceOptions opts;
  opts.query_memory_bytes = 8u << 20;
  OpenAndSeed(opts);

  Result<QueryResult> result = QueryResult{};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "jv";
    result = instance_->Query(kHeavyJoin, run);
  });
  while (!instance_->CancelQuery("jv").ok()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);
  EXPECT_EQ(TempFileCount(), 0u);
}

TEST_F(WorkloadTest, CancelMidGroupByLeaksNothing) {
  InstanceOptions opts;
  opts.query_memory_bytes = 8u << 20;
  OpenAndSeed(opts);

  Result<QueryResult> result = QueryResult{};
  std::atomic<bool> done{false};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "gv";
    result = instance_->Query(kHeavyGroupBy, run);
    done = true;
  });
  // Cancel once the group-by has spilled: one group per record cannot fit
  // the 256 KiB grant.
  while (!done && SpillFilesNow() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const bool finished_first = done.load();
  const Status cancel = instance_->CancelQuery("gv");
  runner.join();
  ASSERT_FALSE(finished_first) << "the group-by finished before it spilled";
  ASSERT_TRUE(cancel.ok());

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);
  auto again = instance_->Execute("SELECT VALUE COUNT(*) FROM D d");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rows[0].AsInt(), 20'000);
}

TEST_F(WorkloadTest, CancelMidTopKLeaksNothing) {
  // A LIMIT too large for the per-partition heaps to fit the 128 KiB
  // grants: the bounded sorts spill runs, then the query is cancelled.
  InstanceOptions opts;
  opts.query_memory_bytes = 8u << 20;
  OpenAndSeed(opts);

  Result<QueryResult> result = QueryResult{};
  std::atomic<bool> done{false};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "topk";
    result = instance_->Query(kHeavyTopK, run);
    done = true;
  });
  while (!done && SpillFilesNow() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const bool finished_first = done.load();
  const Status cancel = instance_->CancelQuery("topk");
  runner.join();
  ASSERT_FALSE(finished_first) << "the top-k sort finished before it spilled";
  ASSERT_TRUE(cancel.ok());

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(TempFileCount(), 0u);
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);
  auto again = instance_->Execute(
      "SELECT VALUE d.v FROM D d ORDER BY d.v DESC LIMIT 3");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().rows.size(), 3u);
  EXPECT_EQ(again.value().rows[0].AsInt(), 19'999);
}

TEST_F(WorkloadTest, DeadlineAbortsSpillingQuery) {
  InstanceOptions opts;
  opts.query_memory_bytes = 8u << 20;
  OpenAndSeed(opts);
  uint64_t aborts_before = Ctr("resource.deadline_aborts");

  QueryRunOptions run;
  // Far below what the spilling sort needs (about 28 ms warm on a 4-core
  // VM), so the deadline lands after its first spill and before its end.
  run.deadline_ms = 10;
  auto result = instance_->Query(kHeavySort, run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_EQ(Ctr("resource.deadline_aborts"), aborts_before + 1);
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);
  EXPECT_EQ(TempFileCount(), 0u);
}

TEST_F(WorkloadTest, AdmissionShedsLoadWhenSaturated) {
  InstanceOptions opts;
  opts.max_concurrent_queries = 1;
  opts.admission_queue_limit = 0;  // overload: reject instead of queueing
  OpenAndSeed(opts, /*rows=*/20'000);

  Result<QueryResult> slow = QueryResult{};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "slow";
    slow = instance_->Query(kHeavySort, run);
  });
  while (instance_->admission()->running() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // The single slot is taken: the next arrival is shed, not queued.
  auto shed = instance_->Execute("SELECT VALUE COUNT(*) FROM D d");
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  // AQL shares the query path, admission included.
  auto shed_aql = instance_->QueryAql("for $d in dataset D return $d.id");
  ASSERT_FALSE(shed_aql.ok());
  EXPECT_TRUE(shed_aql.status().IsResourceExhausted());

  ASSERT_TRUE(instance_->CancelQuery("slow").ok());
  runner.join();
  EXPECT_TRUE(slow.status().IsCancelled());
  EXPECT_EQ(instance_->admission()->running(), 0u);  // slot released
  auto ok = instance_->Execute("SELECT VALUE COUNT(*) FROM D d");
  EXPECT_TRUE(ok.ok());
}

TEST_F(WorkloadTest, QueuedQueryRunsAfterSlotFrees) {
  InstanceOptions opts;
  opts.max_concurrent_queries = 1;
  opts.admission_queue_limit = 4;
  opts.admission_timeout_ms = 30'000;
  OpenAndSeed(opts, /*rows=*/4'000);
  uint64_t waits_before = Ctr("resource.admission_waits");

  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "head";
    (void)instance_->Query(kHeavySort, run);
  });
  while (instance_->admission()->running() == 0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // Queues behind "head", then runs to completion once it finishes.
  auto queued = instance_->Execute("SELECT VALUE COUNT(*) FROM D d");
  runner.join();
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued.value().rows[0].AsInt(), 4'000);
  EXPECT_GE(Ctr("resource.admission_waits"), waits_before + 1);
}

TEST_F(WorkloadTest, DuplicateClientIdIsRejected) {
  InstanceOptions opts;
  OpenAndSeed(opts, /*rows=*/20'000);

  Result<QueryResult> first = QueryResult{};
  std::thread runner([&] {
    QueryRunOptions run;
    run.client_context_id = "dup";
    first = instance_->Query(kHeavySort, run);
  });
  while (instance_->CancelQuery("nope").IsNotFound() &&
         instance_->CancelQuery("dup").IsNotFound()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  // "dup" is now registered (and cancelled by the poll above); a second
  // query under the same live id must be refused.
  QueryRunOptions run;
  run.client_context_id = "dup";
  auto second = instance_->Query("SELECT VALUE COUNT(*) FROM D d", run);
  runner.join();
  if (!second.ok()) {
    EXPECT_TRUE(second.status().IsAlreadyExists());
  }
  EXPECT_TRUE(first.status().IsCancelled());
}

TEST_F(WorkloadTest, GovernedQueriesStillProduceCorrectResults) {
  // A tight pool shrinks grants and forces spills, but never changes
  // results: compare against the ungoverned answer.
  InstanceOptions opts;
  opts.query_memory_bytes = 2u << 20;
  OpenAndSeed(opts, /*rows=*/4'000);
  auto governed = instance_->Execute(
      "SELECT g AS v, COUNT(*) AS n FROM D d GROUP BY d.v AS g "
      "ORDER BY n DESC, v LIMIT 5");
  ASSERT_TRUE(governed.ok());
  ASSERT_EQ(governed.value().rows.size(), 5u);
  EXPECT_EQ(instance_->governor()->used_bytes(), 0u);
  EXPECT_EQ(TempFileCount(), 0u);
}

}  // namespace
}  // namespace asterix
