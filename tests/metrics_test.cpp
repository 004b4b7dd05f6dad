// Tests for the metrics registry (common/metrics.h) and the query
// profiler (hyracks/profile.h): counter aggregation across scopes and
// threads, the disabled-mode zero-allocation contract, the profiled plan
// of a multi-partition join, and the Chrome trace_event JSON export.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>

#include "adm/json.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "hyracks/profile.h"

// ---- allocation tracking ----------------------------------------------------
// Global operator new/delete overrides counting every heap allocation in
// this test binary. The disabled-mode test brackets metric updates with
// the counter to prove they never touch the allocator.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The replacement `new` above is malloc-backed, so `free` is the matching
// deallocator; GCC's -Wmismatched-new-delete can't see that pairing.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace asterix {
namespace {

using metrics::Registry;

TEST(MetricsTest, CounterBasics) {
  auto* c = Registry::Global().GetCounter("test.counter_basics");
  c->Reset();
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsTest, GetCounterIsFindOrCreate) {
  auto* a = Registry::Global().GetCounter("test.same_name", "scope_a");
  auto* b = Registry::Global().GetCounter("test.same_name", "scope_a");
  EXPECT_EQ(a, b);  // stable pointer: same (name, scope) → same counter
  auto* other = Registry::Global().GetCounter("test.same_name", "scope_b");
  EXPECT_NE(a, other);
}

TEST(MetricsTest, CountersAggregateAcrossPartitions) {
  // One counter instance per "partition" scope, bumped concurrently —
  // the per-name total must see every increment (the buffer-cache shard
  // and exchange counters rely on exactly this).
  constexpr int kPartitions = 4;
  constexpr int kAddsPerPartition = 10000;
  std::vector<metrics::Counter*> per_part;
  for (int p = 0; p < kPartitions; p++) {
    auto* c = Registry::Global().GetCounter("test.agg_across_parts",
                                            "part" + std::to_string(p));
    c->Reset();
    per_part.push_back(c);
  }
  std::vector<std::thread> threads;
  for (int p = 0; p < kPartitions; p++) {
    threads.emplace_back([c = per_part[p]] {
      for (int i = 0; i < kAddsPerPartition; i++) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Registry::Global().TotalOf("test.agg_across_parts"),
            static_cast<uint64_t>(kPartitions) * kAddsPerPartition);
  // Snapshot aggregates by name the same way.
  auto snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.value("test.agg_across_parts"),
            static_cast<uint64_t>(kPartitions) * kAddsPerPartition);
}

TEST(MetricsTest, HistogramRecordsAndBuckets) {
  auto* h = Registry::Global().GetHistogram("test.hist");
  h->Reset();
  h->Record(0);
  h->Record(1);
  h->Record(100);
  h->Record(1000);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 1101u);
  EXPECT_DOUBLE_EQ(h->Mean(), 1101.0 / 4.0);
  // Bucket layout: 0/1 in bucket 0; 100 in (64,128] → bucket 7.
  EXPECT_EQ(metrics::Histogram::BucketOf(0), 0);
  EXPECT_EQ(metrics::Histogram::BucketOf(1), 0);
  EXPECT_EQ(metrics::Histogram::BucketOf(2), 1);
  EXPECT_EQ(metrics::Histogram::BucketOf(100), 7);
  EXPECT_EQ(h->bucket(0), 2u);
}

TEST(MetricsTest, SnapshotDelta) {
  auto* c = Registry::Global().GetCounter("test.delta");
  c->Reset();
  c->Add(5);
  auto before = Registry::Global().Snapshot();
  c->Add(37);
  auto delta = Registry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.value("test.delta"), 37u);
  // ToString skips zero-valued entries, includes moved ones.
  EXPECT_NE(delta.ToString("test.").find("test.delta 37"), std::string::npos);
}

TEST(MetricsTest, DisabledUpdatesAreZeroAllocationAndZeroEffect) {
  // Register up front — registration allocates; updates must not.
  auto* c = Registry::Global().GetCounter("test.disabled_cost");
  auto* h = Registry::Global().GetHistogram("test.disabled_cost_hist");
  c->Reset();
  h->Reset();
  metrics::SetEnabled(false);
  const uint64_t allocs_before = g_alloc_count.load();
  for (int i = 0; i < 10000; i++) {
    c->Add(7);
    h->Record(123);
  }
  {
    metrics::ScopedTimerNs timer(c, h);  // disabled: no clock reads either
  }
  EXPECT_EQ(g_alloc_count.load(), allocs_before)
      << "disabled metric updates must not allocate";
  metrics::SetEnabled(true);
  EXPECT_EQ(c->value(), 0u) << "disabled updates must not count";
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsTest, EnabledUpdatesAreZeroAllocation) {
  auto* c = Registry::Global().GetCounter("test.enabled_cost");
  c->Reset();
  const uint64_t allocs_before = g_alloc_count.load();
  for (int i = 0; i < 10000; i++) c->Add();
  EXPECT_EQ(g_alloc_count.load(), allocs_before)
      << "enabled counter updates are a relaxed fetch_add — no allocation";
  EXPECT_EQ(c->value(), 10000u);
}

TEST(MetricsTest, ScopedTimerAccumulates) {
  auto* ns = Registry::Global().GetCounter("test.timer_ns");
  ns->Reset();
  { metrics::ScopedTimerNs timer(ns); }
  EXPECT_GT(ns->value(), 0u);
}

// ---- profiled queries -------------------------------------------------------

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmetrics_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions options;
    options.base_dir = dir_;
    options.num_partitions = 2;
    options.profile_queries = true;
    instance_ = Instance::Open(options).value();
    auto r = instance_->ExecuteScript(
        "CREATE TYPE UserT AS { id: int, name: string };"
        "CREATE DATASET Users(UserT) PRIMARY KEY id;"
        "CREATE TYPE MsgT AS { mid: int, uid: int, body: string };"
        "CREATE DATASET Msgs(MsgT) PRIMARY KEY mid");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (int i = 0; i < 40; i++) {
      auto ins = instance_->Execute(
          "INSERT INTO Users ({\"id\": " + std::to_string(i) +
          ", \"name\": \"u" + std::to_string(i) + "\"})");
      ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    }
    for (int i = 0; i < 200; i++) {
      auto ins = instance_->Execute(
          "INSERT INTO Msgs ({\"mid\": " + std::to_string(i) +
          ", \"uid\": " + std::to_string(i % 40) + ", \"body\": \"hi\"})");
      ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    }
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ProfileTest, TwoPartitionJoinProfilesExpectedOperators) {
  auto result = instance_
                    ->Execute(
                        "SELECT COUNT(*) AS n FROM Users u "
                        "JOIN Msgs m ON m.uid = u.id")
                    .value();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].GetField("n").AsInt(), 200);

  ASSERT_NE(result.profile, nullptr);
  const auto& profile = *result.profile;
  ASSERT_GT(profile.size(), 0u);
  ASSERT_GE(profile.root(), 0);

  std::set<std::string> labels;
  uint64_t exchange_tuples = 0, exchange_frames = 0;
  for (size_t i = 0; i < profile.size(); i++) {
    const auto& n = profile.node(static_cast<int>(i));
    labels.insert(n.label.substr(0, n.label.find('(')));
    if (n.label.rfind("EXCHANGE", 0) == 0) {
      auto it = n.extra.find("exch_tuples");
      if (it != n.extra.end()) exchange_tuples += it->second;
      it = n.extra.find("frames");
      if (it != n.extra.end()) exchange_frames += it->second;
    }
  }
  // The plan must contain both scans, the hash join, both group-by phases
  // of the COUNT, and exchanges bridging the partitions.
  EXPECT_TRUE(labels.count("SCAN Users")) << result.profiled_plan;
  EXPECT_TRUE(labels.count("SCAN Msgs")) << result.profiled_plan;
  EXPECT_TRUE(labels.count("JOIN")) << result.profiled_plan;
  EXPECT_TRUE(labels.count("GROUPBY")) << result.profiled_plan;
  EXPECT_TRUE(labels.count("EXCHANGE")) << result.profiled_plan;
  // Both partitions hold rows, so the hash exchanges genuinely moved data.
  EXPECT_GT(exchange_tuples, 0u) << result.profiled_plan;
  EXPECT_GT(exchange_frames, 0u) << result.profiled_plan;

  // Per-partition stats aggregate: the two scan partitions together
  // produced all 200 message tuples.
  for (size_t i = 0; i < profile.size(); i++) {
    const auto& n = profile.node(static_cast<int>(i));
    if (n.label == "SCAN Msgs") {
      EXPECT_EQ(n.partitions.size(), 2u);
      EXPECT_EQ(n.TuplesOut(), 200u);
    }
  }

  // The ASCII renderer covers every node.
  EXPECT_FALSE(result.profiled_plan.empty());
  EXPECT_NE(result.profiled_plan.find("JOIN(hash)"), std::string::npos);
  EXPECT_NE(result.profiled_plan.find("tuples="), std::string::npos);
}

TEST_F(ProfileTest, ProfilingOffByDefault) {
  InstanceOptions options;
  options.base_dir = dir_ + "_off";
  options.num_partitions = 2;  // profile_queries left false
  auto inst = Instance::Open(options).value();
  auto r = inst->ExecuteScript(
      "CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id;"
      "INSERT INTO D ({\"id\": 1}); SELECT VALUE d.id FROM D d");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().profile, nullptr);
  EXPECT_TRUE(r.value().profiled_plan.empty());
  std::filesystem::remove_all(dir_ + "_off");
}

TEST_F(ProfileTest, ChromeTraceJsonIsValidAndCarriesSchema) {
  auto result = instance_
                    ->Execute(
                        "SELECT COUNT(*) AS n FROM Users u "
                        "JOIN Msgs m ON m.uid = u.id")
                    .value();
  ASSERT_NE(result.profile, nullptr);
  std::string json = result.profile->ToChromeTrace();

  // The export must be well-formed JSON (the ADM parser accepts plain
  // JSON as a subset) with the trace_event envelope.
  auto parsed_or = adm::ParseAdm(json);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString() << "\n"
                              << json;
  const adm::Value& doc = parsed_or.value();
  ASSERT_TRUE(doc.is_object());
  const adm::Value& events = doc.GetField("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.items().size(), 1u);

  size_t complete_events = 0;
  bool saw_scan = false;
  for (const auto& ev : events.items()) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_TRUE(ev.GetField("name").is_string());
    ASSERT_TRUE(ev.GetField("ph").is_string());
    ASSERT_TRUE(ev.GetField("pid").is_numeric());
    ASSERT_TRUE(ev.GetField("tid").is_numeric());
    if (ev.GetField("ph").AsString() != "X") continue;
    complete_events++;
    // Complete events: non-negative ts/dur in microseconds plus op args.
    ASSERT_TRUE(ev.GetField("ts").is_numeric());
    ASSERT_TRUE(ev.GetField("dur").is_numeric());
    EXPECT_GE(ev.GetField("ts").AsNumber(), 0.0);
    EXPECT_GE(ev.GetField("dur").AsNumber(), 0.0);
    const adm::Value& args = ev.GetField("args");
    ASSERT_TRUE(args.is_object());
    EXPECT_TRUE(args.GetField("tuples_out").is_numeric());
    EXPECT_TRUE(args.GetField("partition").is_numeric());
    if (ev.GetField("name").AsString() == "SCAN Msgs" &&
        args.GetField("partition").AsInt() == 0) {
      saw_scan = true;
      EXPECT_TRUE(args.GetField("batch_calls").is_numeric());
    }
  }
  // One complete event per (node, partition): scans/joins/exchanges on two
  // partitions plus single-partition tails.
  EXPECT_GE(complete_events, 8u);
  EXPECT_TRUE(saw_scan);
}

}  // namespace
}  // namespace asterix
