// Tests for the data-feed ingestion subsystem (src/feeds/): the four
// ingestion policies under a stalled consumer, per-stage fault injection
// (parse failures, storage failures, adapter death), retry/backoff bounds,
// durable progress with crash-resume, and the CREATE/CONNECT FEED DDL.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "feeds/adapter.h"
#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/io.h"
#include "common/metrics.h"
#include "asterix/feed_manager.h"
#include "feeds/policy.h"
#include "feeds/runtime.h"

namespace asterix {
namespace {

using adm::Value;
using feeds::ChannelAdapter;
using feeds::FaultInjector;
using feeds::FeedPolicy;
using feeds::FeedRuntime;
using feeds::FeedRuntimeOptions;
using feeds::ParseSpec;
using feeds::PolicyKind;

uint64_t Ctr(const char* name, const std::string& scope) {
  return metrics::Registry::Global().GetCounter(name, scope)->value();
}

class FeedsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axfeeds_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    instance_ = OpenInstance();
    ASSERT_TRUE(instance_
                    ->ExecuteScript(
                        "CREATE TYPE T AS { id: int, v: int };"
                        "CREATE DATASET D(T) PRIMARY KEY id")
                    .ok());
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Instance> OpenInstance() {
    InstanceOptions opts;
    opts.base_dir = dir_ + "/inst";
    opts.num_partitions = 2;
    return Instance::Open(opts).value();
  }

  static Value Doc(int64_t id, int64_t v) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(id))
        .Add("v", Value::Int(v))
        .Build();
  }

  int64_t CountD() {
    auto r = instance_->Execute("SELECT COUNT(*) AS n FROM D d");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value().rows[0].GetField("n").AsInt();
  }

  /// A runtime over a pre-filled, already-closed channel: every record is
  /// queued before Start(), so stage interleavings are deterministic.
  struct Harness {
    std::unique_ptr<FeedRuntime> runtime;
    ChannelAdapter* channel = nullptr;
  };
  Harness MakeRuntime(const std::string& feed_name, FeedPolicy policy,
                      FaultInjector* faults,
                      ParseSpec::Format format = ParseSpec::Format::kParsed) {
    auto adapter = std::make_unique<ChannelAdapter>();
    Harness h;
    h.channel = adapter.get();
    FeedRuntimeOptions o;
    o.feed_name = feed_name;
    o.dataset = "D";
    o.policy = policy;
    o.parse.format = format;
    o.faults = faults;
    o.spill_dir = dir_ + "/spill";
    h.runtime = std::make_unique<FeedRuntime>(instance_.get(),
                                              std::move(adapter), std::move(o));
    return h;
  }

  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(FeedsTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(FeedPolicy::Named("basic").value().kind, PolicyKind::kBasic);
  EXPECT_EQ(FeedPolicy::Named("SPILL").value().kind, PolicyKind::kSpill);
  EXPECT_EQ(FeedPolicy::Named("Discard").value().kind, PolicyKind::kDiscard);
  EXPECT_EQ(FeedPolicy::Named("throttle").value().kind, PolicyKind::kThrottle);
  EXPECT_FALSE(FeedPolicy::Named("best_effort").ok());
  EXPECT_STREQ(FeedPolicy::Named("spill").value().name(), "SPILL");
}

// ---- the policy lattice under a stalled storage stage -----------------------

TEST_F(FeedsTest, BasicPolicyBlocksAndLosesNothing) {
  FaultInjector faults;
  faults.StallStorage(/*stall_ms=*/2, /*n_records=*/400);
  FeedPolicy policy;
  policy.kind = PolicyKind::kBasic;
  policy.queue_capacity_tuples = 512;
  auto h = MakeRuntime("f_basic", policy, &faults);
  for (int64_t i = 0; i < 2000; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_EQ(h.runtime->records_applied(), 2000u);
  EXPECT_EQ(h.runtime->watermark(), 2000u);
  EXPECT_EQ(Ctr("feeds.discarded", "f_basic"), 0u);
  // The stalled consumer filled the queue; intake had to block on it.
  EXPECT_GT(Ctr("feeds.intake_blocked", "f_basic"), 0u);
  EXPECT_EQ(CountD(), 2000);
}

TEST_F(FeedsTest, SpillPolicyOverflowsToDiskAndLosesNothing) {
  FaultInjector faults;
  faults.StallStorage(2, 400);
  FeedPolicy policy;
  policy.kind = PolicyKind::kSpill;
  policy.queue_capacity_tuples = 512;
  auto h = MakeRuntime("f_spill", policy, &faults);
  for (int64_t i = 0; i < 2000; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_EQ(h.runtime->records_applied(), 2000u);
  EXPECT_EQ(Ctr("feeds.discarded", "f_spill"), 0u);
  EXPECT_GT(Ctr("feeds.spilled_records", "f_spill"), 0u);
  EXPECT_GT(Ctr("feeds.spilled_bytes", "f_spill"), 0u);
  EXPECT_EQ(CountD(), 2000);
  // Drained run files are deleted on close: nothing left behind.
  size_t leftovers = 0;
  // Bind the listing first: ranging over `temporary.value()` would iterate
  // a vector that died with the Result at the end of the full expression.
  const std::vector<std::string> spill_dir = fs::ListDir(dir_ + "/spill").value();
  for (const auto& name : spill_dir) {
    if (name.find(".spill.") != std::string::npos) leftovers++;
  }
  EXPECT_EQ(leftovers, 0u);
}

TEST_F(FeedsTest, DiscardPolicyShedsLoadButAdvancesWatermark) {
  FaultInjector faults;
  faults.StallStorage(2, 400);
  FeedPolicy policy;
  policy.kind = PolicyKind::kDiscard;
  policy.queue_capacity_tuples = 512;
  auto h = MakeRuntime("f_discard", policy, &faults);
  for (int64_t i = 0; i < 2000; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  uint64_t discarded = Ctr("feeds.discarded", "f_discard");
  EXPECT_GT(discarded, 0u);
  // Accounting closes: every record was either applied or counted dropped,
  // and dropped records still retire (the watermark covers them).
  EXPECT_EQ(h.runtime->records_applied() + discarded, 2000u);
  EXPECT_EQ(h.runtime->watermark(), 2000u);
  EXPECT_EQ(CountD(), static_cast<int64_t>(h.runtime->records_applied()));
}

TEST_F(FeedsTest, ThrottlePolicyClampsRateWithoutDrops) {
  FaultInjector faults;
  faults.StallStorage(2, 300);
  FeedPolicy policy;
  policy.kind = PolicyKind::kThrottle;
  policy.queue_capacity_tuples = 512;
  policy.throttle_min_rate = 2000.0;  // keep the clamped test fast
  auto h = MakeRuntime("f_throttle", policy, &faults);
  for (int64_t i = 0; i < 1200; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_GT(Ctr("feeds.throttled", "f_throttle"), 0u);
  EXPECT_EQ(Ctr("feeds.discarded", "f_throttle"), 0u);
  EXPECT_EQ(h.runtime->records_applied(), 1200u);
  EXPECT_EQ(CountD(), 1200);
}

// ---- per-stage failure handling ---------------------------------------------

TEST_F(FeedsTest, TransientParseFaultIsRetriedToSuccess) {
  uint64_t retries_before = Ctr("feeds.retries", "parse");
  FaultInjector faults;
  faults.FailParseAt(/*seqno=*/5, /*times=*/2);
  auto h = MakeRuntime("f_parse_retry", FeedPolicy{}, &faults,
                       ParseSpec::Format::kAdm);
  for (int64_t i = 0; i < 20; i++) {
    h.channel->PushRaw("{ \"id\": " + std::to_string(i) + ", \"v\": " +
                       std::to_string(i) + " }");
  }
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_EQ(h.runtime->records_applied(), 20u);
  EXPECT_EQ(Ctr("feeds.parse_errors", "f_parse_retry"), 0u);
  EXPECT_GE(Ctr("feeds.retries", "parse") - retries_before, 2u);
  EXPECT_EQ(CountD(), 20);
}

TEST_F(FeedsTest, MalformedRecordIsSkippedAsSoftError) {
  auto h =
      MakeRuntime("f_bad_record", FeedPolicy{}, nullptr, ParseSpec::Format::kAdm);
  for (int64_t i = 0; i < 10; i++) {
    if (i == 3) {
      h.channel->PushRaw("{ this is not ADM");
    } else {
      h.channel->PushRaw("{ \"id\": " + std::to_string(i) + ", \"v\": " +
                         std::to_string(i) + " }");
    }
  }
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  // Feeds-paper semantics: a malformed record is counted and skipped, and
  // still retires — the watermark does not stall behind it.
  EXPECT_EQ(h.runtime->records_applied(), 9u);
  EXPECT_EQ(Ctr("feeds.parse_errors", "f_bad_record"), 1u);
  EXPECT_EQ(h.runtime->watermark(), 10u);
  EXPECT_EQ(CountD(), 9);
}

TEST_F(FeedsTest, TransientStorageFaultIsRetriedToSuccess) {
  uint64_t retries_before = Ctr("feeds.retries", "storage");
  FaultInjector faults;
  faults.FailStorageAt(/*seqno=*/7, /*times=*/2);
  auto h = MakeRuntime("f_store_retry", FeedPolicy{}, &faults);
  for (int64_t i = 0; i < 20; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_EQ(h.runtime->records_applied(), 20u);
  EXPECT_GE(Ctr("feeds.retries", "storage") - retries_before, 2u);
  EXPECT_EQ(CountD(), 20);
}

TEST_F(FeedsTest, StorageFailurePastRetryBudgetIsFatal) {
  FaultInjector faults;
  faults.FailStorageAt(/*seqno=*/4, /*times=*/100);  // beyond any budget
  FeedPolicy policy;
  policy.max_retries = 2;
  auto h = MakeRuntime("f_store_fatal", policy, &faults);
  for (int64_t i = 0; i < 10; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  EXPECT_FALSE(h.runtime->WaitForCompletion().ok());
  EXPECT_FALSE(h.runtime->Stop().ok());
  EXPECT_FALSE(h.runtime->error().ok());
  // Records before the poisoned one were applied; nothing after it was.
  EXPECT_EQ(h.runtime->records_applied(), 3u);
  EXPECT_EQ(h.runtime->watermark(), 3u);
}

TEST_F(FeedsTest, AdapterDeathIsRestartedAtResumePoint) {
  FaultInjector faults;
  faults.KillAdapterAfter(/*seqno=*/10);
  auto h = MakeRuntime("f_adapter_death", FeedPolicy{}, &faults);
  for (int64_t i = 0; i < 30; i++) h.channel->Push(Doc(i, i));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  ASSERT_TRUE(h.runtime->WaitForCompletion().ok());
  ASSERT_TRUE(h.runtime->Stop().ok());
  EXPECT_EQ(Ctr("feeds.restarts", "f_adapter_death"), 1u);
  // The reopened adapter resumed right after the last enqueued record:
  // every record arrived, none twice (unique ids; PK would dedupe anyway).
  EXPECT_EQ(h.runtime->records_applied(), 30u);
  EXPECT_EQ(h.runtime->watermark(), 30u);
  EXPECT_EQ(CountD(), 30);
}

TEST_F(FeedsTest, BackoffIsBoundedByPolicy) {
  FeedPolicy policy;
  policy.initial_backoff_ms = 2;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 200;
  policy.max_retries = 2;
  FaultInjector faults;
  faults.FailStorageAt(1, 100);
  auto h = MakeRuntime("f_backoff", policy, &faults);
  h.channel->Push(Doc(0, 0));
  h.channel->CloseChannel();
  ASSERT_TRUE(h.runtime->Start().ok());
  const uint64_t t0 = metrics::NowNs();
  EXPECT_FALSE(h.runtime->WaitForCompletion().ok());
  const double elapsed_ms =
      static_cast<double>(metrics::NowNs() - t0) / 1e6;
  EXPECT_FALSE(h.runtime->Stop().ok());
  // 2 retries with backoffs 2ms + 4ms: well under one second even with
  // scheduling noise — the budget is bounded, not open-ended.
  EXPECT_LT(elapsed_ms, 1000.0);
  EXPECT_EQ(h.runtime->records_applied(), 0u);
}

// ---- durable progress / crash-resume ----------------------------------------

TEST_F(FeedsTest, CrashDuringIngestResumesExactly) {
  // 1200 line-oriented ADM records on disk, ingested via the localfs
  // adapter under the DDL path (CREATE FEED / CONNECT FEED).
  std::string data = dir_ + "/ingest.adm";
  {
    std::string text;
    for (int64_t i = 0; i < 1200; i++) {
      text += "{ \"id\": " + std::to_string(i) + ", \"v\": " +
              std::to_string(i * 7) + " }\n";
    }
    ASSERT_TRUE(fs::WriteStringToFile(data, text).ok());
  }
  ASSERT_TRUE(instance_
                  ->Execute("CREATE FEED ingest USING localfs ((\"path\"=\"" +
                            data + "\"),(\"format\"=\"adm\"))")
                  .ok());
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED ingest TO DATASET D USING POLICY BASIC")
          .ok());
  FeedRuntime* rt = instance_->feeds()->runtime("ingest");
  ASSERT_NE(rt, nullptr);
  // Let some records land, checkpoint (persists the feed watermark), let
  // more land past the checkpoint, then crash without persisting again.
  ASSERT_TRUE(rt->WaitForSeqno(300).ok());
  ASSERT_TRUE(instance_->Checkpoint().ok());
  ASSERT_TRUE(rt->WaitForSeqno(700).ok());
  rt->Kill();
  instance_.reset();  // simulated crash: no graceful feed stop

  instance_ = OpenInstance();
  // The feed definition survived; reconnecting resumes from the persisted
  // watermark. Records between the checkpoint and the crash were already
  // recovered from the WAL, and the at-least-once replay of them upserts
  // identical versions — idempotent.
  EXPECT_EQ(instance_->metadata()
                ->Snapshot()
                ->GetFeed("ingest")
                .value()
                .connected_dataset,
            "D");
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED ingest TO DATASET D USING POLICY BASIC")
          .ok());
  rt = instance_->feeds()->runtime("ingest");
  ASSERT_NE(rt, nullptr);
  ASSERT_GE(rt->options().resume_after, 300u);  // resumed, not restarted
  ASSERT_TRUE(rt->WaitForCompletion().ok());
  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED ingest").ok());
  // Exactly 1200 distinct ids, no gaps, no duplicate versions.
  EXPECT_EQ(CountD(), 1200);
  adm::Value rec;
  ASSERT_TRUE(instance_->GetByKey("D", Value::Int(699), &rec).value());
  EXPECT_EQ(rec.GetField("v").AsInt(), 699 * 7);
  ASSERT_TRUE(instance_->GetByKey("D", Value::Int(1199), &rec).value());
  EXPECT_EQ(rec.GetField("v").AsInt(), 1199 * 7);
}

TEST_F(FeedsTest, DisconnectPersistsProgressAndReconnectResumes) {
  ASSERT_TRUE(instance_->Execute("CREATE FEED ch USING channel").ok());
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED ch TO DATASET D USING POLICY BASIC")
          .ok());
  ChannelAdapter* chan = instance_->feeds()->channel("ch");
  ASSERT_NE(chan, nullptr);
  for (int64_t i = 0; i < 50; i++) chan->Push(Doc(i, i));
  FeedRuntime* rt = instance_->feeds()->runtime("ch");
  ASSERT_TRUE(rt->WaitForSeqno(50).ok());
  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED ch").ok());
  // Graceful disconnect persisted the watermark.
  EXPECT_EQ(FeedRuntime::LoadProgress(
                instance_->feeds()->ProgressPathFor("ch"))
                .value(),
            50u);
  // A reconnected channel feed starts a fresh channel but resumes the
  // watermark, so its adapter is asked to skip the first 50 seqnos.
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED ch TO DATASET D USING POLICY BASIC")
          .ok());
  EXPECT_EQ(instance_->feeds()->runtime("ch")->options().resume_after, 50u);
  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED ch").ok());
  EXPECT_EQ(CountD(), 50);
}

// ---- DDL & metadata ---------------------------------------------------------

TEST_F(FeedsTest, LocalFsAdapterStopProbeWinsOverBacklog) {
  // Regression: with a large on-disk backlog NextBatch kept reading until
  // `max` records were assembled, so Stop() could block for the whole
  // catch-up. The runtime-wired stop probe must win immediately.
  const std::string path = dir_ + "/feed_backlog.txt";
  {
    std::ofstream f(path);
    for (int i = 0; i < 5000; i++) f << i << "," << i << "\n";
  }
  feeds::LocalFsAdapter a(path, /*tail=*/false);
  std::atomic<bool> stop{false};
  a.SetStopProbe([&] { return stop.load(); });
  ASSERT_TRUE(a.Open(0).ok());

  std::vector<feeds::FeedRecord> out;
  auto r = a.NextBatch(&out, 100, 50);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  EXPECT_EQ(out.size(), 100u);

  stop.store(true);
  out.clear();
  auto r2 = a.NextBatch(&out, 100, 50);  // plenty of backlog remains
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value()) << "a stop yield is not end-of-feed";
  EXPECT_TRUE(out.empty()) << "stop must be observed before any read";
}

TEST_F(FeedsTest, FeedDdlRoundTripsThroughMetadata) {
  ASSERT_TRUE(instance_
                  ->Execute("CREATE FEED f USING channel ((\"note\"=\"x\"))")
                  .ok());
  auto def = instance_->metadata()->Snapshot()->GetFeed("f").value();
  EXPECT_EQ(def.adapter, "channel");
  EXPECT_EQ(def.props.at("note"), "x");
  EXPECT_TRUE(def.connected_dataset.empty());
  // Duplicate name rejected; unknown adapter rejected.
  EXPECT_FALSE(instance_->Execute("CREATE FEED f USING channel").ok());
  EXPECT_FALSE(instance_->Execute("CREATE FEED g USING carrier_pigeon").ok());

  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED f TO DATASET D USING POLICY DISCARD")
          .ok());
  def = instance_->metadata()->Snapshot()->GetFeed("f").value();
  EXPECT_EQ(def.connected_dataset, "D");
  EXPECT_EQ(def.policy, "DISCARD");
  // Connected feeds can't be dropped or double-connected.
  EXPECT_FALSE(instance_->Execute("DROP FEED f").ok());
  EXPECT_FALSE(
      instance_->Execute("CONNECT FEED f TO DATASET D USING POLICY BASIC")
          .ok());
  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED f").ok());
  def = instance_->metadata()->Snapshot()->GetFeed("f").value();
  EXPECT_TRUE(def.connected_dataset.empty());
  EXPECT_EQ(def.policy, "DISCARD");  // remembered for the next connect

  // The catalog object survives restart.
  instance_.reset();
  instance_ = OpenInstance();
  def = instance_->metadata()->Snapshot()->GetFeed("f").value();
  EXPECT_EQ(def.adapter, "channel");
  EXPECT_EQ(def.props.at("note"), "x");
  ASSERT_TRUE(instance_->Execute("DROP FEED f").ok());
  EXPECT_FALSE(instance_->metadata()->Snapshot()->GetFeed("f").ok());
  EXPECT_FALSE(instance_->Execute("DISCONNECT FEED f").ok());
}

TEST_F(FeedsTest, DropDatasetRefusedWhileFeedConnected) {
  ASSERT_TRUE(instance_->Execute("CREATE FEED f USING channel").ok());
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED f TO DATASET D USING POLICY BASIC")
          .ok());
  auto refused = instance_->Execute("DROP DATASET D");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("'f'"), std::string::npos)
      << refused.status().ToString();
  // The dataset and the connection are intact: the feed still ingests.
  instance_->feeds()->channel("f")->Push(Doc(1, 10));
  ASSERT_TRUE(instance_->feeds()->runtime("f")->WaitForSeqno(1).ok());
  EXPECT_EQ(CountD(), 1);

  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED f").ok());
  ASSERT_TRUE(instance_->Execute("DROP DATASET D").ok());
  EXPECT_FALSE(instance_->Execute("SELECT VALUE d FROM D d").ok());
  // Connecting to the dropped dataset fails and leaves no runtime behind.
  EXPECT_FALSE(
      instance_->Execute("CONNECT FEED f TO DATASET D USING POLICY BASIC")
          .ok());
  EXPECT_EQ(instance_->feeds()->runtime("f"), nullptr);
}

TEST_F(FeedsTest, ConnectRacingDropDatasetNeverOutlivesTheDataset) {
  ASSERT_TRUE(instance_->Execute("CREATE FEED f USING channel").ok());
  std::atomic<bool> done{false};
  std::thread ddl([&] {
    while (!done.load()) {
      // Either may fail: X exists already, or a connected feed refuses it.
      (void)instance_->Execute("CREATE DATASET X(T) PRIMARY KEY id");
      (void)instance_->Execute("DROP DATASET X");
    }
  });
  int connected = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int i = 0; connected < 5 && std::chrono::steady_clock::now() < deadline;
       i++) {
    auto r = instance_->Execute("CONNECT FEED f TO DATASET X");
    if (!r.ok()) {
      // A failed connect, however late, stopped what it started.
      EXPECT_EQ(instance_->feeds()->runtime("f"), nullptr) << i;
      continue;
    }
    connected++;
    // While the feed is connected its dataset cannot be dropped.
    EXPECT_TRUE(instance_->metadata()->Snapshot()->GetDataset("X").ok()) << i;
    EXPECT_TRUE(instance_->Execute("DISCONNECT FEED f").ok()) << i;
  }
  done.store(true);
  ddl.join();
  EXPECT_EQ(connected, 5);
}

TEST_F(FeedsTest, StaleConnectionRecordDoesNotBlockDropDataset) {
  ASSERT_TRUE(instance_->Execute("CREATE FEED f USING channel").ok());
  ASSERT_TRUE(
      instance_->Execute("CONNECT FEED f TO DATASET D USING POLICY BASIC")
          .ok());
  // Shutdown stops the runtime but keeps the catalog's record of the
  // connection, and nothing reconnects it on reopen.
  instance_.reset();
  instance_ = OpenInstance();
  EXPECT_EQ(instance_->metadata()->Snapshot()->GetFeed("f")->connected_dataset,
            "D");
  EXPECT_EQ(instance_->feeds()->runtime("f"), nullptr);
  EXPECT_TRUE(instance_->Execute("DROP DATASET D").ok());
}

TEST_F(FeedsTest, GleambookFeedIngestsGeneratedRecords) {
  ASSERT_TRUE(
      instance_->ExecuteScript(gleambook::Generator::Ddl(false)).ok());
  ASSERT_TRUE(instance_
                  ->Execute("CREATE FEED gb USING gleambook "
                            "((\"kind\"=\"user\"),(\"records\"=\"300\"))")
                  .ok());
  ASSERT_TRUE(instance_
                  ->Execute("CONNECT FEED gb TO DATASET GleambookUsers "
                            "USING POLICY BASIC")
                  .ok());
  FeedRuntime* rt = instance_->feeds()->runtime("gb");
  ASSERT_NE(rt, nullptr);
  ASSERT_TRUE(rt->WaitForCompletion().ok());
  ASSERT_TRUE(instance_->Execute("DISCONNECT FEED gb").ok());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM GleambookUsers u");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows[0].GetField("n").AsInt(), 300);
}

}  // namespace
}  // namespace asterix
