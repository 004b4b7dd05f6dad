// Unit tests of the benchmark's own arithmetic.
#include <gtest/gtest.h>

#include <cmath>

#include "adm/value.h"
#include "bench_math.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {  // 1, 2, ..., n
  std::vector<double> v;
  for (int i = 1; i <= n; i++) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(Range(100), 50), 50);
  EXPECT_EQ(Percentile(Range(100), 99), 99);
  EXPECT_EQ(Percentile(Range(100), 100), 100);
  EXPECT_EQ(Percentile(Range(10), 90), 9);
  EXPECT_EQ(Percentile(Range(3), 50), 2);  // the median of three
  EXPECT_EQ(Percentile({5, 1, 3}, 50), 3);  // input need not be sorted
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 100), 0u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(TailPercentile, HighestThatLeavesTenBeyondInEveryClass) {
  const std::vector<double> ladder = {50, 90, 95, 99, 99.9};
  // 20000 samples leave 20 beyond p99.9.
  EXPECT_EQ(ChooseTailPercentile({20000}, ladder), 99.9);
  // The smallest class decides: 1000 samples leave exactly 10 beyond p99.
  EXPECT_EQ(ChooseTailPercentile({20000, 1000}, ladder), 99);
  // 999 leave only 9 beyond p99, so p95 (49 beyond) is the highest.
  EXPECT_EQ(ChooseTailPercentile({20000, 999}, ladder), 95);
  EXPECT_EQ(ChooseTailPercentile({100, 100, 100, 100}, ladder), 90);
  // Order of the candidates does not matter.
  EXPECT_EQ(ChooseTailPercentile({1000}, {99, 50, 95}), 99);
  // Too few samples for any candidate, or no classes at all.
  EXPECT_FALSE(ChooseTailPercentile({15}, ladder).has_value());
  EXPECT_FALSE(ChooseTailPercentile({}, ladder).has_value());
  // The rule's threshold is a parameter.
  EXPECT_EQ(ChooseTailPercentile({1000}, ladder, 50), 95);
}

TEST(GeometricMean, OfClassMedians) {
  EXPECT_DOUBLE_EQ(GeometricMean({4, 9}), 6);
  EXPECT_NEAR(GeometricMean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(GeometricMean({2.5}), 2.5);
  // Scaling one class by k scales the mean of n classes by k^(1/n).
  EXPECT_NEAR(GeometricMean({0.1, 40, 2, 8}) / GeometricMean({0.1, 20, 2, 8}),
              std::pow(2.0, 0.25), 1e-12);
  EXPECT_EQ(GeometricMean({}), 0);
  EXPECT_EQ(GeometricMean({3, 0}), 0);
  EXPECT_EQ(GeometricMean({3, -1}), 0);
}

TEST(Wchar, ParsesProcIo) {
  const char* io =
      "rchar: 323934931\n"
      "wchar: 323929600\n"
      "syscr: 632687\n"
      "syscw: 632675\n"
      "read_bytes: 0\n"
      "write_bytes: 323932160\n"
      "cancelled_write_bytes: 0\n";
  EXPECT_EQ(ParseWchar(io), 323929600u);
  EXPECT_EQ(ParseWchar("wchar: 7"), 7u);  // no trailing newline
  EXPECT_FALSE(ParseWchar("rchar: 5\nsyscw: 1\n").has_value());
  EXPECT_FALSE(ParseWchar("wchar: x\n").has_value());
  EXPECT_FALSE(ParseWchar("").has_value());
  // Only the whole field name counts.
  EXPECT_FALSE(ParseWchar("xwchar: 5\n").has_value());
}

TEST(Wchar, DeltaAndLiveReading) {
  EXPECT_EQ(WcharDelta(100, 350), 250u);
  EXPECT_EQ(WcharDelta(350, 100), 0u);
  auto before = ReadSelfWchar();
  ASSERT_TRUE(before.has_value());
  std::fputs("perfbench wchar probe\n", stderr);
  std::fflush(stderr);
  auto after = ReadSelfWchar();
  ASSERT_TRUE(after.has_value());
  EXPECT_GE(WcharDelta(*before, *after), 22u);
}

TEST(ShadowStore, SpaceDenominatorIsLiveAdmText) {
  using asterix::adm::Value;
  Value rec = asterix::adm::ObjectBuilder()
                  .Add("messageId", Value::Int(7))
                  .Add("message", Value::String("hi"))
                  .Build();
  std::string text = rec.ToString();
  EXPECT_EQ(text, "{\"message\":\"hi\",\"messageId\":7}");

  ShadowStore s(4);
  s.Put(1, rec.Hash(), text.size());
  s.Put(2, 0, 10);
  EXPECT_EQ(s.live_count(), 2u);
  EXPECT_EQ(s.live_text_bytes(), text.size() + 10);
  // Overwriting replaces the old version's bytes.
  s.Put(2, 0, 25);
  EXPECT_EQ(s.live_text_bytes(), text.size() + 25);
  EXPECT_EQ(s.live_count(), 2u);
  // Deleting removes them; deleting a dead key changes nothing live.
  EXPECT_TRUE(s.Erase(2, 1));
  EXPECT_FALSE(s.Erase(3, 1));
  EXPECT_EQ(s.live_text_bytes(), text.size());
  EXPECT_EQ(s.live_count(), 1u);
  EXPECT_EQ(s.Get(1).fingerprint, rec.Hash());
  EXPECT_FALSE(s.Get(2).live);
}

TEST(ShadowStore, WriteDenominatorCountsEveryWrite) {
  ShadowStore s(4);
  s.Put(0, 0, 100);
  s.Put(0, 0, 120);  // each version written counts
  EXPECT_EQ(s.written_text_bytes(), 220u);
  s.ResetWritten();  // a new window keeps the live state
  EXPECT_EQ(s.written_text_bytes(), 0u);
  EXPECT_EQ(s.live_text_bytes(), 120u);
  // A delete writes its key's text, live or not.
  s.Erase(0, 1);
  s.Erase(0, 1);
  EXPECT_EQ(s.written_text_bytes(), 2u);
  s.Put(3, 0, 40);
  EXPECT_EQ(s.written_text_bytes(), 42u);
}

TEST(SelfTime, SubtractsCoveredChildTime) {
  EXPECT_EQ(SelfTimeNs(0, 100, {}), 100u);
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 30}, {50, 60}}), 70u);
  // Overlapping children are counted once.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 40}, {30, 50}}), 60u);
  // A child sticking out of the parent only covers the overlap.
  EXPECT_EQ(SelfTimeNs(10, 100, {{0, 20}, {90, 150}}), 70u);
  EXPECT_EQ(SelfTimeNs(0, 100, {{0, 100}}), 0u);
  EXPECT_EQ(SelfTimeNs(5, 5, {}), 0u);
}

TEST(Tracer, AggregatesSelfTimePerName) {
  Tracer t;
  t.BeginOp("op.q");
  uint64_t t0 = NowNs();
  t.Record("sqlpp.parse", t0, t0 + 1000);
  t.EndOp();
  t.Record("asterix.checkpoint", 0, 5000);  // a root span outside any op
  auto agg = t.Aggregate();
  ASSERT_EQ(agg.count("op.q"), 1u);
  EXPECT_EQ(agg["sqlpp.parse"].spans, 1u);
  EXPECT_EQ(agg["sqlpp.parse"].self_ns, 1000u);
  EXPECT_LE(agg["op.q"].self_ns, agg["op.q"].total_ns);
  EXPECT_EQ(agg["asterix.checkpoint"].total_ns, 5000u);
  std::string json = t.ToChromeTrace(10);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"cat\":\"sqlpp\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
