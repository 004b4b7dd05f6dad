// Tests for the Hyracks runtime: streaming operators, external sort,
// hash group-by (all phases), grace hash join, spill files.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <iterator>
#include <set>

#include "common/rng.h"
#include "hyracks/groupby.h"
#include "hyracks/join.h"
#include "hyracks/operators.h"
#include "hyracks/sort.h"
#include "hyracks/spill.h"
#include "hyracks_test_util.h"
#include "resource/governor.h"

namespace asterix::hyracks {
namespace {

using adm::Value;
using resource::MemoryGrant;

TupleEval Field(size_t i) {
  return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
}

TupleEval GreaterThan(size_t i, int64_t bound) {
  return [i, bound](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(i).is_numeric() && t.at(i).AsNumber() > bound);
  };
}

Tuple T(std::initializer_list<Value> vals) {
  return Tuple(std::vector<Value>(vals));
}

class HyracksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axhy_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    tmp_ = std::make_unique<TempFileManager>(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::unique_ptr<TempFileManager> tmp_;
};

TEST_F(HyracksTest, RunFileRoundTrip) {
  auto writer = RunWriter::Create(tmp_->NextPath("run")).value();
  Rng rng(4);
  std::vector<Tuple> expect;
  for (int i = 0; i < 1000; i++) {
    Tuple t = T({Value::Int(i), Value::String(rng.NextString(1 + i % 500))});
    expect.push_back(t);
    ASSERT_TRUE(writer->Write(t).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = RunReader::Open(writer->path()).value();
  Tuple t;
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(reader->Read(&t).value()) << i;
    EXPECT_EQ(t.at(0).AsInt(), expect[i].at(0).AsInt());
    EXPECT_EQ(t.at(1).AsString(), expect[i].at(1).AsString());
  }
  EXPECT_FALSE(reader->Read(&t).value());
}

TEST_F(HyracksTest, RunFileWithACorruptFieldCountIsCorruption) {
  // A tuple claiming 2^62 fields in a two-byte file: an error, not an
  // attempt to reserve that many.
  std::string data;
  adm::PutVarint(uint64_t{1} << 62, &data);
  data.push_back(static_cast<char>(adm::TypeTag::kNull));
  std::string path = tmp_->NextPath("corrupt");
  ASSERT_TRUE(fs::WriteStringToFile(path, data).ok());
  auto reader = RunReader::Open(path).value();
  Tuple t;
  EXPECT_EQ(reader->Read(&t).status().code(), StatusCode::kCorruption);
}

TEST_F(HyracksTest, CancellationIsObservedMidDrain) {
  // Regression for operator pump loops that never consulted the query
  // context: once wired, a cancel mid-drain must surface within one frame
  // of tuples (the strided PollAlive convention). The source hands over
  // one tuple per batch, so a frame of tuples is kFrameTuples pulls.
  std::vector<Tuple> in;
  for (int i = 0; i < 4000; i++) in.push_back(T({Value::Int(i)}));
  SelectOp op(Rechunked(std::make_unique<VectorSource>(in), 1),
              GreaterThan(0, -1));
  resource::QueryContext ctx;
  op.SetQueryContext(&ctx);
  ASSERT_TRUE(op.Open().ok());
  Batch b;
  for (int i = 0; i < 10; i++) ASSERT_TRUE(op.NextBatch(&b).value()) << i;
  ctx.Cancel();
  Status observed = Status::OK();
  for (size_t i = 0; i <= kFrameTuples && observed.ok(); i++) {
    auto r = op.NextBatch(&b);
    if (!r.ok()) observed = r.status();
  }
  EXPECT_TRUE(observed.IsCancelled()) << observed.ToString();

  SelectOp batched(std::make_unique<VectorSource>(in), GreaterThan(0, -1));
  batched.SetQueryContext(&ctx);  // already cancelled
  ASSERT_TRUE(batched.Open().ok());
  EXPECT_TRUE(batched.NextBatch(&b).status().IsCancelled());
}

TEST_F(HyracksTest, SelectFiltersTuples) {
  std::vector<Tuple> in;
  for (int i = 0; i < 10; i++) in.push_back(T({Value::Int(i)}));
  SelectOp op(std::make_unique<VectorSource>(in), GreaterThan(0, 6));
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 7);
}

TEST_F(HyracksTest, AssignAppendsFields) {
  std::vector<Tuple> in = {T({Value::Int(2)}), T({Value::Int(5)})};
  TupleEval doubler = [](const Tuple& t) -> Result<Value> {
    return Value::Int(t.at(0).AsInt() * 2);
  };
  AssignOp op(std::make_unique<VectorSource>(in), {doubler});
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].arity(), 2u);
  EXPECT_EQ(out[0].at(1).AsInt(), 4);
  EXPECT_EQ(out[1].at(1).AsInt(), 10);
}

TEST_F(HyracksTest, ProjectReordersFields) {
  std::vector<Tuple> in = {T({Value::Int(1), Value::String("a"), Value::Int(3)})};
  ProjectOp op(std::make_unique<VectorSource>(in), {2, 0});
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arity(), 2u);
  EXPECT_EQ(out[0].at(0).AsInt(), 3);
  EXPECT_EQ(out[0].at(1).AsInt(), 1);
}

TEST_F(HyracksTest, LimitAndOffset) {
  std::vector<Tuple> in;
  for (int i = 0; i < 10; i++) in.push_back(T({Value::Int(i)}));
  LimitOp op(std::make_unique<VectorSource>(in), 3, 4);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 4);
  EXPECT_EQ(out[2].at(0).AsInt(), 6);
}

TEST_F(HyracksTest, LimitStopsPullingOnceSatisfied) {
  // LIMIT 10 fits in the child's first batch: the child must be pulled
  // exactly once, not drained and not asked for a second batch.
  int pulls = 0;
  int64_t next = 0;
  auto src = std::make_unique<CallbackSource>(
      nullptr,
      [&](Batch* out) -> Result<bool> {
        pulls++;
        out->Clear();
        while (!out->full() && next < 10'000) {
          out->Add()->fields.push_back(Value::Int(next++));
        }
        return !out->empty();
      },
      nullptr);
  LimitOp op(std::move(src), /*limit=*/10);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; i++) EXPECT_EQ(out[i].at(0).AsInt(), i);
  EXPECT_EQ(pulls, 1);
}

TEST_F(HyracksTest, LimitOffsetAcrossBatchEdge) {
  // OFFSET 300 skips one whole batch (256) and cuts into the second.
  std::vector<Tuple> in;
  for (int i = 0; i < 1000; i++) in.push_back(T({Value::Int(i)}));
  LimitOp op(std::make_unique<VectorSource>(in), /*limit=*/5, /*offset=*/300);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; i++) EXPECT_EQ(out[i].at(0).AsInt(), 300 + i);
}

TEST_F(HyracksTest, UnnestCarriesLargeExpansionAcrossCalls) {
  // One input whose 600 items exceed a batch: 256 + 256 + 88, in order.
  std::vector<Value> items;
  for (int i = 0; i < 600; i++) items.push_back(Value::Int(i));
  std::vector<Tuple> in = {T({Value::Int(7), Value::Array(std::move(items))})};
  UnnestOp op(std::make_unique<VectorSource>(in), Field(1));
  ASSERT_TRUE(op.Open().ok());
  Batch b;
  std::vector<int64_t> got;
  int calls = 0;
  while (op.NextBatch(&b).value()) {
    calls++;
    for (size_t i = 0; i < b.size(); i++) {
      EXPECT_EQ(b[i].at(0).AsInt(), 7);
      got.push_back(b[i].at(2).AsInt());
    }
  }
  ASSERT_TRUE(op.Close().ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(got.size(), 600u);
  for (int i = 0; i < 600; i++) EXPECT_EQ(got[i], i);
}

TEST_F(HyracksTest, OuterUnnestOfEmptyArrayEmitsMissing) {
  std::vector<Tuple> in = {T({Value::Int(1), Value::Array({})})};
  UnnestOp op(std::make_unique<VectorSource>(in), Field(1), /*outer=*/true);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(0).AsInt(), 1);
  EXPECT_TRUE(out[0].at(2).is_missing());
}

TEST_F(HyracksTest, UnnestExpandsCollections) {
  std::vector<Tuple> in = {
      T({Value::Int(1), Value::Array({Value::String("a"), Value::String("b")})}),
      T({Value::Int(2), Value::Array({})}),
      T({Value::Int(3), Value::Multiset({Value::String("c")})}),
  };
  UnnestOp op(std::make_unique<VectorSource>(in), Field(1), /*outer=*/false);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(2).AsString(), "a");
  EXPECT_EQ(out[1].at(2).AsString(), "b");
  EXPECT_EQ(out[2].at(0).AsInt(), 3);

  UnnestOp outer(std::make_unique<VectorSource>(in), Field(1), /*outer=*/true);
  auto out2 = CollectAll(&outer).value();
  ASSERT_EQ(out2.size(), 4u);  // id=2 emits one MISSING row
}

TEST_F(HyracksTest, UnionAllConcatenates) {
  std::vector<StreamPtr> children;
  children.push_back(std::make_unique<VectorSource>(
      std::vector<Tuple>{T({Value::Int(1)}), T({Value::Int(2)})}));
  children.push_back(
      std::make_unique<VectorSource>(std::vector<Tuple>{T({Value::Int(3)})}));
  UnionAllOp op(std::move(children));
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(HyracksTest, SortInMemory) {
  std::vector<Tuple> in;
  for (int i = 0; i < 100; i++) in.push_back(T({Value::Int((i * 37) % 100)}));
  ExternalSortOp op(std::make_unique<VectorSource>(in), {{Field(0), true}},
                    MemoryGrant::Fixed(1 << 20), tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(out[i].at(0).AsInt(), i);
  EXPECT_EQ(op.stats().runs_spilled, 0u);
}

TEST_F(HyracksTest, SortSpillsAndMerges) {
  std::vector<Tuple> in;
  Rng rng(9);
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    in.push_back(T({Value::Int(static_cast<int64_t>(rng.Next() % 1000000)),
                    Value::String(rng.NextString(20))}));
  }
  ExternalSortOp op(std::make_unique<VectorSource>(in), {{Field(0), true}},
                    MemoryGrant::Fixed(64 * 1024), tmp_.get(), /*fanin=*/4);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LE(out[i - 1].at(0).AsInt(), out[i].at(0).AsInt());
  }
  EXPECT_GT(op.stats().runs_spilled, 4u);   // bounded memory forced runs
  EXPECT_GT(op.stats().merge_passes, 1u);   // fan-in 4 forced multi-pass
  // Spill files are cleaned up.
  size_t leftover = 0;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    leftover++;
  }
  EXPECT_EQ(leftover, 0u);
}

TEST_F(HyracksTest, SortDescendingAndMultiKey) {
  std::vector<Tuple> in = {
      T({Value::Int(1), Value::String("b")}),
      T({Value::Int(1), Value::String("a")}),
      T({Value::Int(2), Value::String("z")}),
  };
  ExternalSortOp op(
      std::make_unique<VectorSource>(in),
      {{Field(0), false}, {Field(1), true}}, MemoryGrant::Fixed(1 << 20),
      tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at(0).AsInt(), 2);
  EXPECT_EQ(out[1].at(1).AsString(), "a");
  EXPECT_EQ(out[2].at(1).AsString(), "b");
}

// Bounded (top-k) sort against the full sort followed by LimitOp over the
// same input. Key columns must match exactly (ties at the cut may pick
// different tuples); with unique keys the whole tuples must match.
// Rows (key, key, unique id, padding); `varied` draws each padding length
// from [0, pad] instead of using pad.
std::vector<Tuple> RandomRows(uint64_t seed, size_t n, uint64_t key_range,
                              size_t pad, bool varied = false) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; i++) {
    const size_t len = varied ? rng.Uniform(pad + 1) : pad;
    rows.push_back(
        T({Value::Int(static_cast<int64_t>(rng.Uniform(key_range))),
           Value::Int(static_cast<int64_t>(rng.Uniform(key_range))),
           Value::Int(static_cast<int64_t>(i)),
           Value::String(std::string(len, static_cast<char>('a' + i % 26)))}));
  }
  return rows;
}

std::vector<Tuple> SortThenLimit(const std::vector<Tuple>& in,
                                 const std::vector<SortKey>& keys, uint64_t k,
                                 TempFileManager* tmp) {
  auto full = std::make_unique<ExternalSortOp>(
      std::make_unique<VectorSource>(in), keys, MemoryGrant::Fixed(64 << 20),
      tmp);
  LimitOp limit(std::move(full), k);
  return CollectAll(&limit).value();
}

void ExpectSameKeys(const std::vector<Tuple>& got,
                    const std::vector<Tuple>& want,
                    const std::vector<size_t>& key_cols, bool whole) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    for (size_t c : key_cols) {
      ASSERT_EQ(got[i].at(c).Compare(want[i].at(c)), 0) << "row " << i;
    }
    if (whole) {
      ASSERT_EQ(got[i].arity(), want[i].arity());
      for (size_t c = 0; c < got[i].arity(); c++) {
        ASSERT_EQ(got[i].at(c).Compare(want[i].at(c)), 0) << "row " << i;
      }
    }
  }
}

TEST_F(HyracksTest, BoundedSortMatchesFullSortThenLimit) {
  const size_t n = 3000;
  // Many ties (keys 0..4 twice over), and unique keys (column 2).
  const std::vector<std::pair<std::vector<SortKey>, std::vector<size_t>>>
      orders = {
          {{{Field(0), true}, {Field(1), false}}, {0, 1}},   // ties, ASC/DESC
          {{{Field(1), false}, {Field(0), true}}, {1, 0}},   // ties, DESC/ASC
          {{{Field(0), false}, {Field(2), true}}, {0, 2}},   // unique, mixed
          {{{Field(2), false}}, {2}},                        // unique, DESC
      };
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::vector<Tuple> in = RandomRows(seed, n, 5, 8);
    for (const auto& [keys, cols] : orders) {
      const bool unique = std::find(cols.begin(), cols.end(), 2) != cols.end();
      for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{n - 1},
                         uint64_t{n}, uint64_t{n + 5}}) {
        for (size_t chunk : {size_t{1}, size_t{7}, kFrameTuples}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                       std::to_string(k) + " chunk " + std::to_string(chunk));
          ExternalSortOp top(
              Rechunked(std::make_unique<VectorSource>(in), chunk), keys,
              MemoryGrant::Fixed(64 << 20), tmp_.get(),
              ExternalSortOp::kDefaultMergeFanin, k);
          auto got = CollectAll(&top).value();
          ExpectSameKeys(got, SortThenLimit(in, keys, k, tmp_.get()), cols,
                         unique);
          EXPECT_EQ(top.stats().tuples, n);
          EXPECT_LE(top.stats().kept, n);
          EXPECT_EQ(top.stats().runs_spilled, 0u);
        }
      }
    }
  }
}

TEST_F(HyracksTest, BoundedSortDropsTuplesThatCannotMakeTheCut) {
  // Ascending input under a descending order: every tuple beats the kept
  // ones. Descending input: after the first k, none does.
  std::vector<Tuple> up, down;
  for (int i = 0; i < 1000; i++) {
    up.push_back(T({Value::Int(i)}));
    down.push_back(T({Value::Int(999 - i)}));
  }
  for (auto* in : {&up, &down}) {
    ExternalSortOp op(std::make_unique<VectorSource>(*in), {{Field(0), false}},
                      MemoryGrant::Fixed(1 << 20), tmp_.get(),
                      ExternalSortOp::kDefaultMergeFanin, 10);
    auto out = CollectAll(&op).value();
    ASSERT_EQ(out.size(), 10u);
    for (int i = 0; i < 10; i++) EXPECT_EQ(out[i].at(0).AsInt(), 999 - i);
    EXPECT_EQ(op.stats().tuples, 1000u);
    EXPECT_EQ(op.stats().kept, in == &up ? 1000u : 10u);
  }
}

TEST_F(HyracksTest, BoundedSortSpillsWideTuplesUnderATinyGrant) {
  // k wide tuples exceed the grant, so the top-k heap spills runs of at
  // most k tuples and a multi-pass merge stops after k. At k = 12 the heap
  // fills below the grant and wider replacements push it over, so runs
  // spill full and their worst tuple then rejects later input.
  const size_t n = 1000;
  // Tie-heavy keys (compared as keys), and unique keys (whole tuples).
  const std::vector<std::pair<std::vector<SortKey>, std::vector<size_t>>>
      orders = {
          {{{Field(0), false}, {Field(1), true}}, {0, 1}},
          {{{Field(0), false}, {Field(2), true}}, {0, 2}},
          {{{Field(1), true}, {Field(2), false}}, {1, 2}},
      };
  for (uint64_t seed : {21u, 22u}) {
    std::vector<Tuple> in = RandomRows(seed, n, 50, 2000, /*varied=*/true);
    for (const auto& [keys, cols] : orders) {
      const bool unique = cols.back() == 2;
      for (uint64_t k : {uint64_t{1}, uint64_t{12}, uint64_t{20}, uint64_t{200},
                         uint64_t{n - 1}, uint64_t{n}, uint64_t{n + 5}}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                     std::to_string(k));
        ExternalSortOp top(Rechunked(std::make_unique<VectorSource>(in), 7),
                           keys, MemoryGrant::Fixed(16 * 1024), tmp_.get(),
                           /*merge_fanin=*/4, k);
        auto got = CollectAll(&top).value();
        ExpectSameKeys(got, SortThenLimit(in, keys, k, tmp_.get()), cols,
                       unique);
        if (k > 1) {
          EXPECT_GT(top.stats().runs_spilled, 0u);
        }
        EXPECT_EQ(top.stats().tuples, n);
      }
    }
  }
  size_t leftover = 0;
  for (auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    leftover++;
  }
  EXPECT_EQ(leftover, 0u);
}

TEST_F(HyracksTest, BoundedSortStillSurfacesInputAndKeyErrors) {
  // The failing tuple comes last and could never make the cut; the error
  // surfaces anyway, as it does without a limit.
  std::vector<Tuple> in;
  for (int i = 0; i < 500; i++) in.push_back(T({Value::Int(i)}));
  in.push_back(T({Value::String("not a number")}));
  TupleEval key = [](const Tuple& t) -> Result<Value> {
    if (!t.at(0).is_int()) return Status::InvalidArgument("bad key");
    return t.at(0);
  };
  for (uint64_t k : {0u, 1u, 10u}) {
    ExternalSortOp op(std::make_unique<VectorSource>(in), {{key, true}},
                      MemoryGrant::Fixed(1 << 20), tmp_.get(),
                      ExternalSortOp::kDefaultMergeFanin, k);
    EXPECT_EQ(op.Open().code(), StatusCode::kInvalidArgument) << "k " << k;
    ASSERT_TRUE(op.Close().ok());
  }
  // k = 0 drains its whole input and emits nothing.
  in.pop_back();
  ExternalSortOp none(std::make_unique<VectorSource>(in), {{key, true}},
                      MemoryGrant::Fixed(1 << 20), tmp_.get(),
                      ExternalSortOp::kDefaultMergeFanin, 0);
  EXPECT_TRUE(CollectAll(&none).value().empty());
  EXPECT_EQ(none.stats().tuples, 500u);
  EXPECT_EQ(none.stats().kept, 0u);
}

TEST_F(HyracksTest, StreamDistinctOnSorted) {
  std::vector<Tuple> in = {T({Value::Int(1)}), T({Value::Int(1)}),
                           T({Value::Int(2)}), T({Value::Int(3)}),
                           T({Value::Int(3)})};
  StreamDistinctOp op(std::make_unique<VectorSource>(in));
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(HyracksTest, StreamDistinctRunStraddlingBatchBoundary) {
  // Keys 0..249, then key 250 at positions 250..262 (the source's first
  // batch ends at 256, inside the run), then keys 263..299.
  std::vector<Tuple> in;
  for (int i = 0; i < 300; i++) {
    in.push_back(T({Value::Int(i >= 250 && i <= 262 ? 250 : i)}));
  }
  StreamDistinctOp op(std::make_unique<VectorSource>(in));
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 288u);
  int runs = 0;
  for (const auto& t : out) runs += t.at(0).AsInt() == 250;
  EXPECT_EQ(runs, 1);
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].at(0).AsInt(), out[i].at(0).AsInt());
  }
}

TEST_F(HyracksTest, GroupByCompleteAllAggregates) {
  // (key, value): key 0 gets 1,3 ; key 1 gets 2, null
  std::vector<Tuple> in = {
      T({Value::Int(0), Value::Int(1)}),
      T({Value::Int(1), Value::Int(2)}),
      T({Value::Int(0), Value::Int(3)}),
      T({Value::Int(1), Value::Null()}),
  };
  std::vector<AggSpec> aggs = {
      {AggKind::kCount, nullptr},    // COUNT(*)
      {AggKind::kCount, Field(1)},   // COUNT(v) skips null
      {AggKind::kSum, Field(1)},
      {AggKind::kMin, Field(1)},
      {AggKind::kMax, Field(1)},
      {AggKind::kAvg, Field(1)},
  };
  HashGroupByOp op(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                   AggPhase::kComplete, MemoryGrant::Fixed(1 << 20),
                   tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 2u);
  std::sort(out.begin(), out.end(),
            [](const Tuple& a, const Tuple& b) { return CompareTuples(a, b) < 0; });
  // key 0: count*=2 count=2 sum=4 min=1 max=3 avg=2.0
  EXPECT_EQ(out[0].at(1).AsInt(), 2);
  EXPECT_EQ(out[0].at(2).AsInt(), 2);
  EXPECT_EQ(out[0].at(3).AsInt(), 4);
  EXPECT_EQ(out[0].at(4).AsInt(), 1);
  EXPECT_EQ(out[0].at(5).AsInt(), 3);
  EXPECT_DOUBLE_EQ(out[0].at(6).AsNumber(), 2.0);
  // key 1: count*=2 count=1 sum=2 avg=2.0
  EXPECT_EQ(out[1].at(1).AsInt(), 2);
  EXPECT_EQ(out[1].at(2).AsInt(), 1);
  EXPECT_EQ(out[1].at(3).AsInt(), 2);
}

TEST_F(HyracksTest, GroupByPartialThenFinalEqualsComplete) {
  // Two-phase aggregation must agree with one-phase.
  Rng rng(12);
  std::vector<Tuple> in;
  for (int i = 0; i < 2000; i++) {
    in.push_back(T({Value::Int(static_cast<int64_t>(rng.Uniform(20))),
                    Value::Int(static_cast<int64_t>(rng.Uniform(100)))}));
  }
  std::vector<AggSpec> aggs = {{AggKind::kCount, nullptr},
                               {AggKind::kSum, Field(1)},
                               {AggKind::kAvg, Field(1)}};
  HashGroupByOp complete(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                         AggPhase::kComplete, MemoryGrant::Fixed(1 << 20),
                         tmp_.get());
  auto expect = CollectAll(&complete).value();

  // Split input across two "partitions", partial-agg each, then final.
  std::vector<Tuple> half1(in.begin(), in.begin() + 1000);
  std::vector<Tuple> half2(in.begin() + 1000, in.end());
  auto p1 = std::make_unique<HashGroupByOp>(
      std::make_unique<VectorSource>(half1), std::vector<TupleEval>{Field(0)},
      aggs, AggPhase::kPartial, MemoryGrant::Fixed(1 << 20), tmp_.get());
  auto p2 = std::make_unique<HashGroupByOp>(
      std::make_unique<VectorSource>(half2), std::vector<TupleEval>{Field(0)},
      aggs, AggPhase::kPartial, MemoryGrant::Fixed(1 << 20), tmp_.get());
  std::vector<StreamPtr> parts;
  parts.push_back(std::move(p1));
  parts.push_back(std::move(p2));
  HashGroupByOp final_op(std::make_unique<UnionAllOp>(std::move(parts)),
                         {Field(0)}, aggs, AggPhase::kFinal,
                         MemoryGrant::Fixed(1 << 20), tmp_.get());
  auto got = CollectAll(&final_op).value();

  auto lt = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  std::sort(expect.begin(), expect.end(), lt);
  std::sort(got.begin(), got.end(), lt);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); i++) {
    EXPECT_EQ(CompareTuples(expect[i], got[i]), 0) << i;
  }
}

TEST_F(HyracksTest, GroupBySpillsUnderPressure) {
  Rng rng(7);
  std::vector<Tuple> in;
  const int n = 30000;
  for (int i = 0; i < n; i++) {
    // Many distinct groups, each key a long-ish string.
    in.push_back(T({Value::String("group_" + std::to_string(rng.Uniform(8000))),
                    Value::Int(1)}));
  }
  std::vector<AggSpec> aggs = {{AggKind::kSum, Field(1)}};
  HashGroupByOp op(std::make_unique<VectorSource>(in), {Field(0)}, aggs,
                   AggPhase::kComplete, MemoryGrant::Fixed(32 * 1024),
                   tmp_.get());
  auto out = CollectAll(&op).value();
  EXPECT_GT(op.spill_partitions_used(), 0u);
  // Totals conserve the input count.
  int64_t total = 0;
  std::set<std::string> keys;
  for (const auto& t : out) {
    total += t.at(1).AsInt();
    EXPECT_TRUE(keys.insert(t.at(0).AsString()).second) << "duplicate group";
  }
  EXPECT_EQ(total, n);
}

TEST_F(HyracksTest, GroupByCollectsOneHugeGroupThroughSpilledPhases) {
  // 50,000 values into one group, interleaved with 2,000 one-value groups
  // that arrive after the table has outgrown its grant and so spill; two
  // partial instances over the halves, then a final one, all under 16 KiB.
  constexpr int kValues = 50'000, kStride = 25;
  std::vector<Tuple> in;
  for (int i = 0; i < kValues; i++) {
    in.push_back(T({Value::Int(0), Value::Int(i)}));
    if (i % kStride == 0) in.push_back(T({Value::Int(1 + i), Value::Int(i)}));
  }
  const std::vector<AggSpec> aggs = {{AggKind::kCollect, Field(1)},
                                     {AggKind::kCount, nullptr}};
  const size_t half = in.size() / 2;
  std::vector<StreamPtr> parts;
  std::vector<HashGroupByOp*> partials;
  for (auto [from, to] : {std::pair{size_t{0}, half}, {half, in.size()}}) {
    auto op = std::make_unique<HashGroupByOp>(
        std::make_unique<VectorSource>(
            std::vector<Tuple>(in.begin() + from, in.begin() + to)),
        std::vector<TupleEval>{Field(0)}, aggs, AggPhase::kPartial,
        MemoryGrant::Fixed(16 * 1024), tmp_.get());
    partials.push_back(op.get());
    parts.push_back(std::move(op));
  }
  HashGroupByOp final_op(std::make_unique<UnionAllOp>(std::move(parts)),
                         {Field(0)}, aggs, AggPhase::kFinal,
                         MemoryGrant::Fixed(16 * 1024), tmp_.get());
  auto out = CollectAll(&final_op).value();
  for (const HashGroupByOp* p : partials) {
    EXPECT_GT(p->spill_partitions_used(), 0u);
  }
  EXPECT_GT(final_op.spill_partitions_used(), 0u);

  ASSERT_EQ(out.size(), 1u + kValues / kStride);
  for (const Tuple& t : out) {
    std::vector<int64_t> got;
    for (const Value& v : t.at(1).items()) got.push_back(v.AsInt());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(t.at(2).AsInt(), static_cast<int64_t>(got.size()));
    const int64_t key = t.at(0).AsInt();
    if (key != 0) {
      EXPECT_EQ(got, std::vector<int64_t>{key - 1});
      continue;
    }
    ASSERT_EQ(got.size(), static_cast<size_t>(kValues));
    for (int i = 0; i < kValues; i++) ASSERT_EQ(got[i], i);
  }
}

TEST(AggState, SumRefusesToAddADurationAndANumber) {
  size_t bytes = 0;
  AggState sum(AggKind::kSum);
  ASSERT_TRUE(sum.Step(Value::Duration(1000), &bytes).ok());
  EXPECT_EQ(sum.Step(Value::Int(1), &bytes).code(),
            StatusCode::kInvalidArgument);
  // Found at merge time too: partitions that each summed one kind.
  AggState avg(AggKind::kAvg);
  ASSERT_TRUE(avg.Step(Value::Int(1), &bytes).ok());
  const Value partial[] = {Value::Duration(5), Value::Int(1)};
  EXPECT_EQ(avg.Merge(partial, &bytes).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bytes, 0u);  // only COLLECT retains its input
}

TEST_F(HyracksTest, HashJoinInner) {
  std::vector<Tuple> left = {T({Value::Int(1), Value::String("l1")}),
                             T({Value::Int(2), Value::String("l2")}),
                             T({Value::Int(3), Value::String("l3")})};
  std::vector<Tuple> right = {T({Value::Int(2), Value::String("r2")}),
                              T({Value::Int(3), Value::String("r3a")}),
                              T({Value::Int(3), Value::String("r3b")}),
                              T({Value::Int(4), Value::String("r4")})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kInner, MemoryGrant::Fixed(1 << 20), tmp_.get());
  auto out = CollectAll(&op).value();
  EXPECT_EQ(out.size(), 3u);  // 2->r2, 3->r3a, 3->r3b
  for (const auto& t : out) {
    EXPECT_EQ(t.arity(), 4u);
    EXPECT_EQ(t.at(0).AsInt(), t.at(2).AsInt());
  }
}

TEST_F(HyracksTest, HashJoinLeftOuterPadsNulls) {
  std::vector<Tuple> left = {T({Value::Int(1)}), T({Value::Int(2)}),
                             T({Value::Null()})};
  std::vector<Tuple> right = {T({Value::Int(2), Value::String("hit")})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kLeftOuter, MemoryGrant::Fixed(1 << 20), tmp_.get(),
                nullptr, /*right_arity_hint=*/2);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 3u);
  int padded = 0, matched = 0;
  for (const auto& t : out) {
    ASSERT_EQ(t.arity(), 3u);
    if (t.at(1).is_null()) {
      padded++;
    } else {
      matched++;
      EXPECT_EQ(t.at(2).AsString(), "hit");
    }
  }
  EXPECT_EQ(padded, 2);  // key 1 (no match) and null key
  EXPECT_EQ(matched, 1);
}

TEST_F(HyracksTest, HashJoinLeftSemiDeduplicates) {
  std::vector<Tuple> left = {T({Value::Int(1)}), T({Value::Int(2)})};
  std::vector<Tuple> right = {T({Value::Int(2)}), T({Value::Int(2)}),
                              T({Value::Int(2)})};
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kLeftSemi, MemoryGrant::Fixed(1 << 20), tmp_.get());
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);  // left row 2 once, despite 3 matches
  EXPECT_EQ(out[0].at(0).AsInt(), 2);
  EXPECT_EQ(out[0].arity(), 1u);  // semi keeps only left fields
}

TEST_F(HyracksTest, HashJoinResidualPredicate) {
  std::vector<Tuple> left = {T({Value::Int(1), Value::Int(10)}),
                             T({Value::Int(1), Value::Int(20)})};
  std::vector<Tuple> right = {T({Value::Int(1), Value::Int(15)})};
  // Residual: left.v < right.v  (fields: l0,l1,r0,r1)
  TupleEval residual = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(1).AsNumber() < t.at(3).AsNumber());
  };
  HashJoinOp op(std::make_unique<VectorSource>(left),
                std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                JoinType::kInner, MemoryGrant::Fixed(1 << 20), tmp_.get(),
                residual);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at(1).AsInt(), 10);
}

TEST_F(HyracksTest, GraceJoinSpillsAndMatchesInMemoryResult) {
  Rng rng(21);
  std::vector<Tuple> left, right;
  const int n = 8000;
  for (int i = 0; i < n; i++) {
    left.push_back(T({Value::Int(static_cast<int64_t>(rng.Uniform(2000))),
                      Value::String(rng.NextString(30))}));
  }
  for (int i = 0; i < 2000; i++) {
    right.push_back(T({Value::Int(i), Value::String(rng.NextString(30))}));
  }
  // Reference: generous memory.
  HashJoinOp big(std::make_unique<VectorSource>(left),
                 std::make_unique<VectorSource>(right), {Field(0)}, {Field(0)},
                 JoinType::kInner, MemoryGrant::Fixed(64 << 20), tmp_.get());
  auto expect = CollectAll(&big).value();
  EXPECT_EQ(big.stats().partitions_spilled, 0u);
  // Constrained: forces grace partitioning.
  HashJoinOp small(std::make_unique<VectorSource>(left),
                   std::make_unique<VectorSource>(right), {Field(0)},
                   {Field(0)}, JoinType::kInner, MemoryGrant::Fixed(16 * 1024),
                   tmp_.get());
  auto got = CollectAll(&small).value();
  EXPECT_GT(small.stats().partitions_spilled, 0u);
  auto lt = [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  };
  std::sort(expect.begin(), expect.end(), lt);
  std::sort(got.begin(), got.end(), lt);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); i += 97) {
    EXPECT_EQ(CompareTuples(expect[i], got[i]), 0) << i;
  }
}

// `n` distinct rows, then a Cancelled status, as the input of a cancelled
// query would end.
StreamPtr CancelledAfter(int n) {
  auto next = std::make_shared<int>(0);
  return std::make_unique<CallbackSource>(
      nullptr,
      [next, n](Batch* out) -> Result<bool> {
        out->Clear();
        if (*next >= n) return Status::Cancelled("input cancelled");
        for (; *next < n && !out->full(); ++*next) {
          *out->Add() =
              T({Value::Int(*next), Value::String(std::string(40, 'x'))});
        }
        return true;
      },
      nullptr);
}

TEST_F(HyracksTest, AbandonedSpillingOperatorsLeakNothing) {
  // Each blocking operator spills under a small pooled grant before its
  // input fails. Destroyed without Close, it leaves no file behind and
  // gives the grant back to the pool.
  resource::GovernorOptions opts;
  opts.pool_bytes = 1 << 20;
  resource::MemoryGovernor gov(opts);
  constexpr size_t kGrant = 16 * 1024;
  auto grant = [&gov] { return gov.Acquire(kGrant).value(); };
  auto files = [this] {
    return std::distance(std::filesystem::directory_iterator(dir_),
                         std::filesystem::directory_iterator());
  };
  std::vector<Tuple> build;
  for (int i = 0; i < 5000; i++) {
    build.push_back(T({Value::Int(i), Value::String(std::string(40, 'y'))}));
  }
  std::vector<std::pair<const char*, std::function<StreamPtr()>>> ops = {
      {"sort",
       [&] {
         return std::make_unique<ExternalSortOp>(
             CancelledAfter(5000), std::vector<SortKey>{{Field(0), false}},
             grant(), tmp_.get());
       }},
      {"top-k sort",
       [&] {
         return std::make_unique<ExternalSortOp>(
             CancelledAfter(5000), std::vector<SortKey>{{Field(0), false}},
             grant(), tmp_.get(), ExternalSortOp::kDefaultMergeFanin, 4000);
       }},
      {"join",
       [&] {
         return std::make_unique<HashJoinOp>(
             CancelledAfter(5000), std::make_unique<VectorSource>(build),
             std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
             JoinType::kInner, grant(), tmp_.get());
       }},
      {"groupby",
       [&] {
         return std::make_unique<HashGroupByOp>(
             CancelledAfter(5000), std::vector<TupleEval>{Field(0)},
             std::vector<AggSpec>{{AggKind::kCount, nullptr}},
             AggPhase::kComplete, grant(), tmp_.get());
       }},
  };
  for (auto& [name, make] : ops) {
    StreamPtr op = make();
    EXPECT_EQ(gov.used_bytes(), kGrant) << name;
    EXPECT_TRUE(op->Open().IsCancelled()) << name;
    EXPECT_GT(files(), 0) << name << " spilled nothing";
    op.reset();
    EXPECT_EQ(files(), 0) << name;
    EXPECT_EQ(gov.used_bytes(), 0u) << name;
  }
}

}  // namespace
}  // namespace asterix::hyracks
