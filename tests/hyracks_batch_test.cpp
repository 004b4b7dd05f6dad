// Batch-execution tests. Every operator's NextBatch output is checked
// against a brute-force result computed from the input vector in plain C++
// (filter, std::sort, std::map group-by, nested-loop join, ...), with the
// input re-chunked into 1-, 7- and kFrameTuples-tuple batches: partial
// batches are legal anywhere mid-stream, so no operator may depend on full
// ones. Also covers exchanges (all routing kinds), mid-stream error
// (poison) propagation, and the hyracks.batch.* metric semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>

#include "common/metrics.h"
#include "hyracks/groupby.h"
#include "hyracks/job.h"
#include "hyracks/join.h"
#include "hyracks/merge.h"
#include "hyracks/operators.h"
#include "hyracks/sort.h"
#include "hyracks_test_util.h"

namespace asterix::hyracks {
namespace {

using adm::Value;
using Rows = std::vector<Tuple>;

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

int64_t F(const Tuple& t, size_t i) { return t.at(i).AsInt(); }

/// 600 tuples of (i % 37, i): two full frames plus a partial one, with
/// repeated keys for joins/group-bys.
Rows MakeInput(int n = 600) {
  Rows out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    out.push_back(T({Value::Int(i % 37), Value::Int(i)}));
  }
  return out;
}

/// Join build side: (k, k * 1000) for k in [0, keys).
Rows BuildSide(int keys) {
  Rows out;
  for (int k = 0; k < keys; k++) {
    out.push_back(T({Value::Int(k), Value::Int(k * 1000)}));
  }
  return out;
}

/// Stream-order fingerprint.
std::vector<std::string> Strings(const Rows& ts) {
  std::vector<std::string> out;
  out.reserve(ts.size());
  for (const auto& t : ts) out.push_back(t.ToString());
  return out;
}

/// Order-insensitive fingerprint (hash operators emit in table order).
std::vector<std::string> Sorted(const Rows& ts) {
  std::vector<std::string> out = Strings(ts);
  std::sort(out.begin(), out.end());
  return out;
}

/// The source every case reads: `in` re-emitted as k-tuple batches.
StreamPtr Src(Rows in, size_t k) {
  return Rechunked(std::make_unique<VectorSource>(std::move(in)), k);
}

std::pair<Rows, Rows> Halves(Rows in) {
  const auto mid = in.begin() + static_cast<ptrdiff_t>(in.size() / 2);
  return {Rows(std::make_move_iterator(in.begin()), std::make_move_iterator(mid)),
          Rows(std::make_move_iterator(mid), std::make_move_iterator(in.end()))};
}

// ---- brute-force references ---------------------------------------------

Rows KeepIf(const Rows& in, bool (*keep)(const Tuple&)) {
  Rows out;
  for (const auto& t : in) {
    if (keep(t)) out.push_back(t);
  }
  return out;
}

Rows Pick(const Rows& in, std::vector<size_t> fields) {
  Rows out;
  for (const auto& t : in) {
    Tuple p;
    for (size_t f : fields) p.fields.push_back(t.at(f));
    out.push_back(std::move(p));
  }
  return out;
}

/// ORDER BY f0 ASC, f1 DESC.
Rows SortedByKeyThenIdDesc(const Rows& in) {
  Rows out = in;
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    if (F(a, 0) != F(b, 0)) return F(a, 0) < F(b, 0);
    return F(a, 1) > F(b, 1);
  });
  return out;
}

/// GROUP BY f0: (f0, COUNT(*), SUM(f1)).
Rows GroupCountSum(const Rows& in) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (const auto& t : in) {
    auto& g = groups[F(t, 0)];
    g.first++;
    g.second += F(t, 1);
  }
  Rows out;
  for (const auto& [k, g] : groups) {
    out.push_back(T({Value::Int(k), Value::Int(g.first), Value::Int(g.second)}));
  }
  return out;
}

/// Nested-loop equi-join of `in` (probe) with BuildSide(keys) on field 0.
Rows NestedLoopJoin(const Rows& in, int keys, JoinType type) {
  const Rows build = BuildSide(keys);
  Rows out;
  for (const auto& l : in) {
    bool matched = false;
    for (const auto& r : build) {
      if (F(l, 0) != F(r, 0)) continue;
      matched = true;
      if (type != JoinType::kLeftSemi) out.push_back(Tuple::Concat(l, r));
    }
    if (type == JoinType::kLeftSemi && matched) out.push_back(l);
    if (type == JoinType::kLeftOuter && !matched) {
      out.push_back(Tuple::Concat(l, T({Value::Null(), Value::Null()})));
    }
  }
  return out;
}

/// UNNEST over the array [0, f1 % 4): inputs with f1 % 4 == 0 expand to
/// nothing (or, when outer, to one MISSING row).
TupleEval SmallRange() {
  return [](const Tuple& t) -> Result<Value> {
    std::vector<Value> items;
    for (int64_t j = 0; j < F(t, 1) % 4; j++) items.push_back(Value::Int(j));
    return Value::Array(std::move(items));
  };
}

Rows UnnestSmallRange(const Rows& in, bool outer) {
  Rows out;
  for (const auto& t : in) {
    const int64_t n = F(t, 1) % 4;
    for (int64_t j = 0; j < n; j++) {
      out.push_back(Tuple::Concat(t, T({Value::Int(j)})));
    }
    if (n == 0 && outer) out.push_back(Tuple::Concat(t, T({Value::Missing()})));
  }
  return out;
}

Rows Slice(const Rows& in, size_t from, size_t to) {
  to = std::min(to, in.size());
  return Rows(in.begin() + static_cast<ptrdiff_t>(from),
              in.begin() + static_cast<ptrdiff_t>(to));
}

// ---- the sweep ----------------------------------------------------------

struct ParityCase {
  const char* name;
  bool ordered;  // the operator defines its output order
  StreamPtr (*build)(Rows in, size_t k, TempFileManager* tmp);
  Rows (*expect)(const Rows& in);
};

StreamPtr SortById(Rows in, size_t k, TempFileManager* tmp) {
  return std::make_unique<ExternalSortOp>(
      Src(std::move(in), k), std::vector<SortKey>{{Field(1), true}},
      resource::MemoryGrant::Fixed(1 << 24), tmp);
}

const ParityCase kCases[] = {
    {"select", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<SelectOp>(Src(std::move(in), k),
                                         GreaterThan(1, 99));
     },
     [](const Rows& in) {
       return KeepIf(in, [](const Tuple& t) { return F(t, 1) > 99; });
     }},
    {"select_tail",  // fully rejected batches must not end the stream early
     true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<SelectOp>(Src(std::move(in), k),
                                         GreaterThan(1, 550));
     },
     [](const Rows& in) {
       return KeepIf(in, [](const Tuple& t) { return F(t, 1) > 550; });
     }},
    {"select_vectorized", true,  // mask path, same answer as the evaluator
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       BatchPredicate mask = [](const Batch& b, uint8_t* keep) -> Status {
         for (size_t i = 0; i < b.size(); i++) {
           const Value& v = b[i].at(1);
           keep[i] = v.is_numeric() && v.AsNumber() > 99;
         }
         return Status::OK();
       };
       return std::make_unique<SelectOp>(Src(std::move(in), k),
                                         GreaterThan(1, 99), std::move(mask));
     },
     [](const Rows& in) {
       return KeepIf(in, [](const Tuple& t) { return F(t, 1) > 99; });
     }},
    {"project", true,  // reordering keep list -> scratch-cycling path
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(Src(std::move(in), k),
                                          std::vector<size_t>{1, 0});
     },
     [](const Rows& in) { return Pick(in, {1, 0}); }},
    {"project_monotone", true,  // strictly increasing keep list -> in place
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(Src(std::move(in), k),
                                          std::vector<size_t>{1});
     },
     [](const Rows& in) { return Pick(in, {1}); }},
    {"project_dup", true,  // repeated index -> scratch path must copy
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<ProjectOp>(Src(std::move(in), k),
                                          std::vector<size_t>{1, 1, 0});
     },
     [](const Rows& in) { return Pick(in, {1, 1, 0}); }},
    {"assign", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       TupleEval doubler = [](const Tuple& t) -> Result<Value> {
         return Value::Int(t.at(1).AsInt() * 2);
       };
       return std::make_unique<AssignOp>(Src(std::move(in), k),
                                         std::vector<TupleEval>{doubler});
     },
     [](const Rows& in) {
       Rows out;
       for (const auto& t : in) {
         out.push_back(Tuple::Concat(t, T({Value::Int(F(t, 1) * 2)})));
       }
       return out;
     }},
    {"limit", true,  // offset and limit both cross batch edges
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<LimitOp>(Src(std::move(in), k), /*limit=*/300,
                                        /*offset=*/100);
     },
     [](const Rows& in) { return Slice(in, 100, 400); }},
    {"limit_past_end", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<LimitOp>(Src(std::move(in), k), /*limit=*/50,
                                        /*offset=*/580);
     },
     [](const Rows& in) { return Slice(in, 580, 630); }},
    {"unnest", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<UnnestOp>(Src(std::move(in), k), SmallRange());
     },
     [](const Rows& in) { return UnnestSmallRange(in, /*outer=*/false); }},
    {"unnest_outer", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       return std::make_unique<UnnestOp>(Src(std::move(in), k), SmallRange(),
                                         /*outer=*/true);
     },
     [](const Rows& in) { return UnnestSmallRange(in, /*outer=*/true); }},
    {"distinct", true,  // sorted keys, runs of 16-17 duplicates each
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       StreamPtr keys = std::make_unique<ProjectOp>(Src(std::move(in), k),
                                                    std::vector<size_t>{0});
       StreamPtr sorted = std::make_unique<ExternalSortOp>(
           std::move(keys), std::vector<SortKey>{{Field(0), true}},
           resource::MemoryGrant::Fixed(1 << 24), tmp);
       return std::make_unique<StreamDistinctOp>(Rechunked(std::move(sorted), k));
     },
     [](const Rows& in) {
       std::set<int64_t> keys;
       for (const auto& t : in) keys.insert(F(t, 0));
       Rows out;
       for (int64_t key : keys) out.push_back(T({Value::Int(key)}));
       return out;
     }},
    {"union_all", true,
     [](Rows in, size_t k, TempFileManager*) -> StreamPtr {
       auto [a, b] = Halves(std::move(in));
       std::vector<StreamPtr> children;
       children.push_back(Src(std::move(a), k));
       children.push_back(Src(std::move(b), k));
       return std::make_unique<UnionAllOp>(std::move(children));
     },
     [](const Rows& in) { return in; }},
    {"sort_memory", true,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<ExternalSortOp>(
           Src(std::move(in), k),
           std::vector<SortKey>{{Field(0), true}, {Field(1), false}},
           resource::MemoryGrant::Fixed(1 << 24), tmp);
     },
     SortedByKeyThenIdDesc},
    {"sort_spill", true,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<ExternalSortOp>(
           Src(std::move(in), k),
           std::vector<SortKey>{{Field(0), true}, {Field(1), false}},
           resource::MemoryGrant::Fixed(4096), tmp);
     },
     SortedByKeyThenIdDesc},
    {"merge", true,  // children hand over k-tuple batches too
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       auto [a, b] = Halves(std::move(in));
       std::vector<StreamPtr> children;
       children.push_back(Rechunked(SortById(std::move(b), k, tmp), k));
       children.push_back(Rechunked(SortById(std::move(a), k, tmp), k));
       static WorkerPool pool;
       return std::make_unique<OrderedMergeStream>(
           std::move(children), std::vector<SortKey>{{Field(1), true}}, &pool);
     },
     [](const Rows& in) { return in; }},  // input is ordered by f1 already
    {"groupby", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashGroupByOp>(
           Src(std::move(in), k), std::vector<TupleEval>{Field(0)},
           std::vector<AggSpec>{{AggKind::kCount, nullptr},
                                {AggKind::kSum, Field(1)}},
           AggPhase::kComplete, resource::MemoryGrant::Fixed(1 << 24), tmp);
     },
     GroupCountSum},
    {"groupby_spill", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashGroupByOp>(
           Src(std::move(in), k), std::vector<TupleEval>{Field(0)},
           std::vector<AggSpec>{{AggKind::kCount, nullptr},
                                {AggKind::kSum, Field(1)}},
           AggPhase::kComplete, resource::MemoryGrant::Fixed(512), tmp);
     },
     GroupCountSum},
    {"join_inner", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           Src(std::move(in), k), Src(BuildSide(37), k),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kInner, resource::MemoryGrant::Fixed(1 << 24), tmp);
     },
     [](const Rows& in) { return NestedLoopJoin(in, 37, JoinType::kInner); }},
    {"join_grace", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           Src(std::move(in), k), Src(BuildSide(37), k),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kInner, resource::MemoryGrant::Fixed(512), tmp);
     },
     [](const Rows& in) { return NestedLoopJoin(in, 37, JoinType::kInner); }},
    {"join_left_outer", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           Src(std::move(in), k), Src(BuildSide(20), k),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kLeftOuter, resource::MemoryGrant::Fixed(1 << 24), tmp);
     },
     [](const Rows& in) {
       return NestedLoopJoin(in, 20, JoinType::kLeftOuter);
     }},
    {"join_left_semi", false,
     [](Rows in, size_t k, TempFileManager* tmp) -> StreamPtr {
       return std::make_unique<HashJoinOp>(
           Src(std::move(in), k), Src(BuildSide(20), k),
           std::vector<TupleEval>{Field(0)}, std::vector<TupleEval>{Field(0)},
           JoinType::kLeftSemi, resource::MemoryGrant::Fixed(1 << 24), tmp);
     },
     [](const Rows& in) {
       return NestedLoopJoin(in, 20, JoinType::kLeftSemi);
     }},
};

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<ParityCase, size_t>> {
 protected:
  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "axbatch_" + name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    tmp_ = std::make_unique<TempFileManager>(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
  std::unique_ptr<TempFileManager> tmp_;
};

TEST_P(BatchParityTest, MatchesBruteForce) {
  const auto& [c, k] = GetParam();
  const Rows expect = c.expect(MakeInput());
  auto stream = c.build(MakeInput(), k, tmp_.get());
  auto got = CollectAll(stream.get()).value();
  ASSERT_FALSE(expect.empty());
  if (c.ordered) {
    EXPECT_EQ(Strings(got), Strings(expect));
  } else {
    EXPECT_EQ(Sorted(got), Sorted(expect));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, BatchParityTest,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(size_t{1}, size_t{7}, kFrameTuples)),
    [](const ::testing::TestParamInfo<std::tuple<ParityCase, size_t>>& info) {
      return std::string(std::get<0>(info.param).name) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Batch shape ------------------------------------------------------------

TEST(Batch, VectorSourceEmitsFullThenPartialBatches) {
  VectorSource src(MakeInput(600));
  ASSERT_TRUE(src.Open().ok());
  Batch b;
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), kFrameTuples);
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), kFrameTuples);
  ASSERT_TRUE(src.NextBatch(&b).value());
  EXPECT_EQ(b.size(), 600 - 2 * kFrameTuples);
  EXPECT_FALSE(src.NextBatch(&b).value());
  EXPECT_TRUE(b.empty());
  ASSERT_TRUE(src.Close().ok());
}

// ---- Exchanges --------------------------------------------------------------

/// Run `n_producers` -> `n_consumers` with the given route, producers fed
/// k-tuple batches, and expect every consumer to receive exactly the
/// tuples the route sends it (in producer order when there is one
/// producer).
void ExpectExchangeDelivers(size_t n_producers, size_t n_consumers,
                            bool broadcast, bool hash) {
  auto make_route = [&]() {
    return broadcast ? Exchange::BroadcastRoute()
           : hash    ? Exchange::HashRoute({Field(0)}, n_consumers)
                     : Exchange::SingleRoute();
  };
  for (size_t k : {size_t{1}, size_t{7}, kFrameTuples}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    WorkerPool pool;
    Job job(&pool);
    Exchange* ex = job.AddExchange(n_producers, n_consumers);
    std::vector<Rows> expect(n_consumers);
    const Exchange::RoutingFn route = make_route();
    for (size_t p = 0; p < n_producers; p++) {
      Rows data;
      for (int i = 0; i < 400; i++) {
        data.push_back(T({Value::Int(i % 23),
                          Value::Int(static_cast<int64_t>(p) * 1000 + i)}));
      }
      for (const auto& t : data) {
        size_t target = route(t).value();
        for (size_t c = 0; c < n_consumers; c++) {
          if (target == Exchange::kBroadcastAll || target == c) {
            expect[c].push_back(t);
          }
        }
      }
      job.AddProducerTask([ex, k, route = make_route(),
                           data = std::move(data)]() mutable {
        StreamPtr src = Src(std::move(data), k);
        return ex->RunProducer(src.get(), route);
      });
    }
    std::vector<StreamPtr> roots;
    for (size_t c = 0; c < n_consumers; c++) {
      roots.push_back(ex->ConsumerStream(c));
    }
    auto got = job.RunCollect(std::move(roots)).value();
    ASSERT_EQ(got.size(), n_consumers);
    for (size_t c = 0; c < n_consumers; c++) {
      if (n_producers == 1) {
        EXPECT_EQ(Strings(got[c]), Strings(expect[c])) << "consumer " << c;
      } else {
        EXPECT_EQ(Sorted(got[c]), Sorted(expect[c])) << "consumer " << c;
      }
    }
  }
}

TEST(BatchExchange, OneToOneDelivers) {
  ExpectExchangeDelivers(1, 1, /*broadcast=*/false, /*hash=*/false);
}

TEST(BatchExchange, HashMToNDelivers) {
  ExpectExchangeDelivers(3, 4, /*broadcast=*/false, /*hash=*/true);
}

TEST(BatchExchange, BroadcastDelivers) {
  ExpectExchangeDelivers(2, 3, /*broadcast=*/true, /*hash=*/false);
}

TEST(BatchExchange, MergeManyToOneDelivers) {
  ExpectExchangeDelivers(4, 1, /*broadcast=*/false, /*hash=*/false);
}

// ---- Error (poison) propagation --------------------------------------------

TEST(BatchErrors, MidBatchErrorSurfacesThroughOperators) {
  // Batch callback produces one good batch, then fails mid-stream.
  int calls = 0;
  auto src = std::make_unique<CallbackSource>(
      nullptr,
      [&calls](Batch* out) -> Result<bool> {
        out->Clear();
        if (calls++ > 0) return Status::Internal("mid-stream batch failure");
        for (int i = 0; i < 10; i++) {
          out->Add()->fields.push_back(Value::Int(i));
        }
        return true;
      },
      nullptr);
  SelectOp op(std::move(src), GreaterThan(0, -1));
  auto r = CollectAll(&op);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(BatchErrors, BatchProducerFailurePoisonsExchange) {
  WorkerPool pool;
  Job job(&pool);
  Exchange* ex = job.AddExchange(1, 2);
  job.AddProducerTask([ex]() {
    int calls = 0;
    CallbackSource src(
        nullptr,
        [&calls](Batch* out) -> Result<bool> {
          out->Clear();
          if (calls++ > 1) return Status::Internal("injected batch failure");
          for (int i = 0; i < 50; i++) {
            out->Add()->fields.push_back(Value::Int(i));
          }
          return true;
        },
        nullptr);
    return ex->RunProducer(&src, Exchange::BroadcastRoute());
  });
  std::vector<StreamPtr> roots;
  for (int c = 0; c < 2; c++) roots.push_back(ex->ConsumerStream(c));
  auto result = job.RunCollect(std::move(roots));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

// ---- Metrics ----------------------------------------------------------------

TEST(BatchMetrics, SourceCountsBatchesAndTuples) {
  auto before = metrics::Registry::Global().Snapshot();
  VectorSource src(MakeInput(600));
  auto out = CollectAll(&src).value();
  ASSERT_EQ(out.size(), 600u);
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.value("hyracks.batch.batches_emitted"), 3u);
  EXPECT_EQ(delta.value("hyracks.batch.tuples"), 600u);
}

TEST(BatchMetrics, LimitCountsOnlyWhatItEmits) {
  auto before = metrics::Registry::Global().Snapshot();
  LimitOp op(std::make_unique<VectorSource>(MakeInput(600)), /*limit=*/500);
  auto out = CollectAll(&op).value();
  ASSERT_EQ(out.size(), 500u);
  auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
  // Source: 256 + 256 (the limit is reached inside the second batch, so
  // the third is never pulled). Limit: 256 + 244.
  EXPECT_EQ(delta.value("hyracks.batch.batches_emitted"), 4u);
  EXPECT_EQ(delta.value("hyracks.batch.tuples"), 512u + 500u);
}

}  // namespace
}  // namespace asterix::hyracks
