// Tuple-at-a-time vs batch-at-a-time execution through the Hyracks
// pipeline. Runs the same scan→select→project plan twice — fed by a
// source that hands over full kFrameTuples batches ("batch") and by one
// that hands over one-tuple batches ("tuple") — plus a 1:1 exchange fed
// both ways, and reports tuples/sec for each.
//
//   bench_batch_pipeline [--smoke] [--json <path>]
//
// NextBatch is the only pull interface, so "tuple" mode is the batch plan
// with every operator boundary paying its per-call cost (virtual call,
// Result<bool>, cancellation probe, batch bookkeeping) once per tuple
// instead of once per frame. Until the per-tuple Next() path was
// deleted, "tuple" mode drove the plan through Next() instead; rows
// recorded before that change measure that older definition.
//
// The timed region is query execution only — Open(), the drain, Close()
// — identically for both modes. Plan construction and destruction stay
// outside the timer: the scan's backing store outlives the stream either
// way, and teardown cost is a property of the storage layer, not of the
// execution model under measurement.
//
// The select carries both predicate forms, exactly as the executor lowers
// a comparison condition: the interpreted TupleEval and the vectorized
// BatchPredicate (which NextBatch uses). The drain counts rows only —
// result correctness is asserted via the expected cardinality here and
// tuple-for-tuple in tests/hyracks_batch_test.cpp.
//
// The batch/tuple ratio on scan_select_project is the tracked number:
// tools/bench_to_json.sh gates on it and BENCH_BASELINE.json records it.
//
// A second pair runs ORDER BY f0 DESC, f1 LIMIT 10 over the same input:
// "order_limit_topk" is the bounded sort the executor lowers it to (keeps
// 10 tuples), "order_full_sort" the unbounded sort under a LimitOp that it
// replaced. tools/bench_to_json.sh gates top-k <= full sort.
//
// A third pair evaluates mod(field-access($0, "authorId"), 128) over
// records, as the analytics GROUP BY and exchange routing do:
// "expr_compiled" is one evaluator from algebricks::CompileExpr, shared
// by two threads the way an exchange's producers share a routing key;
// "expr_handwritten" is the same logic written with GetField and %.
// Both run through the same TupleEval call on the same tuples, timed from
// a common start to the later thread's end. tools/bench_to_json.sh gates
// compiled <= 5x hand-written.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "algebricks/compiler.h"
#include "bench_json.h"
#include "hyracks/exchange.h"
#include "hyracks/operators.h"
#include "hyracks/sort.h"
#include "hyracks/stream.h"

namespace hx = asterix::hyracks;
using asterix::Result;
using asterix::Status;
using asterix::adm::Value;
using hx::Tuple;

namespace {

// ---- plan pieces ------------------------------------------------------------

/// Interpreted predicate `t[i] < bound`, as the scalar evaluator path.
hx::TupleEval FieldLess(size_t i, int64_t bound) {
  return [i, bound](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t.at(i).is_numeric() && t.at(i).AsNumber() < bound);
  };
}

/// Vectorized form of the same predicate (what
/// algebricks::TryCompileBatchPredicate emits for `lt(var, const)`).
hx::BatchPredicate BatchFieldLess(size_t i, int64_t bound) {
  return [i, bound](const hx::Batch& b, uint8_t* keep) -> Status {
    for (size_t r = 0; r < b.size(); r++) {
      const Value& v = b[r].at(i);
      keep[r] = v.is_numeric() && v.AsNumber() < bound;
    }
    return Status::OK();
  };
}

/// Input relation: n tuples of (i % 1000, i). The select keeps 80%.
std::vector<Tuple> MakeInput(size_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; i++) {
    out.push_back(Tuple({Value::Int(static_cast<int64_t>(i) % 1000),
                         Value::Int(static_cast<int64_t>(i))}));
  }
  return out;
}

/// Materialized source that hands over one tuple per batch: the
/// tuple-at-a-time feed. Single-use, like VectorSource.
class OneTupleSource : public hx::TupleStream {
 public:
  explicit OneTupleSource(std::vector<Tuple> tuples)
      : tuples_(std::move(tuples)) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(hx::Batch* out) override {
    out->Clear();
    if (pos_ >= tuples_.size()) return false;
    out->FillBySwap(&tuples_[pos_++], 1);
    hx::NoteBatchEmitted(1);
    return true;
  }
  Status Close() override { return Status::OK(); }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// The scan: full batches, or one tuple per batch in tuple mode.
/// Both sources are single-use (tuples move out), so every timed run
/// gets a fresh copy of the input.
hx::StreamPtr Scan(std::vector<Tuple> input, bool batch_mode) {
  if (batch_mode) return std::make_unique<hx::VectorSource>(std::move(input));
  return std::make_unique<OneTupleSource>(std::move(input));
}

/// scan → select(f0 < 800).
hx::StreamPtr BuildSelect(std::vector<Tuple> input, bool batch_mode) {
  return std::make_unique<hx::SelectOp>(Scan(std::move(input), batch_mode),
                                        FieldLess(0, 800),
                                        BatchFieldLess(0, 800));
}

/// scan → select(f0 < 800) → project(f1).
hx::StreamPtr BuildPipeline(std::vector<Tuple> input, bool batch_mode) {
  return std::make_unique<hx::ProjectOp>(
      BuildSelect(std::move(input), batch_mode), std::vector<size_t>{1});
}

constexpr uint64_t kTopK = 10;

/// scan → ORDER BY f0 DESC, f1 LIMIT `kTopK`: a bounded sort (`bounded`), or
/// the full sort with a LimitOp on top. The grant fits the whole input, so
/// neither spills.
hx::StreamPtr BuildOrderLimit(std::vector<Tuple> input, bool bounded,
                              asterix::TempFileManager* tmp) {
  auto field = [](size_t i) -> hx::TupleEval {
    return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
  };
  std::vector<hx::SortKey> keys = {{field(0), false}, {field(1), true}};
  auto grant = asterix::resource::MemoryGrant::Fixed(size_t{1} << 30);
  auto scan = Scan(std::move(input), true);
  if (bounded) {
    return std::make_unique<hx::ExternalSortOp>(
        std::move(scan), std::move(keys), std::move(grant), tmp,
        hx::ExternalSortOp::kDefaultMergeFanin, kTopK);
  }
  return std::make_unique<hx::LimitOp>(
      std::make_unique<hx::ExternalSortOp>(std::move(scan), std::move(keys),
                                           std::move(grant), tmp),
      kTopK);
}

/// Records {authorId, messageId, message}, one per tuple, for the
/// expression rows.
std::vector<Tuple> MakeRecords(size_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; i++) {
    const auto id = static_cast<int64_t>(i);
    out.push_back(Tuple({Value::Object(
        {{"authorId", Value::Int(id % 6000)},
         {"messageId", Value::Int(id)},
         {"message", Value::String("message text " + std::to_string(i))}})}));
  }
  return out;
}

/// mod(field-access($0, "authorId"), 128), compiled.
hx::TupleEval CompiledAuthorMod() {
  namespace alg = asterix::algebricks;
  alg::ExprPtr expr = alg::Expr::Call(
      "mod", {alg::Expr::Field(alg::Expr::Variable(0), "authorId"),
              alg::Expr::Constant(Value::Int(128))});
  return alg::CompileExpr(expr, alg::PositionsOf({0}),
                          alg::FunctionRegistry::Instance())
      .value();
}

/// The same logic written by hand.
hx::TupleEval HandwrittenAuthorMod() {
  return [](const Tuple& t) -> Result<Value> {
    const Value& author = t.at(0).GetField("authorId");
    if (!author.is_int()) return Value::Null();
    return Value::Int(author.AsInt() % 128);
  };
}

// ---- drivers ----------------------------------------------------------------

Result<uint64_t> Drain(hx::TupleStream* s) {
  uint64_t rows = 0;
  AX_RETURN_NOT_OK(s->Open());
  hx::Batch batch;
  while (true) {
    AX_ASSIGN_OR_RETURN(bool more, s->NextBatch(&batch));
    if (!more) break;
    rows += batch.size();
  }
  AX_RETURN_NOT_OK(s->Close());
  return rows;
}

/// One timed run: execution time (Open→drain→Close) plus the result
/// cardinality. Plan setup/teardown happen around this in the caller.
struct RunOut {
  uint64_t rows_out = 0;
  double ms = 0;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Result<RunOut> TimedDrain(hx::TupleStream* s) {
  RunOut o;
  const auto t0 = std::chrono::steady_clock::now();
  AX_ASSIGN_OR_RETURN(o.rows_out, Drain(s));
  o.ms = MsSince(t0);
  return o;
}

/// 1:1 exchange: a producer thread pulls the select pipeline and pushes
/// frames; the caller drains the consumer stream. `batch_mode` picks the
/// producer's feed (full batches vs one-tuple batches); the producer packs
/// full frames either way. Timed from producer start to drain end (the
/// producer thread is part of execution).
Result<RunOut> RunExchange(std::vector<Tuple> input, bool batch_mode) {
  hx::Exchange ex(1, 1);
  hx::StreamPtr upstream = BuildSelect(std::move(input), batch_mode);
  hx::StreamPtr consumer = ex.ConsumerStream(0);

  RunOut o;
  const auto t0 = std::chrono::steady_clock::now();
  Status producer_status = Status::OK();
  std::thread producer([&] {
    producer_status = ex.RunProducer(upstream.get(), hx::Exchange::SingleRoute());
  });
  Result<uint64_t> rows = Drain(consumer.get());
  producer.join();
  o.ms = MsSince(t0);
  AX_RETURN_NOT_OK(producer_status);
  AX_ASSIGN_OR_RETURN(o.rows_out, std::move(rows));
  return o;
}

/// Two threads evaluate the one `eval` over the two halves of `tuples`.
/// Timed from the common start to the later thread's end, so thread
/// creation stays outside; rows_out counts the int results.
Result<RunOut> RunSharedEval(const hx::TupleEval& eval,
                             const std::vector<Tuple>& tuples) {
  constexpr size_t kThreads = 2;
  std::atomic<bool> go{false};
  std::atomic<uint64_t> ints{0};
  Status status[kThreads];
  double ms[kThreads] = {};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; w++) {
    threads.emplace_back([&, w] {
      const size_t lo = tuples.size() * w / kThreads;
      const size_t hi = tuples.size() * (w + 1) / kThreads;
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto t0 = std::chrono::steady_clock::now();
      uint64_t n = 0;
      for (size_t i = lo; i < hi; i++) {
        Result<Value> v = eval(tuples[i]);
        if (!v.ok()) {
          status[w] = v.status();
          return;
        }
        n += v->is_int();
      }
      ms[w] = MsSince(t0);
      ints += n;
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  RunOut o;
  for (size_t w = 0; w < kThreads; w++) {
    AX_RETURN_NOT_OK(status[w]);
    o.ms = std::max(o.ms, ms[w]);
  }
  o.rows_out = ints.load();
  return o;
}

/// One benchmark scenario: builds and runs a plan over a fresh input copy.
struct Scenario {
  const char* name;
  uint64_t expect_rows;
  std::function<Result<RunOut>(std::vector<Tuple>)> run;
  double best_ms = 1e18;
};

/// Run all scenarios `reps` times in round-robin order and keep each
/// scenario's minimum execution time. Interleaving matters: a noisy
/// window (this is often a shared, single-core box) then degrades one
/// *rep* of every scenario instead of every rep of one scenario, and the
/// minimum discards it.
void RunAll(std::vector<Scenario>* scenarios, const std::vector<Tuple>& master,
            int reps) {
  for (int r = 0; r < reps; r++) {
    for (Scenario& s : *scenarios) {
      std::vector<Tuple> input = master;  // untimed deep copy
      Result<RunOut> out = s.run(std::move(input));
      if (!out.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", s.name,
                     out.status().ToString().c_str());
        std::exit(1);
      }
      if (out->rows_out != s.expect_rows) {
        std::fprintf(stderr, "%s row count mismatch: got %llu want %llu\n",
                     s.name, static_cast<unsigned long long>(out->rows_out),
                     static_cast<unsigned long long>(s.expect_rows));
        std::exit(1);
      }
      s.best_ms = std::min(s.best_ms, out->ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axbench::HasFlag(argc, argv, "--smoke");
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  const size_t n = smoke ? 20'000 : 50'000;
  const int reps = smoke ? 9 : 41;
  // select f0 < 800 over i % 1000 keeps exactly 800 of every 1000.
  const uint64_t expect = n / 1000 * 800;

  std::printf("batch pipeline bench: %zu tuples, best of %d interleaved reps%s\n\n",
              n, reps, smoke ? " (smoke)" : "");
  const std::vector<Tuple> master = MakeInput(n);

  std::vector<Scenario> scenarios;
  scenarios.push_back({"scan_select_project_tuple", expect,
                       [](std::vector<Tuple> in) {
                         auto p = BuildPipeline(std::move(in), false);
                         return TimedDrain(p.get());
                       }});
  scenarios.push_back({"scan_select_project_batch", expect,
                       [](std::vector<Tuple> in) {
                         auto p = BuildPipeline(std::move(in), true);
                         return TimedDrain(p.get());
                       }});
  scenarios.push_back({"exchange_1to1_tuple", expect,
                       [](std::vector<Tuple> in) {
                         return RunExchange(std::move(in), false);
                       }});
  scenarios.push_back({"exchange_1to1_batch", expect,
                       [](std::vector<Tuple> in) {
                         return RunExchange(std::move(in), true);
                       }});
  const std::string tmp_dir =
      (std::filesystem::temp_directory_path() / "axbench_batch_pipeline")
          .string();
  std::filesystem::create_directories(tmp_dir);
  asterix::TempFileManager tmp(tmp_dir);
  for (bool bounded : {true, false}) {
    scenarios.push_back({bounded ? "order_limit_topk" : "order_full_sort", kTopK,
                         [bounded, &tmp](std::vector<Tuple> in) {
                           auto p = BuildOrderLimit(std::move(in), bounded, &tmp);
                           return TimedDrain(p.get());
                         }});
  }
  const std::vector<Tuple> records = MakeRecords(n);
  const hx::TupleEval compiled = CompiledAuthorMod();
  const hx::TupleEval handwritten = HandwrittenAuthorMod();
  for (const auto& [name, eval] :
       {std::pair{"expr_compiled", &compiled},
        std::pair{"expr_handwritten", &handwritten}}) {
    scenarios.push_back({name, n, [eval, &records](std::vector<Tuple>) {
                           return RunSharedEval(*eval, records);
                         }});
  }
  RunAll(&scenarios, master, reps);
  std::filesystem::remove_all(tmp_dir);

  axbench::JsonReport report("bench_batch_pipeline");
  std::printf("%-28s %10s %14s\n", "scenario", "ms", "tuples/sec");
  for (const auto& s : scenarios) {
    report.Add(s.name, n, s.best_ms);
    std::printf("%-28s %10.2f %14.0f\n", s.name, s.best_ms,
                axbench::TuplesPerSec(n, s.best_ms));
  }

  const double speedup = scenarios[0].best_ms / scenarios[1].best_ms;
  const double ex_speedup = scenarios[2].best_ms / scenarios[3].best_ms;
  std::printf("\nscan_select_project batch speedup: %.2fx\n", speedup);
  std::printf("exchange_1to1 batch speedup:       %.2fx\n", ex_speedup);
  std::printf("order_limit top-k speedup:         %.2fx\n",
              scenarios[5].best_ms / scenarios[4].best_ms);
  std::printf("expr compiled / hand-written:      %.2fx\n",
              scenarios[6].best_ms / scenarios[7].best_ms);

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
