// perfbench: one run of one workload against a fresh asterix-lite Instance.
//
//   perfbench --workload analytics|lookup|ingest --seed N --seconds S
//             --trace 0|1 [--work-dir D] [--out-dir D]
//             [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 sets up three times (setup_s is the median), then runs one
// closed-loop client for S seconds with nothing traced and reports the
// end-to-end metrics. --trace 1 runs S/2 seconds untraced and S/2 traced on
// a second instance with query profiling on, and reports the per-layer
// metrics plus the tracing overhead. Either way the full result document,
// with its provenance, is printed and written under --out-dir, and the
// last stdout line is {"correct","attempted","failed","metrics"}. A failed
// or wrong op makes the exit code 1; a run that cannot set up exits 2
// without a result line.
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "asterix/instance.h"
#include "bench_math.h"
#include "common/metrics.h"
#include "storage/maintenance.h"
#include "trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using asterix::Instance;
using asterix::InstanceOptions;
using asterix::Result;
using asterix::Status;

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr size_t kTraceFileOps = 2000;  // ops written to the trace file

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      std::string val = argv[i + 1];
      if (key == "--workload") args->workload = val;
      else if (key == "--seed") args->seed = std::stoull(val);
      else if (key == "--seconds") args->seconds = std::stod(val);
      else if (key == "--trace") args->trace = val == "1";
      else if (key == "--work-dir") args->work_dir = val;
      else if (key == "--out-dir") args->out_dir = val;
      else if (key == "--git-sha") args->git_sha = val;
      else if (key == "--source-digest") args->source_digest = val;
      else return false;
    }
  } catch (const std::exception&) {  // std::stoull / std::stod
    return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// ---- a minimal ordered JSON writer -----------------------------------------

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// Appends `item` to a comma-separated list.
void Append(std::string* list, const std::string& item) {
  if (!list->empty()) *list += ',';
  *list += item;
}

class Json {
 public:
  Json& Raw(const std::string& key, const std::string& raw) {
    Append(&body_, Quote(key) + ":" + raw);
    return *this;
  }
  Json& Set(const std::string& key, double v) { return Raw(key, Num(v)); }
  Json& Set(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Set(const std::string& key, const char* v) {
    return Raw(key, Quote(v));
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Flag(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- measurement helpers ----------------------------------------------------

void Drain(Instance* db) {
  if (db->maintenance() != nullptr) db->maintenance()->Drain();
}

uint64_t Wchar() { return ReadSelfWchar().value_or(0); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// CPUs this process may run on (run.py pins each workload to a fixed set).
int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

InstanceOptions Options(const std::string& dir, bool profile) {
  InstanceOptions o;  // defaults, as a user gets them
  o.base_dir = dir;
  o.profile_queries = profile;
  return o;
}

struct SetupResult {
  std::unique_ptr<Instance> db;
  double seconds = 0;          // time in the program's calls
  uint64_t text_bytes = 0;     // ADM text written by the load and warm-up
  CheckResult warmup;
};

// Open, DDL, initial load, Checkpoint, drain, warm-up: setup_s covers the
// program's calls in all of them; input generation is not in it.
Result<SetupResult> SetUp(Workload& w, const std::string& dir, bool profile) {
  fs::remove_all(dir);
  CallClock clock;
  auto opened = clock.Time([&] { return Instance::Open(Options(dir, profile)); });
  if (!opened.ok()) return opened.status();
  SetupResult s;
  s.db = std::move(opened).value();
  AX_RETURN_NOT_OK(w.Load(s.db.get(), &clock));
  AX_RETURN_NOT_OK(clock.Time([&] { return s.db->Checkpoint(); }));
  clock.Time([&] {
    Drain(s.db.get());
    return 0;
  });
  for (uint64_t i = 0; i < w.warmup_ops(); i++) {
    OpResult r = clock.Time([&] { return w.RunOp(s.db.get(), i, nullptr); });
    s.warmup.attempted++;
    if (!r.ok) s.warmup.failed++;
  }
  s.seconds = static_cast<double>(clock.ns()) / 1e9;
  s.text_bytes = w.WrittenTextBytes();
  return s;
}

struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<std::vector<double>> latency_ms;  // per class
  // Bytes under the instance directory per live ADM-text byte, sampled
  // after each checkpoint: the merge policy makes space a sawtooth in the
  // number of ops, so one sample would depend on where a run stopped.
  std::vector<double> space_amp;
};

void SampleSpace(const Workload& w, const std::string& dir, Phase* p) {
  p->space_amp.push_back(Ratio(static_cast<double>(DirBytes(dir)),
                               static_cast<double>(w.LiveTextBytes())));
}

// The closed loop: one client, next op when the last one returned.
Phase RunPhase(Workload& w, Instance* db, const std::string& dir,
               uint64_t first_op, double seconds, TraceContext* trace) {
  Phase p;
  p.latency_ms.resize(w.classes().size());
  uint64_t every = w.checkpoint_every();
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = first_op; NowNs() < deadline; i++) {
    OpResult r = w.RunOp(db, i, trace);
    p.latency_ms[r.op_class].push_back(r.latency_ms);
    if (!r.ok) p.failed++;
    p.ops++;
    if (every != 0 && (i + 1) % every == 0) {
      Status s = Traced(trace != nullptr ? &trace->spans : nullptr,
                        "asterix.checkpoint", [&] { return db->Checkpoint(); });
      if (!s.ok()) p.failed++;
      SampleSpace(w, dir, &p);
    }
  }
  p.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return p;
}

// Let the flushes and merges the phase started finish. No checkpoint here:
// it would add a component to every tree, so whether lookup's base trees
// reached a full merge would depend even more on how many ops a run made.
void Settle(const Workload& w, Instance* db, const std::string& dir,
            Phase* p) {
  Drain(db);
  SampleSpace(w, dir, p);
}

struct ClassSummary {
  std::string json;
  double p50 = 0;
  double tail = 0;
};

std::vector<ClassSummary> Summarize(const Workload& w, const Phase& p,
                                    bool* tail_rule_ok) {
  std::vector<size_t> counts;
  for (const auto& lat : p.latency_ms) counts.push_back(lat.size());
  double tail_p = w.tail_percentile();
  // The fixed tail must still leave >= 10 samples beyond it in every class.
  auto best = ChooseTailPercentile(counts, {tail_p});
  *tail_rule_ok = best.has_value();
  std::vector<ClassSummary> out;
  for (size_t c = 0; c < p.latency_ms.size(); c++) {
    ClassSummary s;
    s.p50 = Percentile(p.latency_ms[c], 50);
    s.tail = Percentile(p.latency_ms[c], tail_p);
    s.json = Json()
                 .Set("class", w.classes()[c])
                 .Int("samples", counts[c])
                 .Set("p50_ms", s.p50)
                 .Set("tail_ms", s.tail)
                 .Int("samples_beyond_tail", SamplesBeyond(counts[c], tail_p))
                 .str();
    out.push_back(std::move(s));
  }
  return out;
}

std::string Provenance(const Args& args) {
  InstanceOptions d;
#ifdef NDEBUG
  constexpr bool kNdebug = true;
#else
  constexpr bool kNdebug = false;
#endif
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  std::string instance =
      Json()
          .Int("num_partitions", d.num_partitions)
          .Int("buffer_cache_pages", d.buffer_cache_pages)
          .Int("lsm_mem_budget_bytes", d.lsm_mem_budget_bytes)
          .Int("maintenance_threads", d.maintenance_threads)
          .Set("wal_sync", d.wal_sync == asterix::txn::SyncMode::kNoSync
                               ? "kNoSync"
                               : "kSync")
          .str();
  return Json()
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Flag("ndebug", kNdebug)
      .Flag("optimized", kOptimized)
      .Set("compiler", __VERSION__)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("git_sha", args.git_sha)
      .Set("source_digest", args.source_digest)
      .Int("seed", args.seed)
      .Flag("trace", args.trace)
      .Int("cpus", AffinityCpus())
      .Int("clients", 1)
      .Raw("instance", instance)
      .str();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Json j;
  for (const Metric& m : metrics) {
    j.Raw(m.name, Json().Set("value", m.value).Set("unit", m.unit).str());
  }
  return j.str();
}

// ---- the two kinds of run ---------------------------------------------------

struct Outcome {
  std::vector<Metric> metrics;
  std::string detail;  // workload-specific part of the result document
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void Count(Outcome* out, const CheckResult& c) {
  out->attempted += c.attempted;
  out->failed += c.failed;
}

void Count(Outcome* out, const Phase& p) {
  out->attempted += p.ops;
  out->failed += p.failed;
}

Result<Outcome> RunEndToEnd(Workload& w, const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  SetupResult last;
  // write_amp covers the whole run: every setup's load and warm-up, then
  // the timed phase. A 20-second phase alone is lumpy: lookup writes so
  // little that one full merge of a base tree moved its ratio from 2.2 to
  // 15, and analytics writes nothing while timed.
  uint64_t wchar_start = Wchar();
  uint64_t text_bytes = 0;
  for (int k = 0; k < kSetups; k++) {
    std::string dir = args.work_dir + "/setup" + std::to_string(k);
    AX_ASSIGN_OR_RETURN(SetupResult s, SetUp(w, dir, /*profile=*/false));
    setup_s.push_back(s.seconds);
    text_bytes += s.text_bytes;
    Count(&out, s.warmup);
    if (k + 1 < kSetups) {
      s.db.reset();
      fs::remove_all(dir);
    } else {
      last = std::move(s);
    }
  }
  std::string dir = args.work_dir + "/setup" + std::to_string(kSetups - 1);
  Instance* db = last.db.get();

  w.ResetWritten();
  auto& registry = asterix::metrics::Registry::Global();
  auto before = registry.Snapshot();
  Phase p = RunPhase(w, db, dir, w.warmup_ops(), args.seconds, nullptr);
  Settle(w, db, dir, &p);
  Count(&out, p);
  auto d = registry.Snapshot().DeltaSince(before);
  uint64_t wchar = WcharDelta(wchar_start, Wchar());
  text_bytes += w.WrittenTextBytes();
  Count(&out, w.Verify(db));

  bool tail_rule_ok = false;
  std::vector<ClassSummary> classes = Summarize(w, p, &tail_rule_ok);
  std::vector<double> p50s, tails;
  std::string class_json;
  for (const ClassSummary& c : classes) {
    p50s.push_back(c.p50);
    tails.push_back(c.tail);
    Append(&class_json, c.json);
  }
  out.metrics = {
      {"setup_s", "s", Percentile(setup_s, 50)},
      {"ops_per_s", "1/s", Ratio(static_cast<double>(p.ops), p.wall_s)},
      {"op_p50_ms", "ms", GeometricMean(p50s)},
      {"op_tail_ms", "ms", GeometricMean(tails)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"space_amp", "ratio", Percentile(p.space_amp, 50)},
      {"write_amp", "ratio",
       Ratio(static_cast<double>(wchar), static_cast<double>(text_bytes))},
  };
  std::string setups;
  for (double s : setup_s) Append(&setups, Num(s));
  out.detail = Json()
                   .Int("timed_ops", p.ops)
                   .Set("timed_wall_s", p.wall_s)
                   .Int("space_samples", p.space_amp.size())
                   .Set("tail_percentile", w.tail_percentile())
                   .Flag("tail_rule_ok", tail_rule_ok)
                   .Raw("classes", "[" + class_json + "]")
                   .Raw("setup_s_each", "[" + setups + "]")
                   .Int("wchar", wchar)
                   .Int("text_bytes", text_bytes)
                   .Int("timed_flushes", d.value("storage.lsm.flushes") +
                                             d.value("storage.lsm_rtree.flushes"))
                   .Int("timed_merges", d.value("storage.lsm.merges") +
                                            d.value("storage.lsm_rtree.merges"))
                   .Int("timed_merge_bytes", d.value("storage.lsm.merge_bytes"))
                   .str();
  return out;
}

Result<Outcome> RunTraced(Workload& w, const Args& args) {
  Outcome out;
  double half = args.seconds / 2;
  // Untraced half: the reference for the tracing overhead.
  double untraced_ops_per_s = 0;
  {
    std::string dir = args.work_dir + "/untraced";
    AX_ASSIGN_OR_RETURN(SetupResult s, SetUp(w, dir, /*profile=*/false));
    Count(&out, s.warmup);
    Phase p = RunPhase(w, s.db.get(), dir, w.warmup_ops(), half, nullptr);
    Count(&out, p);
    untraced_ops_per_s = Ratio(static_cast<double>(p.ops), p.wall_s);
    s.db.reset();
    fs::remove_all(dir);
  }
  std::string dir = args.work_dir + "/traced";
  AX_ASSIGN_OR_RETURN(SetupResult s, SetUp(w, dir, /*profile=*/true));
  Count(&out, s.warmup);
  Instance* db = s.db.get();
  TraceContext trace;
  auto& registry = asterix::metrics::Registry::Global();
  auto before = registry.Snapshot();
  Phase p = RunPhase(w, db, dir, w.warmup_ops(), half, &trace);
  Settle(w, db, dir, &p);
  Count(&out, p);
  auto d = registry.Snapshot().DeltaSince(before);
  Count(&out, w.Verify(db));
  size_t disk_components = 0;
  for (const char* ds : {"GleambookUsers", "GleambookMessages"}) {
    auto st = db->DatasetStats(ds);
    if (st.ok()) disk_components += st->disk_components;
  }

  auto spans = trace.spans.Aggregate();
  auto mean = [&](const char* name, double scale) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.items == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) /
           static_cast<double>(it->second.items) * scale;
  };
  auto v = [&](const char* name) { return static_cast<double>(d.value(name)); };
  double ops = static_cast<double>(p.ops);
  double queries = static_cast<double>(trace.queries);
  double traced_ops_per_s = Ratio(ops, p.wall_s);
  double hits = v("storage.buffer_cache.hits");
  double misses = v("storage.buffer_cache.misses");
  auto hyracks_ms = [&](const char* family) {
    return Ratio(trace.hyracks_self_ms[family], queries);
  };
  out.metrics = {
      {"sqlpp.parse_us", "us", mean("sqlpp.parse", 1e-3)},
      {"sqlpp.translate_us", "us", mean("sqlpp.translate", 1e-3)},
      {"algebricks.optimize_us", "us", mean("algebricks.optimize", 1e-3)},
      {"asterix.execute_us", "us", Ratio(trace.execute_ms * 1e3, queries)},
      {"asterix.statement_overhead_us", "us",
       Ratio(trace.overhead_ms * 1e3, queries)},
      {"asterix.get_by_key_us", "us", mean("asterix.get_by_key", 1e-3)},
      {"asterix.upsert_us", "us", mean("asterix.upsert", 1e-3)},
      {"asterix.delete_us", "us", mean("asterix.delete", 1e-3)},
      {"asterix.checkpoint_ms", "ms", mean("asterix.checkpoint", 1e-6)},
      {"hyracks.scan_ms", "ms/query", hyracks_ms("scan")},
      {"hyracks.groupby_ms", "ms/query", hyracks_ms("groupby")},
      {"hyracks.join_ms", "ms/query", hyracks_ms("join")},
      {"hyracks.sort_ms", "ms/query", hyracks_ms("sort")},
      {"hyracks.exchange_ms", "ms/query", hyracks_ms("exchange")},
      {"hyracks.exchange_tuples", "tuples/query",
       Ratio(v("hyracks.exchange.tuples_sent"), queries)},
      {"hyracks.fallback_batches", "batches/query",
       Ratio(v("hyracks.batch.fallback_batches"), queries)},
      {"hyracks.spill_bytes", "B/query",
       Ratio(v("hyracks.spill.bytes_written"), queries)},
      {"adm.decode_ns", "ns", mean("adm.decode", 1)},
      {"adm.encode_ns", "ns", mean("adm.encode", 1)},
      {"adm.key_encode_ns", "ns", mean("adm.key_encode", 1)},
      {"storage.cache_hit_ratio", "ratio", Ratio(hits, hits + misses)},
      {"storage.cache_misses_per_op", "1/op", Ratio(misses, ops)},
      {"storage.bloom_negative_ratio", "ratio",
       Ratio(v("storage.bloom.negatives"), v("storage.bloom.probes"))},
      {"storage.disk_components", "count",
       static_cast<double>(disk_components)},
      {"storage.flushes_per_kop", "1/kop",
       Ratio((v("storage.lsm.flushes") + v("storage.lsm_rtree.flushes")) * 1e3,
             ops)},
      {"storage.merges_per_kop", "1/kop",
       Ratio((v("storage.lsm.merges") + v("storage.lsm_rtree.merges")) * 1e3,
             ops)},
      {"storage.flush_bytes_per_op", "B/op",
       Ratio(v("storage.lsm.flush_bytes"), ops)},
      {"storage.merge_bytes_per_op", "B/op",
       Ratio(v("storage.lsm.merge_bytes"), ops)},
      {"storage.write_stall_ms", "ms/kop",
       Ratio((v("storage.lsm.write_stall_ns") +
              v("storage.lsm_rtree.write_stall_ns")) / 1e6 * 1e3,
             ops)},
      {"txn.wal_bytes_per_op", "B/op", Ratio(v("txn.wal.bytes"), ops)},
      {"txn.wal_appends_per_op", "1/op", Ratio(v("txn.wal.appends"), ops)},
      {"resource.grant_bytes_per_query", "B/query",
       Ratio(v("resource.grant_bytes"), queries)},
      {"trace.overhead_pct", "%",
       untraced_ops_per_s > 0
           ? (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100
           : 0},
  };

  std::string span_json;
  for (const auto& [name, st] : spans) {
    Append(&span_json,
                 Json()
                     .Set("name", name)
                     .Int("spans", st.spans)
                     .Int("items", st.items)
                     .Set("total_ms", static_cast<double>(st.total_ns) / 1e6)
                     .Set("self_ms", static_cast<double>(st.self_ns) / 1e6)
                     .str());
  }
  std::string trace_path = args.out_dir + "/trace-" + w.name() + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream(trace_path) << trace.spans.ToChromeTrace(kTraceFileOps);
  out.detail = Json()
                   .Set("untraced_ops_per_s", untraced_ops_per_s)
                   .Set("traced_ops_per_s", traced_ops_per_s)
                   .Int("traced_ops", p.ops)
                   .Int("queries", trace.queries)
                   .Raw("spans", "[" + span_json + "]")
                   .Set("chrome_trace", trace_path)
                   .str();
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analytics|lookup|ingest "
                 "--seed N --seconds S --trace 0|1 [--work-dir D] "
                 "[--out-dir D] [--git-sha SHA] [--source-digest HEX]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  fs::remove_all(args.work_dir, ec);

  workload->Generate(args.seed);  // inputs first, outside every timing
  auto outcome = args.trace ? RunTraced(*workload, args)
                            : RunEndToEnd(*workload, args);
  fs::remove_all(args.work_dir, ec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.status().ToString().c_str());
    return 2;
  }
  bool correct = outcome->failed == 0;
  std::string metrics = MetricsJson(outcome->metrics);
  std::string doc = Json()
                        .Set("workload", args.workload)
                        .Set("seconds", args.seconds)
                        .Raw("provenance", Provenance(args))
                        .Flag("correct", correct)
                        .Int("attempted", outcome->attempted)
                        .Int("failed", outcome->failed)
                        .Raw("detail", outcome->detail)
                        .Raw("metrics", metrics)
                        .str();
  std::string doc_path = args.out_dir + "/result-" + args.workload + "-seed" +
                         std::to_string(args.seed) + "-trace" +
                         (args.trace ? "1" : "0") + ".json";
  std::ofstream(doc_path) << doc << "\n";
  std::printf("%s\n", doc.c_str());
  std::printf("%s\n", Json()
                          .Flag("correct", correct)
                          .Int("attempted", outcome->attempted)
                          .Int("failed", outcome->failed)
                          .Raw("metrics", metrics)
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}
