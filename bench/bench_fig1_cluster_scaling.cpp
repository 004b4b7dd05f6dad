// FIG1: the shared-nothing cluster architecture of paper Fig. 1. Two
// classic parallel-database measurements on the simulated cluster:
//   * speed-up: fixed total data, growing partition count — queries should
//     get faster (near-linearly for scan/aggregate work), and
//   * scale-up: data grows with the partition count — query time should
//     stay roughly flat.
// (Partitions are threads here, so speed-up saturates at the host's core
// count; the *code path* — hash partitioning, exchanges, per-partition
// LSM storage — is identical to a physical cluster's.)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_json.h"

#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "common/metrics.h"

using namespace asterix;

namespace {
double RunQueryMs(Instance* instance, const std::string& q, int reps) {
  // One warm-up, then the median-ish average of `reps` runs.
  (void)instance->Execute(q).value();
  double total = 0;
  for (int r = 0; r < reps; r++) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = instance->Execute(q);
    if (!res.ok()) {
      std::fprintf(stderr, "query failed: %s\n", res.status().ToString().c_str());
      exit(1);
    }
    total += std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  }
  return total / reps;
}

std::unique_ptr<Instance> LoadGleambook(const std::string& dir,
                                        size_t partitions, int64_t users,
                                        int64_t messages,
                                        bool profile = false) {
  std::filesystem::remove_all(dir);
  InstanceOptions options;
  options.base_dir = dir;
  options.num_partitions = partitions;
  options.buffer_cache_pages = 8192;
  options.profile_queries = profile;
  auto instance = Instance::Open(options).value();
  gleambook::GeneratorOptions gen_opts;
  gen_opts.num_users = users;
  gen_opts.num_messages = messages;
  gleambook::Generator gen(gen_opts);
  if (!instance->ExecuteScript(gleambook::Generator::Ddl(false)).ok()) exit(1);
  for (const auto& u : gen.Users()) {
    if (!instance->UpsertValue("GleambookUsers", u).ok()) exit(1);
  }
  for (const auto& m : gen.Messages()) {
    if (!instance->UpsertValue("GleambookMessages", m).ok()) exit(1);
  }
  if (!instance->Checkpoint().ok()) exit(1);
  return instance;
}

// Scan-heavy aggregation with a bounded group count (author buckets):
// partial aggregation collapses each partition's rows to ~128 groups, so
// the exchange is tiny and the scan parallelizes.
const char* kAggQuery =
    "SELECT g AS bucket, COUNT(m.messageId) AS n, "
    "MAX(string_length(m.message)) AS longest "
    "FROM GleambookMessages m GROUP BY m.authorId % 128 AS g";
const char* kJoinQuery =
    "SELECT COUNT(*) AS n FROM GleambookUsers u "
    "JOIN GleambookMessages m ON m.authorId = u.id "
    "WHERE COLL_COUNT(u.friendIds) > 5";
}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string base = std::filesystem::temp_directory_path() / "ax_bench_fig1";
  // --smoke: tiny data + fewer configurations so CI can run the full code
  // path (including the profiled run) in seconds.
  const bool smoke = axbench::HasFlag(argc, argv, "--smoke");
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  const int kReps = smoke ? 1 : 3;
  // axbench-v1 entries: one per (section, partition count), throughput in
  // scanned tuples/sec so it is comparable with the pipeline benches.
  axbench::JsonReport report("bench_fig1_cluster_scaling");

  std::printf("FIG1: shared-nothing scaling (Fig. 1 architecture)%s\n",
              smoke ? " [smoke]" : "");
  std::printf("host: %u hardware threads — partitions are threads here, so "
              "speed-up saturates at that count; the code path is a real "
              "cluster's\n\n",
              std::thread::hardware_concurrency());

  // ---- speed-up: fixed data, more partitions --------------------------------
  const int64_t kUsers = smoke ? 2000 : 20000;
  const int64_t kMessages = smoke ? 6000 : 60000;
  std::printf("---- speed-up (fixed: %lldk messages) ----\n",
              (long long)(kMessages / 1000));
  std::printf("%-12s %14s %14s %12s\n", "partitions", "agg query", "join query",
              "agg speedup");
  double base_agg = 0;
  for (size_t p : smoke ? std::vector<size_t>{1, 2}
                        : std::vector<size_t>{1, 2, 4, 8}) {
    auto instance = LoadGleambook(base, p, kUsers, kMessages);
    double agg = RunQueryMs(instance.get(), kAggQuery, kReps);
    double join = RunQueryMs(instance.get(), kJoinQuery, kReps);
    if (p == 1) base_agg = agg;
    std::printf("%-12zu %11.1f ms %11.1f ms %11.2fx\n", p, agg, join,
                base_agg / agg);
    const uint64_t scanned = static_cast<uint64_t>(kMessages);
    report.Add("speedup_agg_p" + std::to_string(p), scanned, agg);
    report.Add("speedup_join_p" + std::to_string(p), scanned, join);
    instance.reset();
    std::filesystem::remove_all(base);
  }

  // ---- scale-up: data grows with partitions ---------------------------------
  if (!smoke) {
    std::printf("\n---- scale-up (per-partition: %lldk messages) ----\n",
                (long long)(kMessages / 4000));
    std::printf("%-12s %12s %14s %14s\n", "partitions", "messages",
                "agg query", "vs 1-part");
    double scale_base = 0;
    for (size_t p : {1, 2, 4}) {
      int64_t msgs = static_cast<int64_t>(p) * (kMessages / 4);
      auto instance =
          LoadGleambook(base, p, static_cast<int64_t>(p) * (kUsers / 4), msgs);
      double agg = RunQueryMs(instance.get(), kAggQuery, kReps);
      if (p == 1) scale_base = agg;
      std::printf("%-12zu %12lld %11.1f ms %13.2fx\n", p, (long long)msgs, agg,
                  agg / scale_base);
      report.Add("scaleup_agg_p" + std::to_string(p),
                 static_cast<uint64_t>(msgs), agg);
      instance.reset();
      std::filesystem::remove_all(base);
    }
    std::printf("\nlinear data scaling via PK hash partitioning: each "
                "partition stores and scans only its share; exchanges "
                "repartition mid-query (Fig. 1's Hyracks dataflow layer).\n");
  }

  // ---- profiling overhead: the <5% observability contract -------------------
  // Same instance shape, same query; the only difference is
  // InstanceOptions::profile_queries. Off must cost nothing (no wrappers
  // are created); on must stay within a few percent (exact per-batch
  // timing: one clock pair per NextBatch call).
  {
    const size_t kProfParts = smoke ? 2 : 4;
    const int kProfReps = smoke ? 3 : 10;
    std::printf("\n---- profiling overhead (%zu partitions, agg query) ----\n",
                kProfParts);
    auto plain = LoadGleambook(base, kProfParts, kUsers, kMessages);
    double off_ms = RunQueryMs(plain.get(), kAggQuery, kProfReps);
    plain.reset();
    std::filesystem::remove_all(base);

    auto profiled =
        LoadGleambook(base, kProfParts, kUsers, kMessages, /*profile=*/true);
    double on_ms = RunQueryMs(profiled.get(), kAggQuery, kProfReps);
    std::printf("%-24s %10.1f ms\n", "profiling off", off_ms);
    std::printf("%-24s %10.1f ms  (%+.1f%%)\n", "profiling on", on_ms,
                (on_ms / off_ms - 1.0) * 100.0);
    report.Add("profiling_off", static_cast<uint64_t>(kMessages), off_ms);
    report.Add("profiling_on", static_cast<uint64_t>(kMessages), on_ms);

    // One profiled run with counters attributed to it: the per-operator
    // plan tree plus the exchange traffic the registry saw.
    auto before = metrics::Registry::Global().Snapshot();
    auto result = profiled->Execute(kJoinQuery).value();
    auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
    std::printf("\nprofiled join plan (join query, %zu partitions):\n%s",
                kProfParts, result.profiled_plan.c_str());
    std::printf("\nmetrics moved by that one query:\n%s",
                delta.ToString("hyracks.").c_str());
    profiled.reset();
    std::filesystem::remove_all(base);
  }

  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
