// Columnar-vs-row scan throughput (ISSUE 7 acceptance bench): the same
// projection-heavy query — 2 of 10 fields, with a pushed predicate on a
// fixed-width column — over the same records stored once in the default
// row format and once columnar (WITH {"storage-format":"columnar"}).
//
//   bench_columnar_scan [--smoke] [--json <path>]
//
// The row scan reads every full record from its pages and walks all of its
// bytes, but decodes only the needed fields (name, score, age) and steps
// over the other seven in place; the columnar scan reads only the three needed
// column pages (name, score, age), evaluates age > 85 on the packed int64
// column, and materializes just the ~4% of rows that survive. Both
// datasets are checkpointed before timing so every timed scan runs against
// immutable disk components (one per partition: the memory budget is sized
// so nothing auto-flushes mid-load), and both queries are verified to
// return the same number of rows each rep.
//
// The tracked gate (tools/bench_to_json.sh): the committed full-run
// baseline must show columnar_scan_col at least 1.5x faster than
// columnar_scan_row; fresh CI smoke runs gate only col <= row, because
// shared runners are too noisy to pin a ratio.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "asterix/instance.h"
#include "bench_json.h"

using asterix::Instance;
using asterix::InstanceOptions;
using asterix::QueryResult;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void Die(const std::string& what, const asterix::Status& st) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(1);
}

void MustExec(Instance* inst, const std::string& stmt) {
  auto r = inst->Execute(stmt);
  if (!r.ok()) Die(stmt, r.status());
}

// Ten fields, mixed widths: int64 id/age/f7/f9, strings name/city/f8,
// double score, bool active, and a null-valued `extra` on every third
// record (exercises the null bitmap without breaking schema inference).
std::string Record(int i) {
  std::string s = std::to_string(i);
  std::string rec = "{\"id\": " + s + ", \"age\": " + std::to_string(i % 90) +
                    ", \"name\": \"user" + s + "\", \"city\": \"c" +
                    std::to_string(i % 7) + "\", \"score\": " + s +
                    ".5, \"active\": " + (i % 2 ? "true" : "false") +
                    ", \"f7\": " + s + ", \"f8\": \"pad" + s + "\", \"f9\": " +
                    s;
  if (i % 3 == 0) rec += ", \"extra\": null";
  rec += "}";
  return rec;
}

std::unique_ptr<Instance> LoadBoth(const std::string& dir, int n) {
  std::filesystem::remove_all(dir);
  InstanceOptions opts;
  opts.base_dir = dir;
  opts.num_partitions = 2;
  // Large enough that the whole load stays in the memory component: the
  // single Checkpoint below then leaves exactly one disk component per
  // partition, so the columnar scan's single-component fast path engages.
  opts.lsm_mem_budget_bytes = 64u << 20;
  auto inst = Instance::Open(opts);
  if (!inst.ok()) Die("instance open", inst.status());

  MustExec(inst.value().get(), "CREATE TYPE Rec AS OPEN { id: int }");
  MustExec(inst.value().get(), "CREATE DATASET RowDs(Rec) PRIMARY KEY id");
  MustExec(inst.value().get(),
           "CREATE DATASET ColDs(Rec) PRIMARY KEY id "
           "WITH { \"storage-format\" : \"columnar\" }");
  for (int i = 0; i < n; i++) {
    std::string rec = Record(i);
    MustExec(inst.value().get(), "INSERT INTO RowDs (" + rec + ")");
    MustExec(inst.value().get(), "INSERT INTO ColDs (" + rec + ")");
  }
  auto st = inst.value()->Checkpoint();
  if (!st.ok()) Die("checkpoint", st);

  auto stats = inst.value()->DatasetStats("ColDs");
  if (!stats.ok()) Die("stats", stats.status());
  if (stats.value().columnar_components == 0) {
    std::fprintf(stderr, "setup bug: no columnar components after load\n");
    std::exit(1);
  }
  return std::move(inst).value();
}

// One timed execution; returns the row count so reps can cross-check.
size_t TimedQuery(Instance* inst, const std::string& query, double* ms) {
  const auto t0 = std::chrono::steady_clock::now();
  auto r = inst->Execute(query);
  *ms = MsSince(t0);
  if (!r.ok()) Die(query, r.status());
  return r.value().rows.size();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axbench::HasFlag(argc, argv, "--smoke");
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  const int n = smoke ? 6'000 : 30'000;
  const int reps = smoke ? 9 : 41;
  // age = i % 90, predicate keeps ages 86..89: 4 of every 90 records.
  const size_t expect = static_cast<size_t>(n) / 90 * 4 +
                        std::min<size_t>(static_cast<size_t>(n) % 90 > 86
                                             ? static_cast<size_t>(n) % 90 - 86
                                             : 0,
                                         4);

  std::printf(
      "columnar scan bench: %d records x 10 fields, best of %d interleaved "
      "reps%s\n\n",
      n, reps, smoke ? " (smoke)" : "");

  auto inst = LoadBoth("/tmp/ax_bench_columnar_scan", n);
  const std::string kRowQ =
      "SELECT u.name, u.score FROM RowDs u WHERE u.age > 85";
  const std::string kColQ =
      "SELECT u.name, u.score FROM ColDs u WHERE u.age > 85";

  double row_best = 1e18, col_best = 1e18;
  for (int r = 0; r < reps; r++) {
    double row_ms = 0, col_ms = 0;
    size_t row_n = TimedQuery(inst.get(), kRowQ, &row_ms);
    size_t col_n = TimedQuery(inst.get(), kColQ, &col_ms);
    if (row_n != expect || col_n != expect) {
      std::fprintf(stderr, "row count mismatch: row=%zu col=%zu want %zu\n",
                   row_n, col_n, expect);
      return 1;
    }
    row_best = std::min(row_best, row_ms);
    col_best = std::min(col_best, col_ms);
  }

  std::printf("  %-22s %8.3f ms  (%zu rows of %d)\n", "columnar_scan_row",
              row_best, expect, n);
  std::printf("  %-22s %8.3f ms  (%zu rows of %d)\n", "columnar_scan_col",
              col_best, expect, n);
  std::printf("  speedup: %.2fx\n", row_best / col_best);

  axbench::JsonReport report("bench_columnar_scan");
  report.Add("columnar_scan_row", static_cast<uint64_t>(n), row_best);
  report.Add("columnar_scan_col", static_cast<uint64_t>(n), col_best);
  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  std::filesystem::remove_all("/tmp/ax_bench_columnar_scan");
  return 0;
}
