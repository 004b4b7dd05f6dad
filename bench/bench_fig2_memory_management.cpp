// FIG2: the storage & memory management picture of paper Fig. 2, and the
// project's founding assumption (§III): data on a node — and intermediate
// results — can well exceed its main memory. Three measurements:
//   1. external sort under a shrinking working-memory budget (runs spill,
//      multi-pass merges — the query still completes),
//   2. grace hash join under a shrinking budget (partitions spill),
//   3. buffer-cache hit ratio vs cache size for index probes.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "adm/key_encoder.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "hyracks/join.h"
#include "hyracks/sort.h"
#include "storage/btree.h"

using namespace asterix;
using namespace asterix::hyracks;
using adm::Value;

namespace {
double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TupleEval Field(size_t i) {
  return [i](const Tuple& t) -> Result<Value> { return t.at(i); };
}

std::vector<Tuple> MakeRows(int n, int payload, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    Tuple t;
    t.fields.push_back(Value::Int(static_cast<int64_t>(rng.Next() % 1000000)));
    t.fields.push_back(Value::String(rng.NextString(static_cast<size_t>(payload))));
    rows.push_back(std::move(t));
  }
  return rows;
}
}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string dir = std::filesystem::temp_directory_path() / "ax_bench_fig2";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TempFileManager tmp(dir);

  std::printf("FIG2: working memory, spilling, and the buffer cache\n\n");

  // ---- 1. external sort under memory pressure -------------------------------
  const int kSortRows = 120000;  // ~40 MB of tuples
  auto sort_input = MakeRows(kSortRows, 200, 11);
  std::printf("---- external sort: %d rows (~%d MB in-memory footprint) ----\n",
              kSortRows, 40);
  std::printf("%-16s %12s %10s %12s %14s\n", "budget", "time", "runs",
              "merge passes", "spilled MB");
  for (size_t budget_mb : {64, 16, 4, 1}) {
    ExternalSortOp sort(std::make_unique<VectorSource>(sort_input),
                        {{Field(0), true}},
                        resource::MemoryGrant::Fixed(budget_mb << 20), &tmp,
                        /*fanin=*/8);
    auto before = metrics::Registry::Global().Snapshot();
    auto t0 = std::chrono::steady_clock::now();
    auto rows = CollectAll(&sort).value();
    double ms = MsSince(t0);
    auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
    if (rows.size() != static_cast<size_t>(kSortRows)) return 1;
    for (size_t i = 1; i < rows.size(); i += 1000) {
      if (rows[i - 1].at(0).AsInt() > rows[i].at(0).AsInt()) return 1;
    }
    std::printf("%5zu MB %15.1f ms %10zu %12zu %11.1f MB\n", budget_mb, ms,
                sort.stats().runs_spilled, sort.stats().merge_passes,
                static_cast<double>(delta.value("hyracks.sort.spill_bytes")) /
                    (1 << 20));
  }

  // ---- 2. grace hash join under memory pressure ------------------------------
  const int kBuild = 60000, kProbe = 120000;
  std::printf("\n---- hash join: %dk build x %dk probe ----\n", kBuild / 1000,
              kProbe / 1000);
  std::printf("%-16s %12s %18s %14s\n", "budget", "time", "spill partitions",
              "spilled MB");
  std::vector<Tuple> build_rows, probe_rows;
  {
    Rng rng(13);
    for (int i = 0; i < kBuild; i++) {
      build_rows.push_back(Tuple({Value::Int(i), Value::String(rng.NextString(100))}));
    }
    for (int i = 0; i < kProbe; i++) {
      probe_rows.push_back(
          Tuple({Value::Int(static_cast<int64_t>(rng.Uniform(kBuild))),
                 Value::String(rng.NextString(40))}));
    }
  }
  size_t expect_out = probe_rows.size();
  for (size_t budget_mb : {64, 8, 2}) {
    HashJoinOp join(std::make_unique<VectorSource>(probe_rows),
                    std::make_unique<VectorSource>(build_rows), {Field(0)},
                    {Field(0)}, JoinType::kInner,
                    resource::MemoryGrant::Fixed(budget_mb << 20), &tmp);
    auto before = metrics::Registry::Global().Snapshot();
    auto t0 = std::chrono::steady_clock::now();
    auto rows = CollectAll(&join).value();
    double ms = MsSince(t0);
    auto delta = metrics::Registry::Global().Snapshot().DeltaSince(before);
    if (rows.size() != expect_out) return 1;
    std::printf("%5zu MB %15.1f ms %18zu %11.1f MB\n", budget_mb, ms,
                join.stats().partitions_spilled,
                static_cast<double>(delta.value("hyracks.join.spill_bytes")) /
                    (1 << 20));
  }

  // ---- 3. buffer cache hit ratio vs allocation --------------------------------
  const int64_t kKeys = 150000;
  std::printf("\n---- buffer cache: point lookups over a %lldk-key B+tree ----\n",
              (long long)kKeys / 1000);
  {
    // Build once.
    auto builder = storage::BTreeBuilder::Create(dir + "/probe.btree").value();
    std::string value(120, 'v');
    for (int64_t i = 0; i < kKeys; i++) {
      if (!builder->Add(adm::EncodeKey(Value::Int(i)).value(), value).ok()) {
        return 1;
      }
    }
    (void)builder->Finish().value();
  }
  std::printf("%-16s %14s %12s\n", "cache pages", "hit ratio", "time");
  for (size_t pages : {128, 512, 2048, 8192}) {
    storage::BufferCache cache(pages);
    auto tree = storage::BTree::Open(dir + "/probe.btree", &cache).value();
    Rng rng(3);
    std::string v;
    for (int i = 0; i < 2000; i++) {  // warm up
      (void)tree->Get(adm::EncodeKey(Value::Int(static_cast<int64_t>(
                          rng.Uniform(static_cast<uint64_t>(kKeys))))).value(),
                      &v);
    }
    cache.ResetStats();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 20000; i++) {
      (void)tree->Get(adm::EncodeKey(Value::Int(static_cast<int64_t>(
                          rng.Uniform(static_cast<uint64_t>(kKeys))))).value(),
                      &v);
    }
    double ms = MsSince(t0);
    std::printf("%-16zu %13.1f%% %9.1f ms\n", pages,
                cache.stats().HitRatio() * 100, ms);
  }

  std::printf("\nthe founding assumption holds: every operator degrades "
              "gracefully to disk instead of failing when its input exceeds "
              "the working memory (Fig. 2).\n");
  std::filesystem::remove_all(dir);
  return 0;
}
