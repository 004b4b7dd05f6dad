// Point lookups: what a SQL++ primary-key statement costs against the
// storage call underneath it. For 1, 2, 4 and 8 partitions it times
//   * `SELECT VALUE d FROM D d WHERE d.id = k` through Instance::Execute
//     (parse, translate, optimize, a job pruned to the key's partition),
//   * Instance::GetByKey on the same keys (routing, record lock, LSM get),
// over a checkpointed dataset. Each measurement is the median of 5 reps of
// the same key sequence. All four instances stay open and every rep runs
// each (partition count, path) pair once, so a drift in host speed moves
// every measurement alike instead of the ratios between them.
//
// tools/bench_to_json.sh gates two ratios on these medians: SQL++ at 2
// partitions costs at most 10x GetByKey at 2 partitions, and SQL++ at 8
// partitions costs at most 1.5x SQL++ at 1 partition. The whole run takes
// a few seconds, so --smoke (accepted for the script's sake) changes
// nothing: a shorter run would only make the gated ratios noisier.
//
//   bench_point_lookup [--smoke] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"

#include "asterix/instance.h"
#include "common/rng.h"

using namespace asterix;
using adm::Value;

namespace {

constexpr int kReps = 5;

double MedianMs(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double TimeMs(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "bench_point_lookup: %s\n", what.c_str());
  std::exit(1);
}

std::unique_ptr<Instance> Load(const std::string& dir, size_t partitions,
                               int64_t records) {
  std::filesystem::remove_all(dir);
  InstanceOptions options;
  options.base_dir = dir;
  options.num_partitions = partitions;
  auto instance = Instance::Open(options);
  if (!instance.ok()) Fail(instance.status().ToString());
  auto db = std::move(instance).value();
  if (!db->ExecuteScript("CREATE TYPE T AS { id: int, v: int, s: string };"
                         "CREATE DATASET D(T) PRIMARY KEY id")
           .ok()) {
    Fail("DDL failed");
  }
  Rng rng(partitions);
  for (int64_t i = 0; i < records; i++) {
    Value rec = adm::ObjectBuilder()
                    .Add("id", Value::Int(i))
                    .Add("v", Value::Int(i % 97))
                    .Add("s", Value::String(rng.NextString(80)))
                    .Build();
    if (!db->UpsertValue("D", rec).ok()) Fail("load failed");
  }
  if (!db->Checkpoint().ok()) Fail("checkpoint failed");
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const std::string json_path = axbench::JsonPathFromArgs(argc, argv);
  const int64_t kRecords = 20000;
  const size_t kStatements = 4000;
  const std::vector<size_t> kPartitions = {1, 2, 4, 8};
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ax_bench_point_lookup")
          .string();

  std::vector<int64_t> keys;
  Rng key_rng(42);
  for (size_t i = 0; i < kStatements; i++) {
    keys.push_back(static_cast<int64_t>(
        key_rng.Uniform(static_cast<uint64_t>(kRecords))));
  }
  std::vector<std::string> statements;
  for (int64_t k : keys) {
    statements.push_back("SELECT VALUE d FROM D d WHERE d.id = " +
                         std::to_string(k));
  }
  auto run_sqlpp = [&](Instance* db) {
    for (size_t i = 0; i < statements.size(); i++) {
      auto r = db->Execute(statements[i]);
      if (!r.ok() || r->rows.size() != 1 ||
          r->rows[0].GetField("id").AsInt() != keys[i]) {
        Fail("wrong answer for " + statements[i]);
      }
    }
  };
  auto run_get = [&](Instance* db) {
    Value rec;
    for (int64_t k : keys) {
      auto found = db->GetByKey("D", Value::Int(k), &rec);
      if (!found.ok() || !*found) {
        Fail("GetByKey missed " + std::to_string(k));
      }
    }
  };

  std::vector<std::unique_ptr<Instance>> dbs;
  for (size_t p : kPartitions) {
    dbs.push_back(Load(dir + "/p" + std::to_string(p), p, kRecords));
    run_sqlpp(dbs.back().get());  // warm the cache and the query workers
    run_get(dbs.back().get());
  }
  std::vector<std::vector<double>> sqlpp_ms(dbs.size()), get_ms(dbs.size());
  for (int rep = 0; rep < kReps; rep++) {
    for (size_t i = 0; i < dbs.size(); i++) {
      Instance* db = dbs[i].get();
      sqlpp_ms[i].push_back(TimeMs([&] { run_sqlpp(db); }));
      get_ms[i].push_back(TimeMs([&] { run_get(db); }));
    }
  }

  std::printf("Point lookups: %zu statements over %lld checkpointed records, "
              "median of %d reps\n\n",
              kStatements, static_cast<long long>(kRecords), kReps);
  std::printf("%-10s %14s %14s %8s\n", "partitions", "SQL++ us/stmt",
              "GetByKey us", "ratio");
  axbench::JsonReport report("bench_point_lookup");
  for (size_t i = 0; i < dbs.size(); i++) {
    const double sqlpp = MedianMs(sqlpp_ms[i]);
    const double get = MedianMs(get_ms[i]);
    const std::string p = std::to_string(kPartitions[i]);
    std::printf("%-10s %14.2f %14.2f %7.1fx\n", p.c_str(),
                1000.0 * sqlpp / static_cast<double>(kStatements),
                1000.0 * get / static_cast<double>(kStatements),
                sqlpp / get);
    report.Add("pk_lookup_sqlpp_p" + p, kStatements, sqlpp);
    report.Add("pk_lookup_get_p" + p, kStatements, get);
  }
  dbs.clear();
  std::filesystem::remove_all(dir);
  if (!json_path.empty() && !report.WriteTo(json_path)) return 1;
  return 0;
}
