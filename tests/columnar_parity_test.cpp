// Row-vs-columnar parity: the same dataset contents under both storage
// formats, with scan pushdown on and off, must answer every query
// identically — point lookups, range scans, projected scans, pushed
// predicates, deletes/antimatter, format-converting merges, and reopen of
// an instance with columnar components on disk.
// Runs under TSan in CI (concurrent readers share immutable components).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "asterix/instance.h"
#include "common/io.h"
#include "common/metrics.h"

namespace asterix {
namespace {

using adm::Value;

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axpar_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    OpenInstance();
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  void OpenInstance() {
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    // Small budget: inserts auto-flush and auto-merge, exercising stacks of
    // several components (and the merge policy) under both formats.
    opts.lsm_mem_budget_bytes = 16u << 10;
    instance_ = Instance::Open(opts).value();
  }

  QueryResult Exec(const std::string& stmt) {
    auto r = instance_->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  // Create RowDs (default format) and ColDs (columnar) with identical
  // 10-field records.
  void LoadBoth(int n) {
    Exec("CREATE TYPE Rec AS OPEN { id: int }");
    Exec("CREATE DATASET RowDs(Rec) PRIMARY KEY id");
    Exec("CREATE DATASET ColDs(Rec) PRIMARY KEY id "
         "WITH { \"storage-format\" : \"columnar\" }");
    for (int i = 0; i < n; i++) {
      std::string rec = Record(i);
      Exec("INSERT INTO RowDs (" + rec + ")");
      Exec("INSERT INTO ColDs (" + rec + ")");
    }
  }

  static std::string Record(int i) {
    std::string s = std::to_string(i);
    std::string rec = "{\"id\": " + s + ", \"age\": " + std::to_string(i % 90) +
                      ", \"name\": \"user" + s + "\", \"city\": \"c" +
                      std::to_string(i % 7) + "\", \"score\": " +
                      std::to_string(i) + ".5, \"active\": " +
                      (i % 2 ? "true" : "false") + ", \"f7\": " + s +
                      ", \"f8\": \"pad" + s + "\", \"f9\": " + s;
    if (i % 3 == 0) rec += ", \"extra\": null";
    rec += "}";
    return rec;
  }

  static std::string Render(const std::string& query_template,
                            const std::string& ds) {
    std::string q = query_template;
    size_t pos;
    while ((pos = q.find("$DS")) != std::string::npos) q.replace(pos, 3, ds);
    return q;
  }

  // Run the query against both datasets ("$DS" placeholder), each with scan
  // pushdown on and off, and compare all four answers. The pushdown-off
  // runs are the reference: a Select over whole records, which shares no
  // code with the pushed predicates and projections.
  void ExpectParity(const std::string& query_template) {
    algebricks::OptimizerOptions reference;
    reference.scan_pushdown = false;
    std::vector<std::pair<std::string, QueryResult>> runs;
    for (const char* ds : {"RowDs", "ColDs"}) {
      const std::string q = Render(query_template, ds);
      runs.emplace_back(std::string(ds) + " pushed", Exec(q));
      auto ref = instance_->QueryWithOptions(q, reference);
      ASSERT_TRUE(ref.ok()) << q << "\n  -> " << ref.status().ToString();
      EXPECT_EQ(ref.value().plan.find(" project:["), std::string::npos);
      EXPECT_EQ(ref.value().plan.find(" where:"), std::string::npos);
      runs.emplace_back(std::string(ds) + " reference", std::move(ref).value());
    }
    const QueryResult& want = runs[1].second;  // RowDs reference
    for (const auto& [name, got] : runs) {
      ASSERT_EQ(got.rows.size(), want.rows.size())
          << query_template << " (" << name << ")";
      for (size_t i = 0; i < want.rows.size(); i++) {
        EXPECT_EQ(got.rows[i], want.rows[i])
            << query_template << " (" << name << ") row " << i << ": "
            << got.rows[i].ToString() << " vs " << want.rows[i].ToString();
      }
    }
  }

  // Pushed-predicate evaluations one execution of `query` performs.
  uint64_t PredicateEvals(const std::string& query) {
    metrics::Counter* evals = metrics::Registry::Global().GetCounter(
        "hyracks.scan.predicate_evals");
    const uint64_t before = evals->value();
    Exec(query);
    return evals->value() - before;
  }

  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ParityTest, FullAndProjectedScans) {
  LoadBoth(200);
  ASSERT_TRUE(instance_->Checkpoint().ok());  // force disk components
  // Columnar components actually formed on the columnar dataset.
  auto stats = instance_->DatasetStats("ColDs").value();
  EXPECT_GT(stats.columnar_components, 0u);
  ExpectParity("SELECT VALUE u FROM $DS u ORDER BY u.id");
  // Projection-heavy: 2 of 10 fields; only those columns load.
  uint64_t skipped_before = metrics::Registry::Global()
                                .GetCounter("storage.columnar.columns_skipped")
                                ->value();
  ExpectParity("SELECT u.name, u.score FROM $DS u ORDER BY u.id");
  uint64_t skipped_after = metrics::Registry::Global()
                               .GetCounter("storage.columnar.columns_skipped")
                               ->value();
  EXPECT_GT(skipped_after, skipped_before);
  ExpectParity("SELECT VALUE u.age FROM $DS u ORDER BY u.id");
  // COUNT(*): an empty pushed projection — no columns read at all.
  ExpectParity("SELECT COUNT(*) AS n FROM $DS u");
}

TEST_F(ParityTest, PointLookupsAndRanges) {
  LoadBoth(150);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 77");
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 9999");
  ExpectParity(
      "SELECT VALUE u.name FROM $DS u WHERE u.id >= 40 AND u.id < 60 "
      "ORDER BY u.id");
}

TEST_F(ParityTest, PushedPredicates) {
  LoadBoth(200);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  // age is not the PK: no index path, so the conjunct is pushed into the
  // scan — evaluated on the fixed-width column of a columnar component, on
  // the decoded record of a row one — once per live row.
  const std::string by_age =
      "SELECT u.id, u.name FROM $DS u WHERE u.age > 85 ORDER BY u.id";
  ExpectParity(by_age);
  EXPECT_EQ(PredicateEvals(Render(by_age, "RowDs")), 200u);
  EXPECT_EQ(PredicateEvals(Render(by_age, "ColDs")), 200u);
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.score <= 10.5 "
               "ORDER BY u.id");
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.city = \"c3\" "
               "ORDER BY u.id");
  // Predicate over a field that is NULL on some rows and absent on others:
  // 3-valued logic must drop those rows under both formats.
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE u.extra = null "
               "ORDER BY u.id");
  // Constant on the left (mirrored operator).
  ExpectParity("SELECT VALUE u.id FROM $DS u WHERE 85 < u.age "
               "ORDER BY u.id");
  // All six operators in both operand orders, over an int column (the
  // columnar raw-int64 path) and a string one, against an int, a double, a
  // string and unknown constants.
  for (const char* field : {"u.age", "u.city"}) {
    for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
      for (const char* c : {"40", "40.5", "\"c3\"", "null", "missing"}) {
        const std::string f = field, o = op, k = c;
        ExpectParity("SELECT VALUE u.id FROM $DS u WHERE " + f + " " + o +
                     " " + k + " ORDER BY u.id");
        ExpectParity("SELECT VALUE u.id FROM $DS u WHERE " + k + " " + o +
                     " " + f + " ORDER BY u.id");
      }
    }
  }
  // != is pushed into the scan like the other five.
  const QueryResult neq =
      Exec("SELECT VALUE u.id FROM RowDs u WHERE 40 != u.age");
  EXPECT_NE(neq.plan.find(" where:age neq 40"), std::string::npos)
      << neq.plan;
  EXPECT_EQ(neq.rows.size(), 198u);  // ages 0..89 over 200 ids: two are 40
}

TEST_F(ParityTest, DeletesAndAntimatter) {
  LoadBoth(120);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  for (const char* ds : {"RowDs", "ColDs"}) {
    Exec(std::string("DELETE FROM ") + ds + " u WHERE u.id >= 50 AND u.id < 70");
  }
  ExpectParity("SELECT VALUE u.id FROM $DS u ORDER BY u.id");
  ASSERT_TRUE(instance_->Checkpoint().ok());  // antimatter now on disk
  ExpectParity("SELECT VALUE u.id FROM $DS u ORDER BY u.id");
  ExpectParity("SELECT VALUE u FROM $DS u WHERE u.id = 55");
  // Re-insert over deleted keys: newest component wins.
  for (const char* ds : {"RowDs", "ColDs"}) {
    Exec(std::string("INSERT INTO ") + ds + " ({\"id\": 55, \"age\": 1})");
  }
  ExpectParity("SELECT VALUE u.age FROM $DS u WHERE u.id = 55");
}

TEST_F(ParityTest, SurvivesReopen) {
  LoadBoth(100);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  instance_.reset();  // close with columnar components on disk
  OpenInstance();
  auto stats = instance_->DatasetStats("ColDs").value();
  EXPECT_GT(stats.columnar_components, 0u);
  // The catalog remembered the format across restart.
  meta::CatalogPtr catalog = instance_->metadata()->Snapshot();
  EXPECT_EQ(catalog->GetDataset("ColDs").value()->def.storage_format,
            "columnar");
  EXPECT_EQ(catalog->GetDataset("RowDs").value()->def.storage_format, "row");
  ExpectParity("SELECT VALUE u FROM $DS u ORDER BY u.id");
  ExpectParity("SELECT u.name, u.age FROM $DS u WHERE u.age >= 80 "
               "ORDER BY u.id");
}

TEST_F(ParityTest, ConcurrentColumnarReaders) {
  LoadBoth(150);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  // Immutable columnar components must tolerate concurrent scans (TSan).
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; i++) {
        auto r = instance_->Execute(
            "SELECT u.name, u.score FROM ColDs u WHERE u.age > 50 "
            "ORDER BY u.id");
        if (!r.ok() || r.value().rows.empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ParityTest, RejectsBadWithProps) {
  Exec("CREATE TYPE T2 AS OPEN { id: int }");
  auto bad1 = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"storage-format\" : "
      "\"parquet\" }");
  EXPECT_FALSE(bad1.ok());
  auto bad2 = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"compression\" : "
      "\"lz4\" }");
  EXPECT_FALSE(bad2.ok());
  auto ok = instance_->Execute(
      "CREATE DATASET X(T2) PRIMARY KEY id WITH { \"storage-format\" : "
      "\"row\" }");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace asterix
