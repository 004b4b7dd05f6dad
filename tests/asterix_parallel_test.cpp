// Property tests for the parallel executor: query results must be
// invariant under the partition count (the Fig. 1 shared-nothing claim —
// partitioning is a physical property, not a semantic one), plus error
// paths and recovery edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "algebricks/compiler.h"
#include "asterix/gleambook.h"
#include "asterix/instance.h"

namespace asterix {
namespace {

using adm::Value;

std::vector<Value> Canon(std::vector<Value> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return rows;
}

class PartitionInvariance : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axpar_" + std::to_string(GetParam()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    instance_ = Load(dir_, GetParam());
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_ref");
  }
  // An instance over `partitions` partitions holding the generator's
  // (deterministic) Gleambook data.
  static std::unique_ptr<Instance> Load(const std::string& dir,
                                        size_t partitions) {
    InstanceOptions opts;
    opts.base_dir = dir;
    opts.num_partitions = partitions;
    auto inst = Instance::Open(opts).value();
    EXPECT_TRUE(inst->ExecuteScript(gleambook::Generator::Ddl(true)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 300;
    gen_opts.num_messages = 900;
    gleambook::Generator gen(gen_opts);
    for (const auto& u : gen.Users()) {
      EXPECT_TRUE(inst->UpsertValue("GleambookUsers", u).ok());
    }
    for (const auto& m : gen.Messages()) {
      EXPECT_TRUE(inst->UpsertValue("GleambookMessages", m).ok());
    }
    return inst;
  }
  // The reference results come from a single-partition instance; every
  // other partition count must match them exactly. (Sharing one reference
  // across params is not possible with TEST_P fixtures, so each test
  // rebuilds it.)
  std::unique_ptr<Instance> LoadReference() { return Load(dir_ + "_ref", 1); }
  void ExpectSameAnswers(Instance* reference) {
    const char* queries[] = {
        "SELECT VALUE u.id FROM GleambookUsers u WHERE u.id < 20 ORDER BY u.id",
        "SELECT g AS author, COUNT(m.messageId) AS n FROM GleambookMessages m "
        "GROUP BY m.authorId AS g ORDER BY n DESC, author LIMIT 15",
        "SELECT COUNT(*) AS n, MIN(m.messageId) AS lo, MAX(m.messageId) AS hi "
        "FROM GleambookMessages m",
        "SELECT u.id AS uid, COUNT(m.messageId) AS cnt FROM GleambookUsers u "
        "JOIN GleambookMessages m ON m.authorId = u.id "
        "GROUP BY u.id AS uid ORDER BY cnt DESC, uid LIMIT 10",
        "SELECT DISTINCT COLL_COUNT(u.friendIds) AS nf FROM GleambookUsers u "
        "ORDER BY nf",
        "SELECT VALUE m.messageId FROM GleambookMessages m "
        "WHERE ftcontains(m.message, \"word1\") ",
        // Primary-key lookups, which search only the owning partition.
        "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = 417",
        "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = 90417",
        "SELECT VALUE m.authorId FROM GleambookMessages m "
        "WHERE m.messageId = 250 AND m.authorId >= 0",
        "SELECT VALUE m.authorId FROM GleambookMessages m "
        "WHERE m.messageId = 250 AND m.authorId < 0",
        "SELECT VALUE u.name FROM GleambookUsers u WHERE u.id = 12.0",
        "SELECT VALUE m.messageId FROM GleambookMessages m "
        "WHERE m.authorId = 7",
        // The four analytics benchmark shapes: compiled field reads in a
        // group key, join keys and a filter, sort keys, and a bare count.
        "SELECT g AS grp, COUNT(*) AS n FROM GleambookMessages m "
        "GROUP BY m.authorId % 128 AS g",
        "SELECT COUNT(*) AS n FROM GleambookMessages m JOIN GleambookUsers u "
        "ON m.authorId = u.id WHERE COLL_COUNT(u.friendIds) >= 3",
        "SELECT VALUE m.messageId FROM GleambookMessages m "
        "ORDER BY m.authorId DESC, m.messageId LIMIT 10",
        "SELECT COUNT(*) AS n FROM GleambookMessages m",
    };
    for (const char* q : queries) {
      auto got = instance_->Execute(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
      auto want = reference->Execute(q);
      ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
      auto g = Canon(got->rows);
      auto w = Canon(want->rows);
      ASSERT_EQ(g.size(), w.size()) << q;
      for (size_t i = 0; i < g.size(); i++) {
        EXPECT_EQ(g[i], w[i]) << q << " row " << i << ": " << g[i].ToString()
                              << " vs " << w[i].ToString();
      }
    }
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_P(PartitionInvariance, QuerySuiteMatchesSinglePartition) {
  ExpectSameAnswers(LoadReference().get());
}

// A DELETE's key search takes the same access paths as a query; what it
// removes must not depend on the partition count either.
TEST_P(PartitionInvariance, DeletesMatchSinglePartition) {
  auto reference = LoadReference();
  const std::pair<const char*, const char*> deletes[] = {
      {"DELETE FROM GleambookMessages m WHERE m.messageId = 417",
       "index-search[primary-lookup]"},
      {"DELETE FROM GleambookUsers u WHERE u.id >= 5 AND u.id < 15",
       "index-search[primary-range]"},
      {"DELETE FROM GleambookMessages m WHERE m.authorId = 7",
       "index-search[btree-search] GleambookMessages.gbAuthorIdx"},
  };
  for (const auto& [d, path] : deletes) {
    auto got = instance_->Execute(d);
    ASSERT_TRUE(got.ok()) << d << ": " << got.status().ToString();
    auto want = reference->Execute(d);
    ASSERT_TRUE(want.ok()) << d << ": " << want.status().ToString();
    EXPECT_GT(want->mutated, 0) << d;
    EXPECT_EQ(got->mutated, want->mutated) << d;
    EXPECT_NE(got->plan.find(path), std::string::npos) << d << "\n" << got->plan;
  }
  ExpectSameAnswers(reference.get());
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionInvariance,
                         ::testing::Values(2, 3, 5, 8, 4));

// ORDER BY ... LIMIT L OFFSET O lowers to bounded (top-k) sorts; its answer
// must be the [O, O+L) slice of the same statement without LIMIT, in both
// languages, over row and columnar datasets, at any partition count.
class TopKSlices : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axtopk_" + std::to_string(GetParam()) +
           "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = GetParam();
    opts.profile_queries = true;
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_
                    ->ExecuteScript(
                        "CREATE TYPE R AS OPEN { id: int };"
                        "CREATE DATASET RowDs(R) PRIMARY KEY id;"
                        "CREATE DATASET ColDs(R) PRIMARY KEY id "
                        "WITH { \"storage-format\" : \"columnar\" }")
                    .ok());
    for (int64_t i = 0; i < kRows; i++) {
      // age repeats (many ties); id is unique, so (age, id) orders totally.
      Value rec = Value::Object({{"id", Value::Int(i)},
                                 {"age", Value::Int((i * 37) % 23)},
                                 {"name", Value::String("n" + std::to_string(i))}});
      for (const char* ds : {"RowDs", "ColDs"}) {
        ASSERT_TRUE(instance_->InsertValue(ds, rec).ok());
      }
    }
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }

  static std::string Render(std::string q, const std::string& ds,
                            const std::string& limit) {
    for (auto [key, with] : {std::pair<std::string, std::string>{"$DS", ds},
                             {"$LIMIT", limit}}) {
      for (size_t pos; (pos = q.find(key)) != std::string::npos;) {
        q.replace(pos, key.size(), with);
      }
    }
    return q;
  }

  Result<QueryResult> Run(bool aql, const std::string& q) {
    return aql ? instance_->QueryAql(q) : instance_->Execute(q);
  }

  // `query` holds "$DS" and "$LIMIT" placeholders; `limit_clause` renders
  // LIMIT L [OFFSET O] in the query's language.
  void ExpectSlices(bool aql, const std::string& query,
                    const std::function<std::string(int64_t, int64_t)>&
                        limit_clause) {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const std::pair<int64_t, int64_t> slices[] = {
        {0, 0},   {1, 0},         {10, 0},    {10, 5},    {25, kRows - 10},
        {5, kRows}, {5, kRows + 9}, {kRows, 0}, {kRows + 1, 1}, {kMax, 3},
        {kMax, kMax}, {3, kMax},
    };
    for (const char* ds : {"RowDs", "ColDs"}) {
      auto full = Run(aql, Render(query, ds, ""));
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ASSERT_EQ(full->rows.size(), static_cast<size_t>(kRows));
      for (auto [limit, offset] : slices) {
        const std::string q = Render(query, ds, limit_clause(limit, offset));
        auto got = Run(aql, q);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
        const size_t lo = static_cast<size_t>(std::min(offset, kRows));
        const size_t hi = static_cast<size_t>(
            std::min<uint64_t>(uint64_t{lo} + static_cast<uint64_t>(limit),
                               static_cast<uint64_t>(kRows)));
        ASSERT_EQ(got->rows.size(), hi - lo) << q;
        for (size_t i = lo; i < hi; i++) {
          EXPECT_EQ(got->rows[i - lo], full->rows[i]) << q << " row " << i;
        }
      }
    }
  }

  static constexpr int64_t kRows = 300;
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_P(TopKSlices, SqlppLimitIsASliceOfTheFullOrder) {
  auto sqlpp = [](int64_t l, int64_t o) {
    return "LIMIT " + std::to_string(l) + " OFFSET " + std::to_string(o);
  };
  // A total order (whole records compare equal), and a tie-heavy order
  // whose answer holds only the keys.
  ExpectSlices(false,
               "SELECT VALUE d FROM $DS d ORDER BY d.age DESC, d.id $LIMIT",
               sqlpp);
  ExpectSlices(false, "SELECT VALUE d.age FROM $DS d ORDER BY d.age $LIMIT",
               sqlpp);
  ExpectSlices(false,
               "SELECT d.age AS a, d.name AS n FROM $DS d "
               "ORDER BY a, n DESC $LIMIT",
               sqlpp);
}

TEST_P(TopKSlices, AqlLimitIsASliceOfTheFullOrder) {
  auto aql = [](int64_t l, int64_t o) {
    return "limit " + std::to_string(l) + " offset " + std::to_string(o);
  };
  ExpectSlices(true,
               "for $d in dataset $DS order by $d.age desc, $d.id $LIMIT "
               "return $d",
               aql);
  ExpectSlices(true,
               "for $d in dataset $DS order by $d.age $LIMIT return $d.age",
               aql);
}

// limit+offset near 2^64 saturates instead of overflowing (UBSan checks
// this in CI): the per-partition pre-limit of a partitioned scan, and the
// bound of the sorts under an ORDER BY.
TEST_P(TopKSlices, HugeLimitAndOffsetSaturate) {
  const std::string kMax = std::to_string(std::numeric_limits<int64_t>::max());
  for (const char* ds : {"RowDs", "ColDs"}) {
    const std::string from = std::string(" FROM ") + ds + " d";
    auto none = instance_->Execute("SELECT VALUE d.id" + from + " LIMIT " +
                                   kMax + " OFFSET " + kMax);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->rows.empty());
    auto most = instance_->Execute("SELECT VALUE d.id" + from + " LIMIT " +
                                   kMax + " OFFSET 2");
    ASSERT_TRUE(most.ok()) << most.status().ToString();
    EXPECT_EQ(most->rows.size(), static_cast<size_t>(kRows - 2));
    auto sorted = instance_->Execute("SELECT VALUE d.id" + from +
                                     " ORDER BY d.id DESC LIMIT " + kMax +
                                     " OFFSET " + kMax);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    EXPECT_TRUE(sorted->rows.empty());
  }
}

TEST_P(TopKSlices, ProfileReportsTheBound) {
  auto r = instance_->Execute(
      "SELECT VALUE d.id FROM RowDs d ORDER BY d.age DESC, d.id LIMIT 4 "
      "OFFSET 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  const std::string& text = r->profiled_plan;
  EXPECT_NE(text.find("sort_limit=7"), std::string::npos) << text;
  EXPECT_NE(text.find("sort_kept="), std::string::npos) << text;
  // A sort without a LIMIT above it is unbounded.
  auto full = instance_->Execute("SELECT VALUE d.id FROM RowDs d ORDER BY d.id");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->profiled_plan.find("sort_limit"), std::string::npos)
      << full->profiled_plan;
}

INSTANTIATE_TEST_SUITE_P(Partitions, TopKSlices, ::testing::Values(1, 4));

// Index equality against a numerically equal constant of the other numeric
// type, or a constant expression, must find what a full scan finds: the
// search key, the pk pruning hash and write routing all see the same key
// bytes. Each query runs with index selection on and off.
class NumericKeyDifferential : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axnum_" + std::to_string(GetParam());
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = GetParam();
    instance_ = Instance::Open(opts).value();
    ASSERT_TRUE(instance_->ExecuteScript(gleambook::Generator::Ddl(true)).ok());
    gleambook::GeneratorOptions gen_opts;
    gen_opts.num_users = 50;
    gen_opts.num_messages = 500;
    gleambook::Generator gen(gen_opts);
    for (const auto& m : gen.Messages()) {
      ASSERT_TRUE(instance_->UpsertValue("GleambookMessages", m).ok());
    }
    // An open, undeclared indexed field holding ints and integral doubles.
    ASSERT_TRUE(instance_->ExecuteScript(
        "CREATE TYPE OpenT AS { id: int };"
        "CREATE DATASET Open(OpenT) PRIMARY KEY id;"
        "CREATE INDEX scoreIdx ON Open (score) TYPE BTREE").ok());
    for (int i = 0; i < 60; i++) {
      Value score = i % 2 ? Value::Double(i % 10) : Value::Int(i % 10);
      ASSERT_TRUE(instance_
                      ->UpsertValue("Open", adm::ObjectBuilder()
                                                .Add("id", Value::Int(i))
                                                .Add("score", score)
                                                .Build())
                      .ok());
    }
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_P(NumericKeyDifferential, IndexMatchesScan) {
  const std::string pk = "SELECT VALUE m FROM GleambookMessages m WHERE ";
  const std::string sk =
      "SELECT VALUE m.messageId FROM GleambookMessages m WHERE ";
  const std::string open = "SELECT VALUE o.id FROM Open o WHERE ";
  struct Case {
    std::string query;
    const char* path;  // access path the index-on plan must use
    bool empty;        // expected to match nothing
  };
  const std::vector<Case> cases = {
      {pk + "m.messageId = 42", "primary-lookup", false},
      {pk + "m.messageId = 42.0", "primary-lookup", false},
      {pk + "42.0 = m.messageId", "primary-lookup", false},
      {pk + "m.messageId = 40 + 2", "primary-lookup", false},
      {pk + "m.messageId = 40.5 + 1.5", "primary-lookup", false},
      {pk + "m.messageId = 0.0", "primary-lookup", false},
      {pk + "m.messageId = -0.0", "primary-lookup", false},
      {pk + "m.messageId = 42.5", "primary-lookup", true},
      {pk + "m.messageId = 90042", "primary-lookup", true},
      {pk + "m.messageId = 90042.0", "primary-lookup", true},
      {pk + "m.messageId <= 42.0", "primary-range", false},
      {pk + "m.messageId >= 458.0", "primary-range", false},
      {pk + "m.messageId < 42.5", "primary-range", false},
      {sk + "m.authorId = 7", "btree-search", false},
      {sk + "m.authorId = 7.0", "btree-search", false},
      {sk + "m.authorId = 3 + 4", "btree-search", false},
      {sk + "m.authorId = 7.5", "btree-search", true},
      {sk + "m.authorId = 90007.0", "btree-search", true},
      {sk + "m.authorId <= 7.0", "btree-search", false},
      {open + "o.score = 4", "btree-search", false},
      {open + "o.score = 5.0", "btree-search", false},
      {open + "o.score = 2 + 3", "btree-search", false},
      {open + "o.score = 5.5", "btree-search", true},
  };
  algebricks::OptimizerOptions scan_opts;
  scan_opts.index_selection = false;
  for (const auto& c : cases) {
    auto indexed = instance_->Execute(c.query);
    ASSERT_TRUE(indexed.ok()) << c.query << ": " << indexed.status().ToString();
    EXPECT_NE(indexed->plan.find(c.path), std::string::npos)
        << c.query << "\n" << indexed->plan;
    auto scanned = instance_->QueryWithOptions(c.query, scan_opts);
    ASSERT_TRUE(scanned.ok()) << c.query << ": " << scanned.status().ToString();
    EXPECT_EQ(scanned->plan.find("index-search"), std::string::npos) << c.query;
    EXPECT_EQ(scanned->rows.empty(), c.empty) << c.query;
    auto got = Canon(indexed->rows);
    auto want = Canon(scanned->rows);
    ASSERT_EQ(got.size(), want.size()) << c.query;
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i], want[i]) << c.query << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, NumericKeyDifferential,
                         ::testing::Values(1, 2, 8));

class ErrorPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axerr_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    instance_ = Instance::Open(opts).value();
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(ErrorPathTest, QueriesAgainstMissingObjects) {
  auto r = instance_->Execute("SELECT VALUE x.y FROM NoSuchDataset x");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("CREATE DATASET D(NoSuchType) PRIMARY KEY id");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = instance_->Execute("DROP DATASET NoSuchDataset");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("INSERT INTO NoSuchDataset ({\"id\": 1})");
  EXPECT_FALSE(r.ok());
}

TEST_F(ErrorPathTest, UnresolvedIdentifiersAndUnknownFunctions) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id").ok());
  auto r = instance_->Execute("SELECT VALUE nosuchvar FROM D d");
  EXPECT_FALSE(r.ok());
  r = instance_->Execute("SELECT VALUE no_such_function(d.id) FROM D d");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ErrorPathTest, RecordsWithoutPrimaryKeyRejected) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id").ok());
  auto r = instance_->Execute("INSERT INTO D ({\"other\": 1})");
  EXPECT_FALSE(r.ok());
  // Non-object payloads rejected too.
  r = instance_->Execute("INSERT INTO D (42)");
  EXPECT_FALSE(r.ok());
}

TEST_F(ErrorPathTest, ExternalDatasetMissingFile) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE L AS CLOSED { a: string };"
      "CREATE EXTERNAL DATASET E(L) USING localfs "
      "((\"path\"=\"/no/such/file.txt\"))").ok());
  auto r = instance_->Execute("SELECT COUNT(*) AS n FROM E e");
  EXPECT_FALSE(r.ok());  // surfaced, not crashed
}

TEST_F(ErrorPathTest, SecondaryIndexBackfillOnCreate) {
  // Index created AFTER data exists must see that data.
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int, v: int };"
      "CREATE DATASET D(T) PRIMARY KEY id").ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(instance_
                    ->Execute("INSERT INTO D ({\"id\": " + std::to_string(i) +
                              ", \"v\": " + std::to_string(i % 5) + "})")
                    .ok());
  }
  ASSERT_TRUE(instance_->Execute("CREATE INDEX vIdx ON D (v) TYPE BTREE").ok());
  auto r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_NE(r->plan.find("btree-search"), std::string::npos);
}

TEST_F(ErrorPathTest, IndexMaintainedThroughUpdateAndDelete) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T AS { id: int, v: int };"
      "CREATE DATASET D(T) PRIMARY KEY id;"
      "CREATE INDEX vIdx ON D (v) TYPE BTREE").ok());
  ASSERT_TRUE(instance_->Execute("INSERT INTO D ({\"id\": 1, \"v\": 10})").ok());
  // Update moves the record to a new secondary key.
  ASSERT_TRUE(instance_->Execute("UPSERT INTO D ({\"id\": 1, \"v\": 20})").ok());
  auto r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 10");
  EXPECT_TRUE(r->rows.empty()) << "stale index entry";
  r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 20");
  EXPECT_EQ(r->rows.size(), 1u);
  // Delete removes the index entry.
  ASSERT_TRUE(instance_->Execute("DELETE FROM D d WHERE d.id = 1").ok());
  r = instance_->Execute("SELECT VALUE d.id FROM D d WHERE d.v = 20");
  EXPECT_TRUE(r->rows.empty());
}

// One compiled evaluator shared by four threads, the way an exchange's
// producers share one routing key and every partition's copy of a closure
// shares what the closure captured: each thread must compute, for every
// tuple, what a single thread computes. Run under TSan, this also checks
// that the evaluator keeps no per-row state of its own.
TEST(SharedEvaluator, FourThreadsComputeWhatOneComputes) {
  using algebricks::Expr;
  using algebricks::ExprPtr;
  gleambook::GeneratorOptions gen_opts;
  gen_opts.num_users = 200;
  gen_opts.num_messages = 2000;
  gleambook::Generator gen(gen_opts);
  std::vector<hyracks::Tuple> tuples;
  for (const Value& m : gen.Messages()) {
    tuples.push_back(hyracks::Tuple({m, Value::Int(128)}));
  }
  const ExprPtr msg = Expr::Variable(0);
  const ExprPtr exprs[] = {
      // The analytics group key; the modulus comes from the tuple too.
      Expr::Call("mod", {Expr::Field(msg, "authorId"),
                         Expr::Constant(Value::Int(128))}),
      Expr::Call("mod", {Expr::Field(msg, "authorId"), Expr::Variable(1)}),
      // A string result, and a string constant copied per row.
      Expr::Call("concat", {Expr::Field(msg, "message"),
                            Expr::Constant(Value::String("!"))}),
      // Absent in two thirds of the records: MISSING.
      Expr::Field(msg, "inResponseTo"),
      // A read over a function result.
      Expr::Field(Expr::Call("open-record",
                             {Expr::Constant(Value::String("loc")),
                              Expr::Field(msg, "senderLocation")}),
                  "loc"),
  };
  const algebricks::VarPositions positions = algebricks::PositionsOf({0, 1});
  for (const ExprPtr& e : exprs) {
    const hyracks::TupleEval eval =
        algebricks::CompileExpr(e, positions,
                                algebricks::FunctionRegistry::Instance())
            .value();
    std::vector<Value> want;
    for (const auto& t : tuples) want.push_back(eval(t).value());

    constexpr size_t kThreads = 4;
    std::vector<size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kThreads; w++) {
      threads.emplace_back([&, w] {
        // Every thread reads every tuple, each from a different start.
        for (size_t k = 0; k < tuples.size(); k++) {
          const size_t i = (k + w * tuples.size() / kThreads) % tuples.size();
          Result<Value> got = eval(tuples[i]);
          if (!got.ok() || got->tag() != want[i].tag() || *got != want[i]) {
            mismatches[w]++;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t w = 0; w < kThreads; w++) {
      EXPECT_EQ(mismatches[w], 0u) << e->ToString() << " thread " << w;
    }
  }
}

}  // namespace
}  // namespace asterix
