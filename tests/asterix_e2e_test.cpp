// End-to-end tests for the full asterix-lite stack: SQL++ -> Algebricks ->
// Hyracks -> LSM storage, including the paper's Fig. 3 scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "asterix/instance.h"
#include "common/io.h"
#include "txn/log_manager.h"

namespace asterix {
namespace {

using adm::Value;

class E2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axe2e_" +
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
  // Close and reopen the instance over the same directory.
  void Reopen() {
    instance_.reset();
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    instance_ = Instance::Open(opts).value();
  }
  QueryResult Exec(const std::string& stmt) {
    auto r = instance_->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(E2ETest, DdlAndSimpleInsertQuery) {
  Exec("CREATE TYPE UserType AS { id: int, name: string }");
  Exec("CREATE DATASET Users(UserType) PRIMARY KEY id");
  Exec("INSERT INTO Users ({\"id\": 1, \"name\": \"ann\"})");
  Exec("INSERT INTO Users ({\"id\": 2, \"name\": \"bob\"})");
  auto r = Exec("SELECT VALUE u.name FROM Users u ORDER BY u.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].AsString(), "ann");
  EXPECT_EQ(r.rows[1].AsString(), "bob");
}

TEST_F(E2ETest, InsertDuplicateKeyFails) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("INSERT INTO D ({\"id\": 1})");
  auto r = instance_->Execute("INSERT INTO D ({\"id\": 1})");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // UPSERT succeeds where INSERT failed.
  EXPECT_TRUE(instance_->Execute("UPSERT INTO D ({\"id\": 1, \"x\": 9})").ok());
  auto q = Exec("SELECT VALUE d.x FROM D d");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0].AsInt(), 9);
}

TEST_F(E2ETest, OpenVsClosedTypes) {
  Exec("CREATE TYPE OpenT AS { id: int }");
  Exec("CREATE TYPE ClosedT AS CLOSED { id: int, s: string }");
  Exec("CREATE DATASET OpenD(OpenT) PRIMARY KEY id");
  Exec("CREATE DATASET ClosedD(ClosedT) PRIMARY KEY id");
  // Open type accepts extra fields.
  EXPECT_TRUE(instance_->Execute(
      "INSERT INTO OpenD ({\"id\": 1, \"extra\": \"fine\"})").ok());
  // Closed type rejects them.
  auto r = instance_->Execute(
      "INSERT INTO ClosedD ({\"id\": 1, \"s\": \"a\", \"extra\": 1})");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch);
  // Required field missing.
  r = instance_->Execute("INSERT INTO ClosedD ({\"id\": 2})");
  EXPECT_FALSE(r.ok());
}

TEST_F(E2ETest, WhereFiltersAndProjection) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 50; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i * 10) + "})");
  }
  auto r = Exec("SELECT d.id AS i, d.v AS tenfold FROM D d WHERE d.v >= 470");
  ASSERT_EQ(r.rows.size(), 3u);  // 470, 480, 490
  for (const auto& row : r.rows) {
    EXPECT_TRUE(row.is_object());
    EXPECT_EQ(row.GetField("tenfold").AsInt(), row.GetField("i").AsInt() * 10);
  }
}

TEST_F(E2ETest, GroupByWithAggregates) {
  Exec("CREATE TYPE T AS { id: int, grp: string, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 60; i++) {
    std::string grp = i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c");
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"grp\": \"" +
         grp + "\", \"v\": " + std::to_string(i) + "})");
  }
  auto r = Exec(
      "SELECT g AS grp, COUNT(d.id) AS n, SUM(d.v) AS total, AVG(d.v) AS mean "
      "FROM D d GROUP BY d.grp AS g ORDER BY g");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].GetField("grp").AsString(), "a");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 20);
  // group a: 0,3,...,57 -> sum = 570
  EXPECT_EQ(r.rows[0].GetField("total").AsInt(), 570);
  EXPECT_DOUBLE_EQ(r.rows[0].GetField("mean").AsNumber(), 28.5);
}

TEST_F(E2ETest, GlobalAggregateWithoutGroupBy) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 25; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + "})");
  }
  auto r = Exec("SELECT COUNT(*) AS n, MIN(d.id) AS lo, MAX(d.id) AS hi FROM D d");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 25);
  EXPECT_EQ(r.rows[0].GetField("lo").AsInt(), 0);
  EXPECT_EQ(r.rows[0].GetField("hi").AsInt(), 24);
}

TEST_F(E2ETest, GlobalAggregateOverEmptyDataset) {
  // A keyless aggregate over empty input is one row, not zero rows —
  // COUNT is 0, SUM/MIN/MAX/AVG are null, ARRAY_AGG-style collection is
  // empty. (Regression: this used to return no rows, and a query racing
  // a dataset's first insert crashed callers that indexed rows[0].)
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  auto r = Exec(
      "SELECT COUNT(*) AS n, COUNT(d.v) AS nv, SUM(d.v) AS s, "
      "MIN(d.v) AS lo, MAX(d.v) AS hi, AVG(d.v) AS mean FROM D d");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 0);
  EXPECT_EQ(r.rows[0].GetField("nv").AsInt(), 0);
  EXPECT_TRUE(r.rows[0].GetField("s").is_null());
  EXPECT_TRUE(r.rows[0].GetField("lo").is_null());
  EXPECT_TRUE(r.rows[0].GetField("hi").is_null());
  EXPECT_TRUE(r.rows[0].GetField("mean").is_null());
  // A grouped aggregate over empty input stays empty: no groups, no rows.
  auto g = Exec("SELECT d.v AS v, COUNT(*) AS n FROM D d GROUP BY d.v");
  EXPECT_EQ(g.rows.size(), 0u);
}

TEST_F(E2ETest, JoinTwoDatasets) {
  Exec("CREATE TYPE U AS { uid: int, name: string }");
  Exec("CREATE TYPE M AS { mid: int, author: int, text: string }");
  Exec("CREATE DATASET Users(U) PRIMARY KEY uid");
  Exec("CREATE DATASET Msgs(M) PRIMARY KEY mid");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO Users ({\"uid\": " + std::to_string(i) +
         ", \"name\": \"user" + std::to_string(i) + "\"})");
  }
  for (int m = 0; m < 30; m++) {
    Exec("INSERT INTO Msgs ({\"mid\": " + std::to_string(m) + ", \"author\": " +
         std::to_string(m % 10) + ", \"text\": \"msg\"})");
  }
  auto r = Exec(
      "SELECT u.name AS name, COUNT(m.mid) AS cnt "
      "FROM Users u JOIN Msgs m ON m.author = u.uid "
      "GROUP BY u.name AS name ORDER BY name");
  ASSERT_EQ(r.rows.size(), 10u);
  for (const auto& row : r.rows) EXPECT_EQ(row.GetField("cnt").AsInt(), 3);
}

TEST_F(E2ETest, LeftOuterJoinKeepsUnmatched) {
  Exec("CREATE TYPE A AS { id: int }");
  Exec("CREATE TYPE B AS { id: int, a_id: int }");
  Exec("CREATE DATASET As(A) PRIMARY KEY id");
  Exec("CREATE DATASET Bs(B) PRIMARY KEY id");
  Exec("INSERT INTO As ({\"id\": 1})");
  Exec("INSERT INTO As ({\"id\": 2})");
  Exec("INSERT INTO Bs ({\"id\": 10, \"a_id\": 1})");
  auto r = Exec(
      "SELECT a.id AS aid, b.id AS bid FROM As a LEFT JOIN Bs b ON b.a_id = a.id "
      "ORDER BY aid");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].GetField("bid").AsInt(), 10);
  EXPECT_TRUE(r.rows[1].GetField("bid").is_null());
}

TEST_F(E2ETest, UnnestCollections) {
  Exec("CREATE TYPE T AS { id: int, tags: [string] }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("INSERT INTO D ({\"id\": 1, \"tags\": [\"x\", \"y\"]})");
  Exec("INSERT INTO D ({\"id\": 2, \"tags\": [\"y\", \"z\"]})");
  auto r = Exec(
      "SELECT t AS tag, COUNT(d.id) AS n FROM D d, d.tags t GROUP BY t "
      "ORDER BY t");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].GetField("tag").AsString(), "x");
  EXPECT_EQ(r.rows[1].GetField("tag").AsString(), "y");
  EXPECT_EQ(r.rows[1].GetField("n").AsInt(), 2);
}

TEST_F(E2ETest, DistinctAndLimit) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 20; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i % 4) + "})");
  }
  auto r = Exec("SELECT DISTINCT d.v AS v FROM D d ORDER BY v");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[3].GetField("v").AsInt(), 3);
  r = Exec("SELECT VALUE d.id FROM D d ORDER BY d.id LIMIT 5 OFFSET 10");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].AsInt(), 10);
}

TEST_F(E2ETest, DeleteStatement) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i) + "})");
  }
  auto del = Exec("DELETE FROM D d WHERE d.v < 4");
  EXPECT_EQ(del.mutated, 4);
  auto r = Exec("SELECT COUNT(*) AS n FROM D d");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 6);
}

// DELETE is a query for keys plus a keyed delete, so it gets the query's
// access paths: a pk equality searches one partition.
TEST_F(E2ETest, DeleteByPrimaryKeyUsesPrimaryLookup) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i % 3) + "})");
  }
  auto del = Exec("DELETE FROM D d WHERE d.id = 3");
  EXPECT_EQ(del.mutated, 1);
  EXPECT_TRUE(del.rows.empty());
  EXPECT_NE(del.plan.find("index-search[primary-lookup]"), std::string::npos)
      << del.plan;
  // Deleting it again finds nothing.
  EXPECT_EQ(Exec("DELETE FROM D d WHERE d.id = 3").mutated, 0);
  auto r = Exec("SELECT VALUE d.id FROM D d ORDER BY d.id");
  ASSERT_EQ(r.rows.size(), 9u);
  for (const auto& id : r.rows) EXPECT_NE(id.AsInt(), 3);
}

TEST_F(E2ETest, DeleteWithoutAliasOrWhere) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 12; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i % 3) + "})");
  }
  // No alias: the dataset name binds the record.
  EXPECT_EQ(Exec("DELETE FROM D WHERE D.v = 1").mutated, 4);
  EXPECT_EQ(Exec("DELETE FROM D AS x WHERE x.v = 2").mutated, 4);
  auto r = Exec("SELECT VALUE d.v FROM D d");
  ASSERT_EQ(r.rows.size(), 4u);
  for (const auto& v : r.rows) EXPECT_EQ(v.AsInt(), 0);
  // No WHERE: every record goes.
  EXPECT_EQ(Exec("DELETE FROM D").mutated, 4);
  EXPECT_EQ(Exec("SELECT COUNT(*) AS n FROM D d").rows[0].GetField("n").AsInt(),
            0);
  EXPECT_EQ(Exec("DELETE FROM D").mutated, 0);
}

TEST_F(E2ETest, DeleteThroughSecondaryIndex) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX vIdx ON D (v) TYPE BTREE");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i % 10) + "})");
  }
  auto del = Exec("DELETE FROM D d WHERE d.v = 7");
  EXPECT_EQ(del.mutated, 10);
  EXPECT_NE(del.plan.find("btree-search"), std::string::npos) << del.plan;
  // Both the index and a full scan agree the records are gone.
  EXPECT_TRUE(Exec("SELECT VALUE d.id FROM D d WHERE d.v = 7").rows.empty());
  algebricks::OptimizerOptions no_index;
  no_index.index_selection = false;
  auto scan = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 7", no_index);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->rows.empty());
  EXPECT_EQ(Exec("SELECT COUNT(*) AS n FROM D d").rows[0].GetField("n").AsInt(),
            90);
}

TEST_F(E2ETest, DeleteErrors) {
  auto r = instance_->Execute("DELETE FROM Nope n WHERE n.id = 1");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  Exec("CREATE TYPE L AS CLOSED { a: string }");
  Exec("CREATE EXTERNAL DATASET E(L) USING localfs "
       "((\"path\"=\"/no/such/file.txt\"))");
  r = instance_->Execute("DELETE FROM E e");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A query on a dataset that does not exist (or was just dropped) is
// NotFound; an unbound variable is an error in the query text.
TEST_F(E2ETest, UnknownDatasetVersusUnboundVariable) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  auto r = instance_->Execute("SELECT VALUE x.a FROM Nope x");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = instance_->Execute("SELECT VALUE x.a FROM D d");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = instance_->Execute("SELECT VALUE d FROM D d, Nope n");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(E2ETest, SecondaryIndexUsedAndCorrect) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX vIdx ON D (v) TYPE BTREE");
  for (int i = 0; i < 200; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": " +
         std::to_string(i % 50) + "})");
  }
  auto r = Exec("SELECT VALUE d.id FROM D d WHERE d.v = 7");
  EXPECT_EQ(r.rows.size(), 4u);
  EXPECT_NE(r.plan.find("btree-search"), std::string::npos) << r.plan;
  // Range predicate through the index too.
  r = Exec("SELECT COUNT(*) AS n FROM D d WHERE d.v < 3");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 12);
}

TEST_F(E2ETest, PrimaryKeyLookupPath) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + "})");
  }
  auto r = Exec("SELECT VALUE d.id FROM D d WHERE d.id = 42");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].AsInt(), 42);
  EXPECT_NE(r.plan.find("primary-lookup"), std::string::npos) << r.plan;
}

TEST_F(E2ETest, LimitedPrimaryRangeStreamsItsRecords) {
  // An index search emits a frame at a time, so LIMIT stops the range scan
  // early instead of reading the whole range first.
  Exec("CREATE TYPE PadT AS { id: int, pad: string }");
  Exec("CREATE DATASET Pad(PadT) PRIMARY KEY id");
  const std::string pad(200, 'p');
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(instance_
                    ->UpsertValue("Pad", adm::ObjectBuilder()
                                             .Add("id", Value::Int(i))
                                             .Add("pad", Value::String(pad))
                                             .Build())
                    .ok());
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());  // reads go through the cache
  auto pins = [&](const std::string& q, size_t want_rows) {
    instance_->buffer_cache()->ResetStats();
    auto r = Exec(q);
    EXPECT_EQ(r.rows.size(), want_rows) << q;
    EXPECT_NE(r.plan.find("primary-range"), std::string::npos) << r.plan;
    auto st = instance_->buffer_cache()->stats();
    return st.hits + st.misses;
  };
  uint64_t limited =
      pins("SELECT VALUE p.id FROM Pad p WHERE p.id >= 0 LIMIT 5", 5);
  uint64_t full = pins("SELECT VALUE p.id FROM Pad p WHERE p.id >= 0", 12000);
  EXPECT_GT(full, 0u);
  EXPECT_LT(limited * 10, full) << "limited " << limited << " full " << full;
}

TEST_F(E2ETest, RTreeIndexSpatialQuery) {
  Exec("CREATE TYPE T AS { id: int, loc: point }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX locIdx ON D (loc) TYPE RTREE");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"loc\": point(\"" +
         std::to_string(i % 10) + "," + std::to_string(i / 10) + "\")})");
  }
  auto r = Exec(
      "SELECT VALUE d.id FROM D d WHERE "
      "spatial_intersect(d.loc, create_rectangle(create_point(0.0, 0.0), "
      "create_point(2.0, 2.0)))");
  EXPECT_EQ(r.rows.size(), 9u);  // 3x3 grid corner
  EXPECT_NE(r.plan.find("rtree-search"), std::string::npos) << r.plan;
}

// A rectangle in an RTREE index: its component is written with full MBR
// leaves, so the checkpoint flush succeeds and the index still finds the
// rectangle after reopen.
TEST_F(E2ETest, RTreeIndexOnRectanglesSurvivesCheckpoint) {
  Exec("CREATE TYPE ZoneType AS { id: int, area: rectangle }");
  Exec("CREATE DATASET Zones(ZoneType) PRIMARY KEY id");
  Exec("CREATE INDEX zoneIdx ON Zones (area) TYPE RTREE");
  Exec("INSERT INTO Zones ({\"id\": 1, \"area\": rectangle(\"0,0 2,2\")})");
  Exec("INSERT INTO Zones ({\"id\": 2, \"area\": rectangle(\"10,10 12,12\")})");
  Status s = instance_->Checkpoint();
  ASSERT_TRUE(s.ok()) << s.ToString();
  Reopen();
  auto r = Exec(
      "SELECT VALUE z.id FROM Zones z WHERE "
      "spatial_intersect(z.area, create_rectangle(create_point(1.0, 1.0), "
      "create_point(3.0, 3.0)))");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].AsInt(), 1);
  EXPECT_NE(r.plan.find("rtree-search"), std::string::npos) << r.plan;
}

// Indexes whose names share a prefix ("a" and "a_1"). After a checkpoint
// and reopen each index recovers only its own components, so index-path
// queries return each PK once.
TEST_F(E2ETest, IndexesWithPrefixNamesRecoverTheirOwnComponents) {
  Exec("CREATE TYPE T AS { id: int, x: int, y: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX a ON D (x) TYPE BTREE");
  Exec("CREATE INDEX a_1 ON D (y) TYPE BTREE");
  for (int i = 0; i < 20; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"x\": " +
         std::to_string(i) + ", \"y\": " + std::to_string(100 + i) + "})");
  }
  Status s = instance_->Checkpoint();
  ASSERT_TRUE(s.ok()) << s.ToString();
  Reopen();
  auto r = Exec("SELECT VALUE d.id FROM D d WHERE d.x >= 0 ORDER BY d.id");
  EXPECT_NE(r.plan.find("btree-search"), std::string::npos) << r.plan;
  ASSERT_EQ(r.rows.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(r.rows[i].AsInt(), i);
  r = Exec("SELECT VALUE d.id FROM D d WHERE d.y >= 100 ORDER BY d.id");
  EXPECT_NE(r.plan.find("btree-search"), std::string::npos) << r.plan;
  ASSERT_EQ(r.rows.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(r.rows[i].AsInt(), i);
  r = Exec("SELECT VALUE d.id FROM D d WHERE d.x = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].AsInt(), 7);
  r = Exec("SELECT VALUE d.id FROM D d WHERE d.y = 113");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].AsInt(), 13);
}

int64_t Count(Instance* db, const std::string& query) {
  auto r = db->Execute(query);
  EXPECT_TRUE(r.ok()) << query << "\n  -> " << r.status().ToString();
  return r.ok() && r->rows.size() == 1 ? r->rows[0].GetField("n").AsInt() : -1;
}

// A re-created dataset starts empty: neither its predecessor's flushed
// components (the checkpoint case) nor its WAL records (the other case)
// reach it, live or after reopen.
TEST_F(E2ETest, DropAndRecreateDatasetStartsEmpty) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  for (bool checkpoint : {true, false}) {
    SCOPED_TRACE(checkpoint ? "checkpointed" : "in the WAL only");
    Exec("CREATE DATASET D(T) PRIMARY KEY id");
    for (int i = 0; i < 100; i++) {
      Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": 7})");
    }
    if (checkpoint) {
      ASSERT_TRUE(instance_->Checkpoint().ok());
    }
    Exec("DROP DATASET D");
    Exec("CREATE DATASET D(T) PRIMARY KEY id");
    EXPECT_EQ(Count(instance_.get(), "SELECT COUNT(*) AS n FROM D d"), 0);
    Reopen();
    EXPECT_EQ(Count(instance_.get(), "SELECT COUNT(*) AS n FROM D d"), 0);
    Exec("DROP DATASET D");
  }
  // The dropped datasets' storage is gone: only the WALs remain.
  for (const char* p : {"/p0", "/p1"}) {
    for (const auto& e : std::filesystem::directory_iterator(dir_ + p)) {
      EXPECT_EQ(e.path().filename(), "wal.log");
    }
  }
}

// A re-created index starts empty: entries its predecessor flushed for
// values the records no longer hold must not come back (they would be
// found a second time by a range search), live or after reopen.
TEST_F(E2ETest, DropAndRecreateIndexStartsEmpty) {
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX vIdx ON D (v) TYPE BTREE");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": 1})");
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());
  Exec("DROP INDEX D.vIdx");
  for (int i = 0; i < 100; i++) {
    Exec("UPSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": 2})");
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());
  Exec("CREATE INDEX vIdx ON D (v) TYPE BTREE");
  const std::string q = "SELECT COUNT(*) AS n FROM D d WHERE d.v >= 0";
  EXPECT_NE(Exec(q).plan.find("btree-search"), std::string::npos);
  EXPECT_EQ(Count(instance_.get(), q), 100);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  Reopen();
  EXPECT_EQ(Count(instance_.get(), q), 100);
}

// CREATE INDEX commits only a durable index: after a crash right after it
// (the instance is destroyed without a checkpoint), the index path and a
// scan agree, for every index kind.
TEST_F(E2ETest, CreatedIndexSurvivesCrash) {
  Exec("CREATE TYPE T AS { id: int, v: int, loc: point, msg: string }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 100; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) +
         ", \"v\": 7, \"loc\": create_point(1.0, 1.0), "
         "\"msg\": \"hello world\"})");
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());
  Exec("CREATE INDEX vIdx ON D (v) TYPE BTREE");
  Exec("CREATE INDEX locIdx ON D (loc) TYPE RTREE");
  Exec("CREATE INDEX msgIdx ON D (msg) TYPE KEYWORD");
  instance_.reset();  // crash: nothing flushed on the way out
  Reopen();
  algebricks::OptimizerOptions no_index;
  no_index.index_selection = false;
  const std::pair<const char*, const char*> probes[] = {
      {"SELECT COUNT(*) AS n FROM D d WHERE d.v = 7", "btree-search"},
      {"SELECT COUNT(*) AS n FROM D d WHERE spatial_intersect(d.loc, "
       "create_rectangle(create_point(0.0, 0.0), create_point(2.0, 2.0)))",
       "rtree-search"},
      {"SELECT COUNT(*) AS n FROM D d WHERE ftcontains(d.msg, \"hello\")",
       "keyword-search"},
  };
  for (const auto& [q, path] : probes) {
    SCOPED_TRACE(q);
    auto indexed = Exec(q);
    EXPECT_NE(indexed.plan.find(path), std::string::npos) << indexed.plan;
    auto scanned = instance_->QueryWithOptions(q, no_index);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->rows[0].GetField("n").AsInt(), 100);
    ASSERT_EQ(indexed.rows.size(), 1u);
    EXPECT_EQ(indexed.rows[0].GetField("n").AsInt(), 100);
  }
}

TEST_F(E2ETest, KeywordIndexTextSearch) {
  Exec("CREATE TYPE T AS { id: int, msg: string }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  Exec("CREATE INDEX msgIdx ON D (msg) TYPE KEYWORD");
  Exec("INSERT INTO D ({\"id\": 1, \"msg\": \"big data systems\"})");
  Exec("INSERT INTO D ({\"id\": 2, \"msg\": \"small data\"})");
  Exec("INSERT INTO D ({\"id\": 3, \"msg\": \"big ideas\"})");
  auto r = Exec(
      "SELECT VALUE d.id FROM D d WHERE ftcontains(d.msg, \"big data\")");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].AsInt(), 1);
  EXPECT_NE(r.plan.find("keyword-search"), std::string::npos) << r.plan;
}

TEST_F(E2ETest, PersistenceAcrossReopen) {
  Exec("CREATE TYPE T AS { id: int, v: string }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 30; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + ", \"v\": \"val" +
         std::to_string(i) + "\"})");
  }
  // No checkpoint: data lives in WAL + mem components. Reopen must recover.
  instance_.reset();
  InstanceOptions opts;
  opts.base_dir = dir_;
  opts.num_partitions = 2;
  instance_ = Instance::Open(opts).value();
  auto r = Exec("SELECT COUNT(*) AS n FROM D d");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 30);
  adm::Value rec;
  EXPECT_TRUE(instance_->GetByKey("D", Value::Int(17), &rec).value());
  EXPECT_EQ(rec.GetField("v").AsString(), "val17");
}

TEST_F(E2ETest, CheckpointTruncatesAndStillRecovers) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  for (int i = 0; i < 10; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + "})");
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());
  for (int i = 10; i < 15; i++) {
    Exec("INSERT INTO D ({\"id\": " + std::to_string(i) + "})");
  }
  instance_.reset();
  InstanceOptions opts;
  opts.base_dir = dir_;
  opts.num_partitions = 2;
  instance_ = Instance::Open(opts).value();
  auto r = Exec("SELECT COUNT(*) AS n FROM D d");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 15);
}

TEST_F(E2ETest, ReopenAtAnotherPartitionCountIsRefused) {
  // Writes and pk lookups route by PartitionOf(key, n), so records stay
  // where the count they were written under put them. A reopen at another
  // count is refused before any WAL is opened or replayed.
  Exec("CREATE TYPE T AS { id: int, v: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  auto rec = [](int i) {
    return adm::ObjectBuilder()
        .Add("id", Value::Int(i))
        .Add("v", Value::Int(2 * i))
        .Build();
  };
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(instance_->UpsertValue("D", rec(i)).ok());
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());
  for (int i = 100; i < 120; i++) {  // these are only in the WALs
    ASSERT_TRUE(instance_->UpsertValue("D", rec(i)).ok());
  }
  instance_.reset();
  for (size_t n : {4, 1}) {
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = n;
    auto other = Instance::Open(opts);
    ASSERT_FALSE(other.ok()) << n;
    EXPECT_EQ(other.status().code(), StatusCode::kInvalidArgument) << n;
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/p2"));

  Reopen();
  Value got;
  for (int i = 0; i < 120; i++) {
    ASSERT_TRUE(instance_->GetByKey("D", Value::Int(i), &got).value()) << i;
    EXPECT_EQ(got, rec(i));
    auto r = Exec("SELECT VALUE d.v FROM D d WHERE d.id = " +
                  std::to_string(i));
    ASSERT_EQ(r.rows.size(), 1u) << i;
    EXPECT_EQ(r.rows[0].AsInt(), 2 * i);
  }
  auto r = Exec("SELECT COUNT(*) AS n FROM D d");
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 120);
}

TEST_F(E2ETest, WalRecordOfAMissingPartitionIsCorruption) {
  Exec("CREATE TYPE T AS { id: int }");
  Exec("CREATE DATASET D(T) PRIMARY KEY id");
  const uint64_t id =
      instance_->metadata()->Snapshot()->GetDataset("D").value()->def.id;
  instance_.reset();
  {
    auto wal = txn::LogManager::Open(dir_ + "/p0/wal.log",
                                     txn::SyncMode::kNoSync)
                   .value();
    txn::LogRecord rec;
    rec.dataset_id = id;
    rec.partition = 5;  // of 2
    rec.key = adm::EncodeKey(Value::Int(1)).value();
    rec.value = adm::Serialize(
        adm::ObjectBuilder().Add("id", Value::Int(1)).Build());
    ASSERT_TRUE(wal->Append(rec).ok());
  }
  InstanceOptions opts;
  opts.base_dir = dir_;
  opts.num_partitions = 2;
  auto reopened = Instance::Open(opts);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

// ----- the paper's Fig. 3 scenario, end to end ------------------------------

TEST_F(E2ETest, Figure3Scenario) {
  // (a) types, datasets, indexes (dialect-adjusted: single-field keys).
  Exec("CREATE TYPE EmploymentType AS { organizationName: string, "
       "startDate: date, endDate: date? }");
  Exec("CREATE TYPE GleambookUserType AS { id: int, alias: string, "
       "name: string, userSince: datetime, friendIds: {{ int }}, "
       "employment: [EmploymentType] }");
  Exec("CREATE TYPE GleambookMessageType AS { messageId: int, authorId: int, "
       "inResponseTo: int?, senderLocation: point?, message: string }");
  Exec("CREATE DATASET GleambookUsers(GleambookUserType) PRIMARY KEY id");
  Exec("CREATE DATASET GleambookMessages(GleambookMessageType) "
       "PRIMARY KEY messageId");
  Exec("CREATE INDEX gbUserSinceIdx ON GleambookUsers (userSince)");
  Exec("CREATE INDEX gbAuthorIdx ON GleambookMessages (authorId) TYPE BTREE");
  Exec("CREATE INDEX gbSenderLocIndex ON GleambookMessages (senderLocation) "
       "TYPE RTREE");
  Exec("CREATE INDEX gbMessageIdx ON GleambookMessages (message) TYPE KEYWORD");

  // (b) external dataset over an access log.
  std::string log_path = dir_ + "/accesses.txt";
  ASSERT_TRUE(fs::WriteStringToFile(
                  log_path,
                  "10.0.0.1|2024-06-01T10:00:00|alice|GET|/home|200|1024\n"
                  "10.0.0.2|2024-06-02T11:00:00|bob|GET|/feed|200|2048\n"
                  "10.0.0.3|2019-01-01T00:00:00|carol|GET|/old|200|10\n")
                  .ok());
  Exec("CREATE TYPE AccessLogType AS CLOSED { ip: string, time: string, "
       "user: string, verb: string, `path`: string, stat: int32, size: int32 }");
  Exec("CREATE EXTERNAL DATASET AccessLog(AccessLogType) USING localfs "
       "((\"path\"=\"localhost://" + log_path + "\"), "
       "(\"format\"=\"delimited-text\"), (\"delimiter\"=\"|\"))");

  // Users: alice has 2 friends, bob has 3, carol (inactive window) has 2.
  Exec("UPSERT INTO GleambookUsers ({\"id\": 1, \"alias\": \"alice\", "
       "\"name\": \"Alice\", \"userSince\": datetime(\"2012-01-01T00:00:00\"), "
       "\"friendIds\": {{ 2, 3 }}, \"employment\": []})");
  Exec("UPSERT INTO GleambookUsers ({\"id\": 2, \"alias\": \"bob\", "
       "\"name\": \"Bob\", \"userSince\": datetime(\"2013-05-01T00:00:00\"), "
       "\"friendIds\": {{ 1, 3, 4 }}, \"employment\": []})");
  Exec("UPSERT INTO GleambookUsers ({\"id\": 3, \"alias\": \"carol\", "
       "\"name\": \"Carol\", \"userSince\": datetime(\"2014-07-01T00:00:00\"), "
       "\"friendIds\": {{ 1, 2 }}, \"employment\": []})");

  // (c) the SELECT: recently-active users grouped by number of friends.
  // (current_datetime() replaced by a fixed window so the test is stable.)
  auto r = Exec(
      "WITH startTime AS datetime(\"2024-01-01T00:00:00\"), "
      "     endTime AS datetime(\"2025-01-01T00:00:00\") "
      "SELECT nf AS numFriends, COUNT(user) AS activeUsers "
      "FROM GleambookUsers user "
      "LET nf = COLL_COUNT(user.friendIds) "
      "WHERE SOME logrec IN AccessLog SATISFIES user.alias = logrec.user "
      "  AND datetime(logrec.time) >= startTime "
      "  AND datetime(logrec.time) <= endTime "
      "GROUP BY nf ORDER BY nf");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].GetField("numFriends").AsInt(), 2);  // alice
  EXPECT_EQ(r.rows[0].GetField("activeUsers").AsInt(), 1);
  EXPECT_EQ(r.rows[1].GetField("numFriends").AsInt(), 3);  // bob
  EXPECT_EQ(r.rows[1].GetField("activeUsers").AsInt(), 1);

  // (d) the UPSERT of user 667 (Fig. 3(d) verbatim, dialect-adjusted).
  Exec("UPSERT INTO GleambookUsers ({"
       "\"id\":667, \"alias\":\"dfrump\", \"name\":\"DonaldFrump\", "
       "\"nickname\":\"Frumpkin\", "
       "\"userSince\":datetime(\"2017-01-01T00:00:00\"), "
       "\"friendIds\":{{}}, "
       "\"employment\":[{\"organizationName\":\"USA\", "
       "\"startDate\":date(\"2017-01-20\")}], \"gender\":\"M\"})");
  adm::Value frump;
  ASSERT_TRUE(instance_->GetByKey("GleambookUsers", Value::Int(667), &frump)
                  .value());
  EXPECT_EQ(frump.GetField("nickname").AsString(), "Frumpkin");  // open type
  // Replacing (the UPSERT-or-replace semantics).
  Exec("UPSERT INTO GleambookUsers ({\"id\":667, \"alias\":\"dfrump2\", "
       "\"name\":\"DF\", \"userSince\":datetime(\"2017-01-01T00:00:00\"), "
       "\"friendIds\":{{}}, \"employment\":[]})");
  ASSERT_TRUE(instance_->GetByKey("GleambookUsers", Value::Int(667), &frump)
                  .value());
  EXPECT_EQ(frump.GetField("alias").AsString(), "dfrump2");
  EXPECT_TRUE(frump.GetField("nickname").is_missing());
}

}  // namespace
}  // namespace asterix
