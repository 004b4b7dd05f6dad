// Tests for the system-layer components: metadata persistence, external
// datasets, the Gleambook generator, and the HTAP shadow feed.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "adm/delimited.h"
#include "adm/temporal.h"
#include "asterix/external.h"
#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "asterix/metadata.h"
#include "asterix/shadow_feed.h"
#include "common/io.h"

namespace asterix {
namespace {

using adm::Value;

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axsys_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(SystemTest, MetadataPersistsAcrossReopen) {
  std::string path = dir_ + "/meta.adm";
  {
    auto meta = meta::MetadataManager::Open(path).value();
    auto t = adm::Type::MakeObject(
        "UserType",
        {{"id", adm::Type::Primitive(adm::TypeTag::kInt64), false},
         {"tags", adm::Type::MakeMultiset(adm::Type::Primitive(
                      adm::TypeTag::kString)), true}},
        /*open=*/false);
    Status s = meta->Update([&](meta::Catalog* c) -> Status {
      AX_RETURN_NOT_OK(c->AddType("UserType", t));
      meta::DatasetDef ds;
      ds.name = "Users";
      ds.type_name = "UserType";
      ds.primary_key = "id";
      AX_RETURN_NOT_OK(c->AddDataset(ds).status());
      return c->AddIndex("Users", {"tagIdx", "tags", meta::IndexKind::kKeyword})
          .status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  auto meta = meta::MetadataManager::Open(path).value();
  meta::CatalogPtr c = meta->Snapshot();
  auto t = c->GetType("UserType").value();
  EXPECT_FALSE(t->open());
  EXPECT_EQ(t->object_fields().size(), 2u);
  EXPECT_TRUE(t->object_fields()[1].optional);
  EXPECT_EQ(t->object_fields()[1].type->kind(), adm::TypeKind::kMultiset);
  const meta::DatasetDef& ds = c->GetDataset("Users").value()->def;
  EXPECT_EQ(ds.primary_key, "id");
  ASSERT_EQ(ds.indexes.size(), 1u);
  EXPECT_EQ(ds.indexes[0].kind, meta::IndexKind::kKeyword);
  // Storage ids are persisted, and a fresh one is never reused.
  EXPECT_NE(ds.id, ds.indexes[0].id);
  EXPECT_GT(c->next_id, ds.indexes[0].id);
  // Catalog interface.
  EXPECT_TRUE(meta->HasDataset("Users"));
  EXPECT_EQ(meta->PrimaryKeyField("Users"), "id");
  EXPECT_EQ(meta->SecondaryIndexes("Users").size(), 1u);
}

TEST_F(SystemTest, MetadataGuardsIntegrity) {
  meta::Catalog c;
  auto t = adm::Type::MakeObject("T", {}, true);
  ASSERT_TRUE(c.AddType("T", t).ok());
  EXPECT_EQ(c.AddType("T", t).code(), StatusCode::kAlreadyExists);
  meta::DatasetDef ds;
  ds.name = "D";
  ds.type_name = "T";
  ds.primary_key = "id";
  ASSERT_TRUE(c.AddDataset(ds).ok());
  // Type in use cannot be dropped.
  EXPECT_FALSE(c.RemoveType("T").ok());
  // External datasets cannot be indexed.
  meta::DatasetDef ext;
  ext.name = "E";
  ext.type_name = "T";
  ext.external = true;
  ASSERT_TRUE(c.AddDataset(ext).ok());
  EXPECT_FALSE(c.AddIndex("E", {"x", "f", meta::IndexKind::kBTree}).ok());
}

// A failed persist publishes nothing: the catalog stays as it was.
TEST_F(SystemTest, MetadataFailedPersistPublishesNothing) {
  std::string path = dir_ + "/meta.adm";
  auto meta = meta::MetadataManager::Open(path).value();
  auto t = adm::Type::MakeObject("T", {}, true);
  ASSERT_TRUE(
      meta->Update([&](meta::Catalog* c) { return c->AddType("T", t); }).ok());
  meta::CatalogPtr before = meta->Snapshot();
  // The temporary file the persist writes cannot be created.
  std::filesystem::create_directories(path + ".tmp/blocker");
  Status s =
      meta->Update([&](meta::Catalog* c) { return c->AddType("U", t); });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(meta->Snapshot(), before);
  EXPECT_FALSE(meta->Snapshot()->GetType("U").ok());
}

TEST_F(SystemTest, ChainedTypesDeeperThanARecordSurviveReopen) {
  // Each named type nests the ones it uses in the catalog file, three
  // levels per link, so 100 links are deeper than a record may be.
  InstanceOptions opts;
  opts.base_dir = dir_ + "/inst";
  std::string script = "CREATE TYPE T0 AS { v: int };";
  for (int i = 1; i <= 100; i++) {
    script += "CREATE TYPE T" + std::to_string(i) + " AS { next: T" +
              std::to_string(i - 1) + " };";
  }
  script += "CREATE DATASET D(T100) PRIMARY KEY id";
  {
    auto instance = Instance::Open(opts).value();
    auto s = instance->ExecuteScript(script);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
  }
  auto reopened = Instance::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto count = reopened.value()->Execute("SELECT VALUE COUNT(*) FROM D d");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows[0].AsInt(), 0);
}

TEST_F(SystemTest, ExternalDelimitedText) {
  auto type = adm::Type::MakeObject(
      "Log",
      {{"name", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"count", adm::Type::Primitive(adm::TypeTag::kInt64), false},
       {"score", adm::Type::Primitive(adm::TypeTag::kDouble), false}},
      false);
  auto rec = adm::ParseDelimitedLine("widget|12|3.5", '|', type).value();
  EXPECT_EQ(rec.GetField("name").AsString(), "widget");
  EXPECT_EQ(rec.GetField("count").AsInt(), 12);
  EXPECT_DOUBLE_EQ(rec.GetField("score").AsNumber(), 3.5);
  // Wrong column count.
  EXPECT_FALSE(adm::ParseDelimitedLine("a|1", '|', type).ok());
}

TEST_F(SystemTest, ExternalAdmFormat) {
  std::string path = dir_ + "/data.adm";
  ASSERT_TRUE(fs::WriteStringToFile(
                  path,
                  "{\"id\": 1, \"at\": datetime(\"2024-01-01T00:00:00\")}\n"
                  "{\"id\": 2, \"tags\": {{\"a\"}}}\n")
                  .ok());
  meta::DatasetDef def;
  def.name = "X";
  def.external = true;
  def.external_props = {{"path", path}, {"format", "adm"}};
  auto rows = external::ReadExternalDataset(def, adm::Type::Any()).value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].GetField("at").tag(), adm::TypeTag::kDatetime);
  EXPECT_TRUE(rows[1].GetField("tags").is_multiset());
}

TEST_F(SystemTest, CsvExportRoundTrip) {
  std::vector<Value> rows = {
      adm::ObjectBuilder().Add("a", Value::Int(1)).Add("b", Value::String("x")).Build(),
      adm::ObjectBuilder().Add("a", Value::Int(2)).Add("b", Value::String("y")).Build(),
  };
  std::string path = dir_ + "/out.csv";
  ASSERT_TRUE(external::ExportCsv(rows, {"a", "b"}, path).ok());
  auto content = fs::ReadFileToString(path).value();
  EXPECT_EQ(content, "a,b\n1,x\n2,y\n");
}

TEST_F(SystemTest, GleambookGeneratorIsDeterministicAndValid) {
  gleambook::GeneratorOptions o;
  o.num_users = 50;
  o.num_messages = 100;
  gleambook::Generator g1(o), g2(o);
  auto u1 = g1.Users();
  auto u2 = g2.Users();
  ASSERT_EQ(u1.size(), 50u);
  for (size_t i = 0; i < u1.size(); i++) {
    EXPECT_EQ(u1[i], u2[i]) << "generator not deterministic at " << i;
  }
  // Generated users validate against the DDL schema on a live instance.
  InstanceOptions iopts;
  iopts.base_dir = dir_ + "/inst";
  iopts.num_partitions = 2;
  auto instance = Instance::Open(iopts).value();
  ASSERT_TRUE(instance->ExecuteScript(gleambook::Generator::Ddl(false)).ok());
  for (const auto& u : u1) {
    ASSERT_TRUE(instance->UpsertValue("GleambookUsers", u).ok());
  }
  for (const auto& m : g1.Messages()) {
    ASSERT_TRUE(instance->UpsertValue("GleambookMessages", m).ok());
  }
  auto r = instance->Execute("SELECT COUNT(*) AS n FROM GleambookUsers u").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 50);
}

TEST_F(SystemTest, AccessLogLinesParse) {
  gleambook::GeneratorOptions o;
  o.num_users = 10;
  o.num_access_log_lines = 20;
  gleambook::Generator gen(o);
  std::string path = dir_ + "/log.txt";
  ASSERT_TRUE(gen.WriteAccessLog(path).ok());
  auto type = adm::Type::MakeObject(
      "AccessLogType",
      {{"ip", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"time", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"user", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"verb", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"path", adm::Type::Primitive(adm::TypeTag::kString), false},
       {"stat", adm::Type::Primitive(adm::TypeTag::kInt64), false},
       {"size", adm::Type::Primitive(adm::TypeTag::kInt64), false}},
      false);
  meta::DatasetDef def;
  def.name = "L";
  def.external = true;
  def.external_props = {{"path", path}, {"format", "delimited-text"},
                        {"delimiter", "|"}};
  auto rows = external::ReadExternalDataset(def, type).value();
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& r : rows) {
    // Timestamps must be parseable (the Fig. 3(c) query depends on it).
    EXPECT_TRUE(
        adm::temporal::ParseDatetime(r.GetField("time").AsString()).ok())
        << r.GetField("time").AsString();
  }
}

TEST_F(SystemTest, OperationalStoreAndChangeStream) {
  feeds::OperationalStore store("id");
  ASSERT_TRUE(store.Upsert(adm::ObjectBuilder()
                               .Add("id", Value::Int(1))
                               .Add("v", Value::String("a"))
                               .Build())
                  .ok());
  ASSERT_TRUE(store.Upsert(adm::ObjectBuilder()
                               .Add("id", Value::Int(1))
                               .Add("v", Value::String("b"))
                               .Build())
                  .ok());
  ASSERT_TRUE(store.Delete(Value::Int(1)).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.last_seqno(), 3u);
  auto batch = store.Drain(10, 0);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch[0].deletion);
  EXPECT_EQ(batch[1].record.GetField("v").AsString(), "b");
  EXPECT_TRUE(batch[2].deletion);
  // Missing key field rejected.
  EXPECT_FALSE(store.Upsert(Value::Object({})).ok());
}

TEST_F(SystemTest, ShadowFeedReplicatesMutations) {
  InstanceOptions iopts;
  iopts.base_dir = dir_ + "/inst";
  iopts.num_partitions = 2;
  auto analytics = Instance::Open(iopts).value();
  ASSERT_TRUE(analytics
                  ->ExecuteScript(
                      "CREATE TYPE T AS { id: int, v: int };"
                      "CREATE DATASET D(T) PRIMARY KEY id")
                  .ok());
  feeds::OperationalStore store("id");
  feeds::ShadowFeed feed(&store, analytics.get(), "D");
  ASSERT_TRUE(feed.Start().ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(store.Upsert(adm::ObjectBuilder()
                                 .Add("id", Value::Int(i % 100))
                                 .Add("v", Value::Int(i))
                                 .Build())
                    .ok());
  }
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(store.Delete(Value::Int(i)).ok());
  }
  ASSERT_TRUE(feed.WaitForCatchUp().ok());
  auto r = analytics->Execute("SELECT COUNT(*) AS n FROM D d").value();
  EXPECT_EQ(r.rows[0].GetField("n").AsInt(), 50);  // 100 keys - 50 deleted
  // The newest version won (v for key 99 is 499).
  adm::Value rec;
  ASSERT_TRUE(analytics->GetByKey("D", Value::Int(99), &rec).value());
  EXPECT_EQ(rec.GetField("v").AsInt(), 499);
  ASSERT_TRUE(feed.Stop().ok());
}

}  // namespace
}  // namespace asterix
