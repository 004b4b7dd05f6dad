// Tests for columnar LSM components: writer/reader round trips, schema
// inference, the row-fallback guard, LSM integration (flush, point
// lookups, deletes, mixed-format merges, crash-free reopen), and a seeded
// differential test of the one merge cursor (LsmBTree::Iterator) over
// mixed memory/row/columnar stacks, as scans, the columnar scan and merges
// walk it, and pushed row scans over valid and corrupt records.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <set>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "common/metrics.h"
#include "hyracks/scan.h"
#include "storage/columnar.h"
#include "storage/lsm_btree.h"
#include "storage/maintenance.h"

namespace asterix::storage {
namespace {

using adm::Value;

std::string IntKey(int64_t v) {
  return adm::EncodeKey(Value::Int(v)).value();
}

Value UserRecord(int64_t id) {
  adm::ObjectBuilder b;
  b.Add("id", Value::Int(id))
      .Add("name", Value::String("user-" + std::to_string(id)))
      .Add("score", Value::Double(static_cast<double>(id) * 1.5))
      .Add("active", Value::Boolean(id % 2 == 0));
  if (id % 3 == 0) b.Add("nickname", Value::Null());
  if (id % 5 == 0) {
    b.Add("tags", Value::Array({Value::String("a"), Value::Int(id)}));
  }
  return b.Build();
}

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axcol_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmOptions Options(StorageFormat fmt = StorageFormat::kColumnar) {
    LsmOptions o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = 1 << 14;
    o.storage_format = fmt;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(ColumnarTest, WriterReaderRoundTrip) {
  std::string path = dir_ + "/c.col";
  ColumnarComponentWriter writer(path);
  std::vector<Value> originals;
  for (int64_t i = 0; i < 50; i++) {
    Value rec = UserRecord(i);
    originals.push_back(rec);
    writer.Add(IntKey(i), /*antimatter=*/false, rec);
  }
  auto wrote = writer.Finish().value();
  EXPECT_EQ(wrote.rows, 50u);
  EXPECT_GE(wrote.columns, 4u);

  auto reader = ColumnarReader::Open(path).value();
  ASSERT_EQ(reader->row_count(), 50u);
  auto cols = reader->ReadAllColumns().value();
  for (uint64_t r = 0; r < 50; r++) {
    EXPECT_EQ(reader->key(r), IntKey(static_cast<int64_t>(r)));
    EXPECT_FALSE(reader->antimatter(r));
    Value mat = reader->MaterializeRow(cols, r).value();
    EXPECT_EQ(mat, originals[r]) << "row " << r;
    Value point = reader->ReadRecord(r).value();
    EXPECT_EQ(point, originals[r]) << "row " << r;
  }
}

TEST_F(ColumnarTest, SchemaInferenceKinds) {
  std::string path = dir_ + "/k.col";
  ColumnarComponentWriter writer(path);
  for (int64_t i = 0; i < 8; i++) {
    writer.Add(IntKey(i), false,
               adm::ObjectBuilder()
                   .Add("i", Value::Int(i))
                   .Add("s", Value::String("x"))
                   // Mixed tags force the variant layout.
                   .Add("m", i % 2 ? Value::Int(i) : Value::String("y"))
                   .Build());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ColumnarReader::Open(path).value();
  ASSERT_EQ(reader->num_columns(), 3u);
  int ci = reader->FindColumn("i");
  int cs = reader->FindColumn("s");
  int cm = reader->FindColumn("m");
  ASSERT_GE(ci, 0);
  ASSERT_GE(cs, 0);
  ASSERT_GE(cm, 0);
  EXPECT_EQ(reader->column(static_cast<size_t>(ci)).kind, ColumnKind::kFixed);
  EXPECT_EQ(reader->column(static_cast<size_t>(ci)).tag, adm::TypeTag::kInt64);
  EXPECT_EQ(reader->column(static_cast<size_t>(cs)).kind, ColumnKind::kString);
  EXPECT_EQ(reader->column(static_cast<size_t>(cm)).kind, ColumnKind::kVariant);
  EXPECT_EQ(reader->FindColumn("nope"), -1);
}

TEST_F(ColumnarTest, NullMissingAndAntimatter) {
  std::string path = dir_ + "/n.col";
  ColumnarComponentWriter writer(path);
  writer.Add(IntKey(1), false,
             adm::ObjectBuilder()
                 .Add("a", Value::Int(1))
                 .Add("b", Value::Null())
                 .Build());
  writer.Add(IntKey(2), /*antimatter=*/true, Value::Missing());
  writer.Add(IntKey(3), false,
             adm::ObjectBuilder().Add("a", Value::Int(3)).Build());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ColumnarReader::Open(path).value();
  ASSERT_EQ(reader->row_count(), 3u);
  EXPECT_FALSE(reader->antimatter(0));
  EXPECT_TRUE(reader->antimatter(1));
  EXPECT_FALSE(reader->antimatter(2));
  int cb = reader->FindColumn("b");
  ASSERT_GE(cb, 0);
  auto col = reader->ReadColumn(static_cast<size_t>(cb)).value();
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.ValueAt(0).value().is_null());
  EXPECT_TRUE(col.IsMissing(2));  // row 3 has no field b
  // Reassembly keeps the null and omits the absent field.
  auto cols = reader->ReadAllColumns().value();
  Value r0 = reader->MaterializeRow(cols, 0).value();
  EXPECT_TRUE(r0.GetField("b").is_null());
  Value r2 = reader->MaterializeRow(cols, 2).value();
  EXPECT_TRUE(r2.GetField("b").is_missing());
}

TEST_F(ColumnarTest, LowerBoundFindsKeys) {
  std::string path = dir_ + "/lb.col";
  ColumnarComponentWriter writer(path);
  for (int64_t i = 0; i < 20; i += 2) {
    writer.Add(IntKey(i), false,
               adm::ObjectBuilder().Add("id", Value::Int(i)).Build());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = ColumnarReader::Open(path).value();
  EXPECT_EQ(reader->LowerBound(IntKey(0)), 0u);
  EXPECT_EQ(reader->LowerBound(IntKey(7)), 4u);   // first key >= 7 is 8
  EXPECT_EQ(reader->LowerBound(IntKey(8)), 4u);
  EXPECT_EQ(reader->LowerBound(IntKey(99)), reader->row_count());
}

TEST_F(ColumnarTest, RecordIsColumnarGuard) {
  EXPECT_TRUE(RecordIsColumnar(UserRecord(1)));
  EXPECT_FALSE(RecordIsColumnar(Value::Int(1)));
  EXPECT_FALSE(RecordIsColumnar(Value::String("x")));
  // An explicit top-level MISSING field would not round-trip byte-exactly.
  EXPECT_FALSE(RecordIsColumnar(
      adm::ObjectBuilder().Add("a", Value::Missing()).Build()));
}

TEST_F(ColumnarTest, LsmFlushWritesColumnarComponent) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.columnar_components, 1u);
  std::string v;
  ASSERT_TRUE(tree->Get(IntKey(42), &v).value());
  EXPECT_EQ(adm::Deserialize(v).value(), UserRecord(42));
  EXPECT_FALSE(tree->Get(IntKey(1000), &v).value());
}

TEST_F(ColumnarTest, LsmFallsBackToRowForOpaqueValues) {
  auto tree = LsmBTree::Open(Options()).value();
  // Raw byte strings are not ADM records: the flush must fall back.
  for (int64_t i = 0; i < 10; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "opaque-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.columnar_components, 0u);
  std::string v;
  ASSERT_TRUE(tree->Get(IntKey(3), &v).value());
  EXPECT_EQ(v, "opaque-3");
}

TEST_F(ColumnarTest, DeleteAndIterateAcrossColumnarComponents) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(7)).ok());
  ASSERT_TRUE(tree->Put(IntKey(8), adm::Serialize(UserRecord(800))).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->stats().columnar_components, 2u);

  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(7), &v).value());  // antimatter wins
  ASSERT_TRUE(tree->Get(IntKey(8), &v).value());   // newest version wins
  EXPECT_EQ(adm::Deserialize(v).value(), UserRecord(800));

  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    EXPECT_NE(it.key(), IntKey(7));
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 49);
}

TEST_F(ColumnarTest, MixedFormatStackMergesToColumnar) {
  // Start row-format, flush, then reopen columnar and merge everything.
  {
    auto tree = LsmBTree::Open(Options(StorageFormat::kRow)).value();
    for (int64_t i = 0; i < 30; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    EXPECT_EQ(tree->stats().columnar_components, 0u);
  }
  auto tree = LsmBTree::Open(Options()).value();
  EXPECT_EQ(tree->stats().disk_components, 1u);
  for (int64_t i = 30; i < 60; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
  }
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.columnar_components, 1u);
  EXPECT_EQ(s.disk_entries, 59u);  // antimatter annihilated in full merge
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
  ASSERT_TRUE(tree->Get(IntKey(59), &v).value());
  EXPECT_EQ(adm::Deserialize(v).value(), UserRecord(59));
}

TEST_F(ColumnarTest, ColumnarComponentSurvivesReopen) {
  {
    auto tree = LsmBTree::Open(Options()).value();
    for (int64_t i = 0; i < 40; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Delete(IntKey(3)).ok());
    ASSERT_TRUE(tree->Flush().ok());
  }  // "crash": drop the tree without merging
  auto tree = LsmBTree::Open(Options()).value();
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 2u);
  EXPECT_EQ(s.columnar_components, 2u);
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(3), &v).value());
  ASSERT_TRUE(tree->Get(IntKey(17), &v).value());
  EXPECT_EQ(adm::Deserialize(v).value(), UserRecord(17));
}

TEST_F(ColumnarTest, IteratorReportsColumnarRows) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(100), adm::Serialize(UserRecord(100))).ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (int64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(it.Valid());
    const ColumnarReader* reader = it.columnar_reader();
    ASSERT_NE(reader, nullptr) << i;
    EXPECT_EQ(reader->row_count(), 20u);
    EXPECT_EQ(it.columnar_row(), static_cast<uint64_t>(i));
    EXPECT_EQ(adm::Deserialize(it.value()).value(), UserRecord(i));
    ASSERT_TRUE(it.Next().ok());
  }
  ASSERT_TRUE(it.Valid());  // the memory entry
  EXPECT_EQ(it.key(), IntKey(100));
  EXPECT_EQ(it.columnar_reader(), nullptr);
  ASSERT_TRUE(it.Next().ok());
  EXPECT_FALSE(it.Valid());

  // A row component's entries are not columnar rows.
  LsmOptions rows = Options(StorageFormat::kRow);
  rows.name = "rows";
  auto row_tree = LsmBTree::Open(rows).value();
  ASSERT_TRUE(row_tree->Put(IntKey(1), adm::Serialize(UserRecord(1))).ok());
  ASSERT_TRUE(row_tree->Flush().ok());
  auto row_it = row_tree->NewIterator().value();
  ASSERT_TRUE(row_it.SeekToFirst().ok());
  ASSERT_TRUE(row_it.Valid());
  EXPECT_EQ(row_it.columnar_reader(), nullptr);
}

// ---- the one merge cursor: seeded differential test ------------------------

// What one seed built: the live records (the oracle) and, oldest first, the
// keys each disk component holds, antimatter included.
struct Model {
  std::map<int64_t, Value> live;
  std::vector<std::set<int64_t>> components;
};

// A record whose fields vary: "score" is an int, null or absent; "mixed"
// is an int or a string (a variant column); "tags" is nested.
Value RandomRecord(std::mt19937* rng, int64_t id) {
  adm::ObjectBuilder b;
  b.Add("id", Value::Int(id));
  const uint32_t shape = (*rng)() % 10;
  if (shape == 0) {
    b.Add("score", Value::Null());
  } else if (shape != 1) {
    b.Add("score", Value::Int(static_cast<int64_t>((*rng)() % 100)));
  }
  b.Add("name", Value::String("n" + std::to_string((*rng)() % 10)));
  const uint32_t mixed = (*rng)() % 3;
  if (mixed == 0) {
    b.Add("mixed", Value::Int(static_cast<int64_t>((*rng)() % 3)));
  }
  if (mixed == 1) b.Add("mixed", Value::String("s" + std::to_string(id % 3)));
  if ((*rng)() % 5 == 0) {
    b.Add("tags", Value::Array({Value::Int(id), Value::String("t")}));
  }
  return b.Build();
}

// Apply `ops` random upserts (75%) and deletes over keys [0, 200) to the
// tree and the model; returns the keys touched.
std::set<int64_t> ApplyOps(LsmBTree* tree, Model* m, std::mt19937* rng,
                           int ops) {
  std::set<int64_t> touched;
  for (int i = 0; i < ops; i++) {
    const int64_t id = static_cast<int64_t>((*rng)() % 200);
    touched.insert(id);
    if ((*rng)() % 4 == 0) {
      EXPECT_TRUE(tree->Delete(IntKey(id)).ok());
      m->live.erase(id);
    } else {
      Value rec = RandomRecord(rng, id);
      EXPECT_TRUE(tree->Put(IntKey(id), adm::Serialize(rec)).ok());
      m->live.insert_or_assign(id, std::move(rec));
    }
  }
  return touched;
}

// The tree's merged view, decoded.
std::map<std::string, Value> View(const LsmBTree& tree) {
  std::map<std::string, Value> out;
  auto it = tree.NewIterator().value();
  EXPECT_TRUE(it.SeekToFirst().ok());
  while (it.Valid()) {
    auto rec = adm::Deserialize(it.value());
    EXPECT_TRUE(rec.ok()) << rec.status().message();
    if (rec.ok()) out.emplace(it.key(), std::move(rec).value());
    EXPECT_TRUE(it.Next().ok());
  }
  return out;
}

std::map<std::string, Value> Expected(const Model& m) {
  std::map<std::string, Value> out;
  for (const auto& [id, rec] : m.live) out.emplace(IntKey(id), rec);
  return out;
}

bool Passes(const Value& v, const hyracks::ScanPredicate& p) {
  if (v.is_unknown() || p.constant.is_unknown()) return false;
  const int c = v.Compare(p.constant);
  switch (p.cmp) {
    case adm::CmpOp::kEq: return c == 0;
    case adm::CmpOp::kNeq: return c != 0;
    case adm::CmpOp::kLt: return c < 0;
    case adm::CmpOp::kLe: return c <= 0;
    case adm::CmpOp::kGt: return c > 0;
    case adm::CmpOp::kGe: return c >= 0;
  }
  return false;
}

struct ScanCase {
  std::vector<std::string> fields;
  bool pushed = false;
  std::vector<hyracks::ScanPredicate> predicates;
  std::optional<int64_t> lo = {}, hi = {};  // inclusive key bounds; {} = open
};

std::vector<Value> RunScan(const LsmBTree* tree, const ScanCase& sc) {
  auto key = [](std::optional<int64_t> id) -> std::optional<std::string> {
    if (!id) return std::nullopt;
    return IntKey(*id);
  };
  hyracks::ScanSource scan(tree, sc.fields, sc.pushed, sc.predicates,
                           key(sc.lo), key(sc.hi));
  std::vector<Value> out;
  EXPECT_TRUE(scan.Open().ok());
  hyracks::Batch b;
  while (true) {
    auto more = scan.NextBatch(&b);
    EXPECT_TRUE(more.ok()) << more.status().message();
    if (!more.ok() || !more.value()) break;
    for (size_t i = 0; i < b.size(); i++) out.push_back(b[i].at(0));
  }
  EXPECT_TRUE(scan.Close().ok());
  return out;
}

// What the scan must return, from the model alone, in key order.
std::vector<Value> ExpectedScan(const Model& m, const ScanCase& sc) {
  std::vector<Value> out;
  for (const auto& [id, rec] : m.live) {
    bool keep = (!sc.lo || id >= *sc.lo) && (!sc.hi || id <= *sc.hi);
    for (const auto& p : sc.predicates) {
      keep = keep && Passes(rec.GetField(p.field), p);
    }
    if (!keep) continue;
    if (!sc.pushed) {
      out.push_back(rec);
      continue;
    }
    adm::FieldVec fv;
    for (const auto& name : sc.fields) {
      const Value& v = rec.GetField(name);
      if (!v.is_missing()) fv.emplace_back(name, v);
    }
    out.push_back(Value::Object(std::move(fv)));
  }
  return out;
}

std::vector<ScanCase> ScanCases() {
  using adm::CmpOp;
  return {
      {{}, false, {}},
      {{"id", "score", "absent"}, true, {}},
      {{}, true, {}},  // COUNT(*)
      {{"name", "tags"},
       true,
       {{"score", CmpOp::kGe, Value::Int(40)},
        {"name", CmpOp::kLt, Value::String("n6")}}},
      {{},
       false,
       {{"mixed", CmpOp::kEq, Value::Int(1)},
        {"score", CmpOp::kLe, Value::Double(70.5)}}},
      {{"id"}, true, {{"score", CmpOp::kNeq, Value::Int(40)}}},
      // Key-bounded: lo only, hi only, both, with pushdown on top.
      {{}, false, {}, 57, std::nullopt},
      {{"id", "name"}, true, {}, std::nullopt, 133},
      {{"score"}, true, {{"score", CmpOp::kGt, Value::Int(30)}}, 40, 120},
      // Single-key ranges (the key may be live or not), an inverted range,
      // and ranges past either end of the key space.
      {{}, false, {}, 77, 77},
      {{}, false, {}, 0, 0},
      {{}, false, {}, 199, 199},
      {{}, false, {}, 120, 40},
      {{}, false, {}, 200, std::nullopt},
      {{}, false, {}, std::nullopt, -1},
  };
}

void CheckScans(const LsmBTree* tree, const Model& m, const std::string& at) {
  int n = 0;
  for (const auto& sc : ScanCases()) {
    EXPECT_EQ(RunScan(tree, sc), ExpectedScan(m, sc))
        << at << ", scan case " << n;
    n++;
  }
}

// Keeps a maintenance worker busy, so the tasks queued behind it wait,
// until Release() or the end of the scope.
class BlockedWorker {
 public:
  explicit BlockedWorker(MaintenanceScheduler* sched) {
    std::shared_future<void> released = release_.get_future().share();
    sched->Submit([released] { released.wait(); });
  }
  ~BlockedWorker() { Release(); }
  void Release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  bool released_ = false;
};

class MergeCursorTest : public ColumnarTest {
 protected:
  LsmOptions Stack(StorageFormat fmt, MaintenanceScheduler* sched) {
    LsmOptions o = Options(fmt);
    o.mem_budget_bytes = sched != nullptr ? 4096 : 1 << 20;
    o.merge_policy = {MergePolicyKind::kNoMerge, 0, 0};
    o.scheduler = sched;
    o.max_pending_immutables = 4;
    return o;
  }
  StorageFormat RandomFormat(std::mt19937* rng) {
    return (*rng)() % 2 == 0 ? StorageFormat::kRow : StorageFormat::kColumnar;
  }
  void RunSeed(uint32_t seed);
};

void MergeCursorTest::RunSeed(uint32_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  std::mt19937 rng(seed);
  Model m;

  // Disk components, oldest first, each flushed by a tree opened in a
  // random format. The first is the largest and, being flushed into an
  // empty stack, keeps no antimatter.
  const int disk = 2 + static_cast<int>(rng() % 3);
  for (int c = 0; c < disk; c++) {
    auto tree = LsmBTree::Open(Stack(RandomFormat(&rng), nullptr)).value();
    std::set<int64_t> keys = ApplyOps(tree.get(), &m, &rng, c == 0 ? 160 : 30);
    if (c == 0) {
      std::erase_if(keys, [&](int64_t id) { return m.live.count(id) == 0; });
    }
    m.components.push_back(std::move(keys));
    ASSERT_TRUE(tree->Flush().ok());
  }

  // An immutable memory component, held back from its flush by a blocked
  // maintenance worker, and a mutable one above it. (Declared in this
  // order, a failed assertion releases the worker before the tree waits
  // for its flush.)
  MaintenanceScheduler sched(1);
  std::unique_ptr<LsmBTree> tree;
  BlockedWorker blocked(&sched);
  tree = LsmBTree::Open(Stack(RandomFormat(&rng), &sched)).value();
  std::set<int64_t> imm;
  while (tree->stats().pending_immutables == 0 && imm.size() < 200) {
    imm.merge(ApplyOps(tree.get(), &m, &rng, 1));
  }
  ASSERT_EQ(tree->stats().pending_immutables, 1u);
  m.components.push_back(std::move(imm));
  m.components.push_back(ApplyOps(tree.get(), &m, &rng, 1 + rng() % 12));
  ASSERT_EQ(tree->stats().pending_immutables, 1u);
  ASSERT_EQ(tree->stats().disk_components, static_cast<size_t>(disk));

  // The stack stays the same while these run.
  const auto expected = Expected(m);
  EXPECT_EQ(View(*tree), expected);
  CheckScans(tree.get(), m, "mixed stack");
  // Seeks land on the first live key at or after the target.
  for (int64_t id : {0, 57, 133, 199}) {
    auto it = tree->NewIterator().value();
    ASSERT_TRUE(it.Seek(IntKey(id)).ok());
    auto want = m.live.lower_bound(id);
    ASSERT_EQ(it.Valid(), want != m.live.end()) << id;
    if (it.Valid()) {
      EXPECT_EQ(it.key(), IntKey(want->first)) << id;
    }
  }

  blocked.Release();
  ASSERT_TRUE(tree->Flush().ok());
  sched.Drain();
  ASSERT_EQ(tree->stats().disk_components, m.components.size());
  EXPECT_EQ(View(*tree), expected);
  tree.reset();

  // A merge of every component but the oldest keeps its antimatter: one
  // entry per key any of them holds. The prefix policy's cap, one byte
  // short of the whole stack, selects exactly that run.
  LsmOptions prefix = Stack(RandomFormat(&rng), nullptr);
  tree = LsmBTree::Open(prefix).value();
  prefix.merge_policy = {MergePolicyKind::kPrefix, 0,
                         tree->stats().disk_bytes - 1};
  tree.reset();
  tree = LsmBTree::Open(prefix).value();
  ASSERT_TRUE(tree->MaybeMerge().value());
  std::set<int64_t> run;
  for (size_t c = 1; c < m.components.size(); c++) {
    run.insert(m.components[c].begin(), m.components[c].end());
  }
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 2u);
  EXPECT_EQ(s.disk_entries, m.components[0].size() + run.size());
  EXPECT_EQ(View(*tree), expected);
  CheckScans(tree.get(), m, "after a merge above the oldest");

  // A merge that includes the oldest component drops all antimatter.
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.disk_entries, m.live.size());
  EXPECT_EQ(View(*tree), expected);
  CheckScans(tree.get(), m, "after a full merge");
}

TEST_F(MergeCursorTest, RandomStacksAgreeWithModel) {
  for (uint32_t seed = 1; seed <= 12; seed++) {
    RunSeed(seed);
    if (HasFailure()) break;
  }
}

TEST_F(MergeCursorTest, PushedProjectionSkipsColumns) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  metrics::Counter* skipped = metrics::Registry::Global().GetCounter(
      "storage.columnar.columns_skipped");
  const uint64_t before = skipped->value();
  ScanCase sc{{"id"}, true, {}};
  std::vector<Value> got = RunScan(tree.get(), sc);
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(got[7], adm::ObjectBuilder().Add("id", Value::Int(7)).Build());
  // The component has id, name, score, active, nickname and tags columns.
  EXPECT_EQ(skipped->value() - before, 5u);
}

TEST_F(ColumnarTest, PushedRowScansReturnTheProjectedRecords) {
  auto tree = LsmBTree::Open(Options(StorageFormat::kRow)).value();
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), adm::Serialize(UserRecord(i))).ok());
    if (i == 24) {
      ASSERT_TRUE(tree->Flush().ok());  // half row, half memory
    }
  }
  std::vector<Value> counted = RunScan(tree.get(), {{}, true, {}});
  ASSERT_EQ(counted.size(), 50u);
  for (const Value& v : counted) EXPECT_EQ(v, Value::Object({}));

  std::vector<Value> projected =
      RunScan(tree.get(), {{"tags", "name", "absent"}, true, {}});
  ASSERT_EQ(projected.size(), 50u);
  for (int64_t i = 0; i < 50; i++) {
    adm::ObjectBuilder b;
    b.Add("name", UserRecord(i).GetField("name"));
    if (i % 5 == 0) b.Add("tags", UserRecord(i).GetField("tags"));
    EXPECT_EQ(projected[i], b.Build()) << i;
  }

  // The predicate field is read but not returned.
  std::vector<Value> filtered = RunScan(
      tree.get(),
      {{"name"}, true, {{"score", adm::CmpOp::kGe, Value::Int(60)}}});
  ASSERT_EQ(filtered.size(), 10u);  // ids 40..49
  EXPECT_EQ(filtered[0], adm::ObjectBuilder()
                             .Add("name", Value::String("user-40"))
                             .Build());
}

// Runs `sc` over `tree` to its end; the first error, if any.
Status DrainScan(const LsmBTree* tree, const ScanCase& sc) {
  hyracks::ScanSource scan(tree, sc.fields, sc.pushed, sc.predicates);
  AX_RETURN_NOT_OK(scan.Open());
  hyracks::Batch b;
  while (true) {
    AX_ASSIGN_OR_RETURN(bool more, scan.NextBatch(&b));
    if (!more) return scan.Close();
  }
}

// {"id": 3, "name": <`bad_name`>}: malformed only in the field after "id".
std::string RecordWithBadName(const std::string& bad_name) {
  std::string out(1, static_cast<char>(adm::TypeTag::kObject));
  adm::PutVarint(2, &out);
  adm::PutVarint(2, &out);
  out += "id";
  adm::SerializeValue(Value::Int(3), &out);
  adm::PutVarint(4, &out);
  out += "name";
  return out + bad_name;
}

TEST_F(ColumnarTest, ScansRejectCorruptRowRecords) {
  const std::string bad_tag(1, '\x7f');
  std::string short_string(1, static_cast<char>(adm::TypeTag::kString));
  adm::PutVarint(100, &short_string);
  short_string += "ab";
  const std::vector<std::string> malformed = {
      RecordWithBadName(bad_tag), RecordWithBadName(short_string),
      adm::Serialize(UserRecord(3)) + '\x01'};  // trailing byte
  using adm::CmpOp;
  const std::vector<ScanCase> cases = {
      {{}, false, {}},                                        // unpushed
      {{"id"}, true, {}},                                     // skips "name"
      {{"id"}, true, {{"id", CmpOp::kGe, Value::Int(0)}}},  // predicate
      {{}, true, {{"id", CmpOp::kGe, Value::Int(0)}}},
      {{}, true, {}},  // COUNT(*)
  };
  for (size_t bad = 0; bad < malformed.size(); bad++) {
    LsmOptions o = Options(StorageFormat::kRow);
    o.dir = dir_ + "/bad" + std::to_string(bad);
    auto tree = LsmBTree::Open(o).value();
    for (int64_t i = 0; i < 10; i++) {
      std::string value =
          i == 3 ? malformed[bad] : adm::Serialize(UserRecord(i));
      ASSERT_TRUE(tree->Put(IntKey(i), value).ok());
    }
    for (bool flushed : {false, true}) {
      if (flushed) {
        ASSERT_TRUE(tree->Flush().ok());
      }
      for (size_t c = 0; c < cases.size(); c++) {
        Status s = DrainScan(tree.get(), cases[c]);
        EXPECT_EQ(s.code(), StatusCode::kCorruption)
            << "record " << bad << ", case " << c << ", "
            << (flushed ? "row component" : "memory") << ": " << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace asterix::storage
