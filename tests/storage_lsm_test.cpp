// Tests for the LSM B+tree: memory/disk components, flush, antimatter
// deletes, merged iteration, merge policies (the keyword index's too), and
// crash-free reopen.
#include <gtest/gtest.h>

#include <filesystem>

#include "adm/key_encoder.h"
#include "storage/lsm_btree.h"
#include "storage/lsm_inverted.h"

namespace asterix::storage {
namespace {

std::string IntKey(int64_t v) {
  return adm::EncodeKey(adm::Value::Int(v)).value();
}

class LsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axlsm_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256);
  }
  void TearDown() override {
    cache_.reset();
    std::filesystem::remove_all(dir_);
  }
  LsmOptions Options(size_t mem_budget = 1 << 14) {
    LsmOptions o;
    o.dir = dir_;
    o.name = "ds";
    o.cache = cache_.get();
    o.mem_budget_bytes = mem_budget;
    return o;
  }
  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_F(LsmTest, PutGetInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "one").ok());
  ASSERT_TRUE(tree->Put(IntKey(2), "two").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "one");
  EXPECT_FALSE(tree->Get(IntKey(3), &v).value());
  EXPECT_EQ(tree->stats().disk_components, 0u);
}

TEST_F(LsmTest, OverwriteInMemory) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(1), "a").ok());
  ASSERT_TRUE(tree->Put(IntKey(1), "b").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, FlushCreatesDiskComponent) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  EXPECT_EQ(s.mem_entries, 0u);
  EXPECT_EQ(s.disk_entries, 100u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(42), &v).value());
  EXPECT_EQ(v, "v42");
}

TEST_F(LsmTest, AutoFlushOnBudget) {
  auto tree = LsmBTree::Open(Options(/*mem_budget=*/2048)).value();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(32, 'x')).ok());
  }
  EXPECT_GT(tree->stats().flushes, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(0), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(499), &v).value());
}

TEST_F(LsmTest, NewestComponentWins) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(7), "old").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(7), "new").ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(7), &v).value());
  EXPECT_EQ(v, "new");
}

TEST_F(LsmTest, DeleteViaAntimatter) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "x").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
  // Antimatter persists across a flush and still hides the old version.
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_FALSE(tree->Get(IntKey(5), &v).value());
}

TEST_F(LsmTest, DeleteThenReinsert) {
  auto tree = LsmBTree::Open(Options()).value();
  ASSERT_TRUE(tree->Put(IntKey(5), "first").ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Delete(IntKey(5)).ok());
  ASSERT_TRUE(tree->Flush().ok());
  ASSERT_TRUE(tree->Put(IntKey(5), "second").ok());
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(5), &v).value());
  EXPECT_EQ(v, "second");
}

TEST_F(LsmTest, MergedScanAcrossComponents) {
  auto tree = LsmBTree::Open(Options()).value();
  // Three overlapping generations plus live memory data.
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g1").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 50; i < 150; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g2").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 100; i < 200; i++) ASSERT_TRUE(tree->Put(IntKey(i), "g3").ok());

  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    int64_t k = parts[0].AsInt();
    if (k < 50) {
      EXPECT_EQ(it.value(), "g1");
    } else if (k < 100) {
      EXPECT_EQ(it.value(), "g2");
    } else {
      EXPECT_EQ(it.value(), "g3");
    }
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

TEST_F(LsmTest, ScanSkipsDeleted) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i += 2) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    auto parts = adm::DecodeKey(it.key()).value();
    EXPECT_EQ(parts[0].AsInt() % 2, 1);
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 25);
}

TEST_F(LsmTest, SnapshotIteratorStableAcrossFlush) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 20; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  // Mutate after snapshot.
  for (int i = 20; i < 40; i++) ASSERT_TRUE(tree->Put(IntKey(i), "v").ok());
  ASSERT_TRUE(tree->Flush().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 20);  // snapshot view
}

TEST_F(LsmTest, ConstantMergePolicyBoundsComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kConstant;
  opts.merge_policy.max_components = 3;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i % 700), std::string(16, 'y')).ok());
  }
  auto s = tree->stats();
  EXPECT_LE(s.disk_components, 4u);
  EXPECT_GT(s.merges, 0u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(123), &v).value());
}

TEST_F(LsmTest, NoMergePolicyAccumulatesComponents) {
  auto opts = Options(1 << 10);
  opts.merge_policy.kind = MergePolicyKind::kNoMerge;
  auto tree = LsmBTree::Open(opts).value();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree->Put(IntKey(i), std::string(16, 'y')).ok());
  }
  EXPECT_GT(tree->stats().disk_components, 3u);
  EXPECT_EQ(tree->stats().merges, 0u);
}

TEST_F(LsmTest, KeywordIndexFollowsMergePolicy) {
  // The keyword index takes the B+tree's options whole, merge policy
  // included: under kNoMerge its flushes accumulate.
  auto opts = Options();
  opts.merge_policy.kind = MergePolicyKind::kNoMerge;
  auto idx = LsmInvertedIndex::Open(opts).value();
  for (int f = 0; f < 6; f++) {
    ASSERT_TRUE(idx->InsertText("alpha beta " + std::to_string(f),
                                "pk" + std::to_string(f))
                    .ok());
    ASSERT_TRUE(idx->Flush().ok());
  }
  EXPECT_GT(idx->stats().disk_components, 5u);
  EXPECT_EQ(idx->stats().merges, 0u);
  EXPECT_EQ(idx->Search("alpha").value().size(), 6u);
}

TEST_F(LsmTest, FullMergeDropsAntimatterAndDuplicates) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "a").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 100; i++) ASSERT_TRUE(tree->Put(IntKey(i), "b").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 0; i < 50; i++) ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
  ASSERT_TRUE(tree->ForceFullMerge().ok());
  auto s = tree->stats();
  EXPECT_EQ(s.disk_components, 1u);
  // 50 live keys remain; antimatter and shadowed versions are gone.
  EXPECT_EQ(s.disk_entries, 50u);
  std::string v;
  EXPECT_FALSE(tree->Get(IntKey(10), &v).value());
  EXPECT_TRUE(tree->Get(IntKey(75), &v).value());
  EXPECT_EQ(v, "b");
}

TEST_F(LsmTest, ReopenRecoversDiskComponents) {
  {
    auto tree = LsmBTree::Open(Options()).value();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), "p" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
    for (int i = 100; i < 200; i++) {
      ASSERT_TRUE(tree->Put(IntKey(i), "p" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  auto tree = LsmBTree::Open(Options()).value();
  EXPECT_EQ(tree->stats().disk_components, 2u);
  std::string v;
  EXPECT_TRUE(tree->Get(IntKey(150), &v).value());
  EXPECT_EQ(v, "p150");
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 200);
}

// Recovery adopts only this tree's own files: a tree whose name extends
// this one's ("ds" vs "ds_1") shares the directory, not the components.
TEST_F(LsmTest, ReopenIgnoresComponentsOfTreeWithLongerName) {
  LsmOptions other = Options();
  other.name = "ds_1";
  {
    auto tree = LsmBTree::Open(other).value();
    ASSERT_TRUE(tree->Put(IntKey(1), "other").ok());
    ASSERT_TRUE(tree->Flush().ok());
  }
  {
    auto tree = LsmBTree::Open(Options()).value();
    EXPECT_EQ(tree->stats().disk_components, 0u);
    std::string v;
    EXPECT_FALSE(tree->Get(IntKey(1), &v).value());
    // A full merge of "ds" must not retire any of "ds_1"'s files.
    ASSERT_TRUE(tree->Put(IntKey(2), "mine").ok());
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(tree->Put(IntKey(3), "mine").ok());
    ASSERT_TRUE(tree->ForceFullMerge().ok());
  }
  auto tree = LsmBTree::Open(other).value();
  EXPECT_EQ(tree->stats().disk_components, 1u);
  std::string v;
  ASSERT_TRUE(tree->Get(IntKey(1), &v).value());
  EXPECT_EQ(v, "other");
  EXPECT_FALSE(tree->Get(IntKey(2), &v).value());
}

TEST_F(LsmTest, SeekWithinMergedView) {
  auto tree = LsmBTree::Open(Options()).value();
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "even").ok());
  ASSERT_TRUE(tree->Flush().ok());
  for (int i = 1; i < 100; i += 2) ASSERT_TRUE(tree->Put(IntKey(i), "odd").ok());
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.Seek(IntKey(37)).ok());
  ASSERT_TRUE(it.Valid());
  auto parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 37);
  EXPECT_EQ(it.value(), "odd");
  ASSERT_TRUE(it.Next().ok());
  parts = adm::DecodeKey(it.key()).value();
  EXPECT_EQ(parts[0].AsInt(), 38);
  EXPECT_EQ(it.value(), "even");
}

// Property sweep over merge policies: contents identical regardless.
struct PolicyParam {
  MergePolicyKind kind;
  const char* name;
};

class LsmPolicySweep : public LsmTest,
                       public ::testing::WithParamInterface<PolicyParam> {};

TEST_P(LsmPolicySweep, SameContentsUnderAnyPolicy) {
  auto opts = Options(1 << 11);
  opts.merge_policy.kind = GetParam().kind;
  opts.merge_policy.max_components = 3;
  opts.merge_policy.max_merged_bytes = 1 << 20;
  auto tree = LsmBTree::Open(opts).value();
  // Deterministic workload with overwrites and deletes.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(
          tree->Put(IntKey(i), "r" + std::to_string(round) + "_" +
                                   std::to_string(i))
              .ok());
    }
    for (int i = round * 10; i < round * 10 + 50; i++) {
      ASSERT_TRUE(tree->Delete(IntKey(i)).ok());
    }
  }
  // Expected final state: keys deleted in round 2 (20..69) absent unless
  // rewritten afterwards — round 2 deletes happen after its puts, so keys
  // 20..69 are deleted; everything else holds "r2_<i>".
  std::string v;
  for (int i = 0; i < 400; i++) {
    bool deleted = i >= 20 && i < 70;
    bool found = tree->Get(IntKey(i), &v).value();
    EXPECT_EQ(found, !deleted) << "key " << i;
    if (found) {
      EXPECT_EQ(v, "r2_" + std::to_string(i));
    }
  }
  auto it = tree->NewIterator().value();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int count = 0;
  while (it.Valid()) {
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 350);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LsmPolicySweep,
    ::testing::Values(PolicyParam{MergePolicyKind::kNoMerge, "none"},
                      PolicyParam{MergePolicyKind::kConstant, "constant"},
                      PolicyParam{MergePolicyKind::kPrefix, "prefix"}),
    [](const ::testing::TestParamInfo<PolicyParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace asterix::storage
