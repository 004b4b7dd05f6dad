// Tests for axlint v2: call-graph resolution (overloads, virtual fan-out,
// recursion/SCCs), the four interprocedural checks against their fixture
// trees, the lexer-hardening fixtures, summary-cache invalidation, and
// JSON/SARIF snapshot output. Fixture sources are scanned, never compiled.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "axlint/callgraph.h"
#include "axlint/driver.h"
#include "axlint/lexer.h"
#include "axlint/scanner.h"

namespace axlint {
namespace {

namespace fs = std::filesystem;

#ifndef AXLINT_FIXTURE_DIR
#error "AXLINT_FIXTURE_DIR must be defined by the build"
#endif

std::string Fixture(const std::string& name) {
  return std::string(AXLINT_FIXTURE_DIR) + "/" + name;
}

RunResult RunOn(const std::string& fixture, Options opts = {}) {
  opts.repo_root = Fixture(fixture);
  opts.baseline_path.clear();
  return RunAxlint(opts);
}

int CountCheck(const RunResult& r, const std::string& check) {
  return static_cast<int>(
      std::count_if(r.unbaselined.begin(), r.unbaselined.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

bool HasMessage(const RunResult& r, const std::string& needle) {
  return std::any_of(r.unbaselined.begin(), r.unbaselined.end(),
                     [&](const Finding& f) {
                       return f.message.find(needle) != std::string::npos;
                     });
}

// Scans inline sources into `store` (which must outlive the graph — Build
// keeps pointers into it) and resolves the project graph.
CallGraph BuildFrom(
    const std::vector<std::pair<std::string, std::string>>& sources,
    std::vector<FileModel>* store,
    const std::map<std::string, int>& ranks = {}) {
  store->clear();
  store->reserve(sources.size());
  for (const auto& [path, code] : sources) {
    store->push_back(ScanFile(path, Lex(path, code)));
  }
  return CallGraph::Build(*store, ranks, {});
}

const CallGraph::Node* NodeOf(const CallGraph& g, const std::string& qualified) {
  for (const CallGraph::Node& n : g.nodes()) {
    if (n.fn->qualified == qualified) return &n;
  }
  return nullptr;
}

// First kCall event in `n` whose callee name matches.
const BodyEvent* CallEvent(const CallGraph::Node& n, const std::string& name) {
  for (const BodyEvent& e : n.fn->events) {
    if (e.kind == BodyEvent::kCall && e.what == name) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

TEST(CallGraphResolution, OverloadsResolveByArity) {
  std::vector<FileModel> files;
  CallGraph g = BuildFrom(
      {{"src/common/overloads.cpp",
        "void Work(int a) {}\n"
        "void Work(int a, int b) {}\n"
        "void Caller() { Work(1, 2); }\n"}},
      &files);
  const CallGraph::Node* caller = NodeOf(g, "Caller");
  ASSERT_NE(nullptr, caller);
  const BodyEvent* call = CallEvent(*caller, "Work");
  ASSERT_NE(nullptr, call);
  int target = caller->confident[call->index];
  ASSERT_GE(target, 0) << "two-arg call must resolve to the two-arg overload";
  EXPECT_EQ(2, g.nodes()[target].fn->param_arity);
}

TEST(CallGraphResolution, VirtualCallFansOutToAllOverrides) {
  std::vector<FileModel> files;
  CallGraph g = BuildFrom(
      {{"src/hyracks/sinks.cpp",
        "struct Tuple {};\n"
        "struct Sink {\n"
        "  virtual void Push(Tuple t) {}\n"
        "};\n"
        "struct FileSink : Sink {\n"
        "  void Push(Tuple t) {}\n"
        "};\n"
        "struct NetSink : Sink {\n"
        "  void Push(Tuple t) {}\n"
        "};\n"
        "struct Driver {\n"
        "  Sink* out_ = nullptr;\n"
        "  void Run(Tuple t) { out_->Push(t); }\n"
        "};\n"}},
      &files);
  const CallGraph::Node* run = NodeOf(g, "Driver::Run");
  ASSERT_NE(nullptr, run);
  const BodyEvent* call = CallEvent(*run, "Push");
  ASSERT_NE(nullptr, call);
  EXPECT_LT(run->confident[call->index], 0)
      << "a call through a base-typed receiver must not pick one override";
  EXPECT_EQ(3u, run->candidates[call->index].size())
      << "base impl + both overrides";
  EXPECT_TRUE(g.DerivesFrom("FileSink", "Sink"));
  EXPECT_FALSE(g.DerivesFrom("Sink", "FileSink"));
}

TEST(CallGraphResolution, MutualRecursionSharesAnSccAndPropagatesBlocking) {
  std::vector<FileModel> files;
  CallGraph g = BuildFrom(
      {{"src/common/recur.cpp",
        "void Pong(int n);\n"
        "void Ping(int n) {\n"
        "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
        "  if (n > 0) Pong(n - 1);\n"
        "}\n"
        "void Pong(int n) {\n"
        "  if (n > 0) Ping(n - 1);\n"
        "}\n"
        "void Outer() { Pong(3); }\n"}},
      &files);
  const CallGraph::Node* ping = NodeOf(g, "Ping");
  const CallGraph::Node* pong = NodeOf(g, "Pong");
  const CallGraph::Node* outer = NodeOf(g, "Outer");
  ASSERT_NE(nullptr, ping);
  ASSERT_NE(nullptr, pong);
  ASSERT_NE(nullptr, outer);
  EXPECT_EQ(ping->scc, pong->scc) << "mutual recursion is one component";
  EXPECT_NE(outer->scc, ping->scc);
  // Ping sleeps; the summary must reach Pong (same SCC) and Outer (caller).
  EXPECT_TRUE(ping->blocks);
  EXPECT_TRUE(pong->blocks);
  EXPECT_TRUE(outer->blocks);
  EXPECT_NE(std::string::npos, outer->blocks_why.find("sleeps"));
}

TEST(CallGraphResolution, SelfRecursionResolvesToItself) {
  std::vector<FileModel> files;
  CallGraph g = BuildFrom({{"src/common/fact.cpp",
                            "int Fact(int n) {\n"
                            "  if (n <= 1) return 1;\n"
                            "  return Fact(n - 1) * n;\n"
                            "}\n"}},
                          &files);
  const CallGraph::Node* fact = NodeOf(g, "Fact");
  ASSERT_NE(nullptr, fact);
  const BodyEvent* call = CallEvent(*fact, "Fact");
  ASSERT_NE(nullptr, call);
  int target = fact->confident[call->index];
  ASSERT_GE(target, 0);
  EXPECT_EQ(fact, &g.nodes()[target]);
}

// ---------------------------------------------------------------------------
// The four interprocedural checks, one positive + one clean subject each.
// ---------------------------------------------------------------------------

TEST(CallGraphChecks, BlockingUnderLockCrossesFunctionBoundary) {
  RunResult r = RunOn("blocking_under_lock");
  EXPECT_EQ(1u, r.unbaselined.size());
  EXPECT_EQ(1, CountCheck(r, "blocking-under-lock"));
  EXPECT_TRUE(HasMessage(r, "Worker::Bad calls Worker::Backoff"));
  EXPECT_TRUE(HasMessage(r, "while holding 'Worker::mu_' (rank 10)"));
  EXPECT_FALSE(HasMessage(r, "Worker::Good"))
      << "scope-released guard must not count as held";
  EXPECT_FALSE(HasMessage(r, "Worker::SiblingScope"))
      << "a sleep in a sibling block at the same depth as a dead guard's "
         "acquire must not count as under-lock";
}

TEST(CallGraphChecks, InheritedMutexResolvesToBaseRank) {
  RunResult r = RunOn("inherited_mutex");
  EXPECT_EQ(1u, r.unbaselined.size());
  EXPECT_EQ(1, CountCheck(r, "blocking-under-lock"));
  EXPECT_TRUE(HasMessage(r, "Tree::Bad sleeps while holding 'Core::mu_'"));
  EXPECT_FALSE(HasMessage(r, "Tree::Good"))
      << "a callee that requires the inherited mutex is exempt";
}

TEST(CallGraphChecks, LockOrderInversionAcrossCall) {
  RunResult r = RunOn("xfn_lock_order");
  EXPECT_EQ(1u, r.unbaselined.size());
  EXPECT_EQ(1, CountCheck(r, "xfn-lock-order"));
  EXPECT_TRUE(HasMessage(r, "Outer::Bad calls Outer::Lift"));
  EXPECT_TRUE(HasMessage(r, "interprocedural lock-order inversion"));
  EXPECT_FALSE(HasMessage(r, "Outer::Good"))
      << "hierarchy-order acquisition through a call is clean";
}

TEST(CallGraphChecks, CancellationCoverageFlagsUnprobedPumps) {
  RunResult r = RunOn("cancellation_coverage");
  EXPECT_EQ(2u, r.unbaselined.size());
  EXPECT_EQ(2, CountCheck(r, "cancellation-coverage"));
  EXPECT_TRUE(HasMessage(r, "BadDrain::Next pumps its input in a loop"));
  EXPECT_TRUE(HasMessage(r, "FeedPump::RunBad runs an infinite feed-stage"));
  EXPECT_FALSE(HasMessage(r, "GoodDrain"))
      << "a CheckAlive probe inside the loop covers the stream";
  EXPECT_FALSE(HasMessage(r, "RunGood"))
      << "a ShouldStop poll inside the loop covers the feed";
}

TEST(CallGraphChecks, RaiiLeakFlagsTemporariesAndHeapGuards) {
  RunResult r = RunOn("raii_leak");
  EXPECT_EQ(2u, r.unbaselined.size());
  EXPECT_EQ(2, CountCheck(r, "raii-leak"));
  EXPECT_TRUE(HasMessage(r, "Pool::Bad constructs an unnamed 'lock_guard'"));
  EXPECT_TRUE(HasMessage(r, "Pool::BadHeap heap-allocates a 'MemoryGrant'"));
  EXPECT_FALSE(HasMessage(r, "Pool::Good"))
      << "named stack guards are the blessed form";
}

// ---------------------------------------------------------------------------
// Lexer hardening
// ---------------------------------------------------------------------------

TEST(LexerHardening, BlockCommentsAndRawStringsStayInert) {
  RunResult r = RunOn("lexer_hardening");
  // Exactly the two real findings: the genuine sqlpp include (layering) and
  // the bare Flush() discard (must-check). The #include hidden inside the
  // #define's block comment must not become an edge, the braces inside the
  // comment and the prefixed raw string must not desync depth, and the
  // multi-line block-comment suppression in suppressed_pp.h must hold.
  EXPECT_EQ(2u, r.unbaselined.size());
  EXPECT_EQ(1, CountCheck(r, "layering"));
  EXPECT_EQ(1, CountCheck(r, "must-check"));
  for (const Finding& f : r.unbaselined) {
    EXPECT_EQ("src/feeds/tricky.cpp", f.path);
  }
  for (const Finding& f : r.unbaselined) {
    if (f.check == "layering") {
      EXPECT_EQ(12, f.line) << "the real include, not the commented-out one";
    }
  }
}

TEST(LexerHardening, PrefixedRawStringKeepsTokenStartLine) {
  LexedFile lx = Lex("src/common/x.cpp",
                     "int a = 1;\n"
                     "const char* q = uR\"x(line one\nline two\n)x\";\n"
                     "int b = 2;\n");
  // Find the raw-string token and the trailing `b` identifier.
  int raw_line = -1, b_line = -1;
  for (const Token& t : lx.tokens) {
    if (t.kind == Tok::kString && t.text.find("line one") != std::string::npos)
      raw_line = t.line;
    if (t.kind == Tok::kIdent && t.text == "b") b_line = t.line;
  }
  EXPECT_EQ(2, raw_line) << "token carries its start line";
  EXPECT_EQ(5, b_line) << "line counter resynced after the raw body";
}

// ---------------------------------------------------------------------------
// Summary cache
// ---------------------------------------------------------------------------

struct TempTree {
  fs::path root;
  explicit TempTree(const std::string& tag) {
    root = fs::temp_directory_path() / ("axlint_" + tag);
    fs::remove_all(root);
    fs::create_directories(root / "src/common");
    fs::create_directories(root / "src/storage");
  }
  ~TempTree() { fs::remove_all(root); }
  void Write(const std::string& rel, const std::string& contents) {
    std::ofstream(root / rel) << contents;
  }
};

TEST(SummaryCache, LeafHeaderEditReanalyzesOnlyTheReverseClosure) {
  TempTree tree("cache_test");
  tree.Write("src/common/leaf.h",
             "#pragma once\ninline int Leaf() { return 1; }\n");
  tree.Write("src/storage/user.cpp",
             "#include \"common/leaf.h\"\nint Use() { return Leaf(); }\n");
  tree.Write("src/storage/other.cpp", "int Other() { return 2; }\n");

  Options opts;
  opts.repo_root = tree.root.string();
  opts.baseline_path.clear();
  opts.cache_dir = (fs::temp_directory_path() / "axlint_cache_store").string();
  fs::remove_all(opts.cache_dir);

  RunResult cold = RunAxlint(opts);
  EXPECT_EQ(3u, cold.files_scanned);
  EXPECT_EQ(3u, cold.files_analyzed);

  RunResult warm = RunAxlint(opts);
  EXPECT_EQ(3u, warm.files_scanned);
  EXPECT_EQ(0u, warm.files_analyzed) << "unchanged tree must be a full hit";
  EXPECT_EQ(cold.unbaselined.size(), warm.unbaselined.size())
      << "cached models must reproduce the cold run's findings";

  // Editing the leaf header invalidates it AND its includer, not the
  // unrelated file.
  tree.Write("src/common/leaf.h",
             "#pragma once\ninline int Leaf() { return 3; }\n");
  RunResult edited = RunAxlint(opts);
  EXPECT_EQ(2u, edited.files_analyzed) << "leaf.h + user.cpp, not other.cpp";

  RunResult rewarm = RunAxlint(opts);
  EXPECT_EQ(0u, rewarm.files_analyzed);
  fs::remove_all(opts.cache_dir);
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

RunResult OneFindingResult() {
  RunResult r;
  r.files_scanned = 2;
  r.files_analyzed = 1;
  r.baselined_count = 0;
  Finding f;
  f.check = "raii-leak";
  f.path = "src/a.cpp";
  f.line = 7;
  f.message = "says \"hello\"";
  r.unbaselined.push_back(f);
  return r;
}

TEST(OutputFormats, JsonSnapshot) {
  const char* expected =
      "{\n"
      "  \"findings\": [\n"
      "    {\"check\": \"raii-leak\", \"path\": \"src/a.cpp\", \"line\": 7, "
      "\"hard\": false, \"message\": \"says \\\"hello\\\"\"}\n"
      "  ],\n"
      "  \"files_scanned\": 2,\n"
      "  \"files_analyzed\": 1,\n"
      "  \"baselined\": 0\n"
      "}\n";
  EXPECT_EQ(expected, FormatFindingsJson(OneFindingResult()));
}

TEST(OutputFormats, SarifSnapshot) {
  const char* expected =
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"axlint\", \"rules\": [\n"
      "      {\"id\": \"blocking-under-lock\"},\n"
      "      {\"id\": \"cancellation-coverage\"},\n"
      "      {\"id\": \"determinism\"},\n"
      "      {\"id\": \"layering\"},\n"
      "      {\"id\": \"lock-order\"},\n"
      "      {\"id\": \"metrics-sync\"},\n"
      "      {\"id\": \"must-check\"},\n"
      "      {\"id\": \"raii-leak\"},\n"
      "      {\"id\": \"xfn-lock-order\"}\n"
      "    ]}},\n"
      "    \"results\": [\n"
      "      {\"ruleId\": \"raii-leak\", \"level\": \"warning\",\n"
      "       \"message\": {\"text\": \"says \\\"hello\\\"\"},\n"
      "       \"locations\": [{\"physicalLocation\": {\n"
      "         \"artifactLocation\": {\"uri\": \"src/a.cpp\"},\n"
      "         \"region\": {\"startLine\": 7}}}]}\n"
      "    ]\n"
      "  }]\n"
      "}\n";
  EXPECT_EQ(expected, FormatFindingsSarif(OneFindingResult()));
}

}  // namespace
}  // namespace axlint
