// Tests for the language layers: lexer/parser coverage, expression
// semantics through the function registry, optimizer rewrites, and the
// AQL-vs-SQL++ shared-algebra property (paper Fig. 4/§IV-A).
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "algebricks/compiler.h"
#include "algebricks/optimizer.h"
#include "aql/aql.h"
#include "asterix/instance.h"
#include "common/metrics.h"
#include "sqlpp/parser.h"
#include "sqlpp/translator.h"

namespace asterix {
namespace {

using adm::Value;
using algebricks::EvaluateConst;
using algebricks::FunctionRegistry;
using sqlpp::ParseExpression;
using sqlpp::ParseStatement;

Value Eval(const std::string& expr_text) {
  auto ast = ParseExpression(expr_text);
  EXPECT_TRUE(ast.ok()) << expr_text << ": " << ast.status().ToString();
  sqlpp::Translator tr(nullptr);
  auto e = tr.TranslateScalar(ast.value());
  EXPECT_TRUE(e.ok()) << expr_text << ": " << e.status().ToString();
  auto v = EvaluateConst(e.value(), FunctionRegistry::Instance());
  EXPECT_TRUE(v.ok()) << expr_text << ": " << v.status().ToString();
  return v.ok() ? std::move(v).value() : Value::Missing();
}

TEST(SqlppExpr, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").AsInt(), 7);
  EXPECT_EQ(Eval("(1 + 2) * 3").AsInt(), 9);
  EXPECT_EQ(Eval("10 % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(Eval("7 / 2").AsNumber(), 3.5);
  EXPECT_EQ(Eval("-5 + 2").AsInt(), -3);
  EXPECT_DOUBLE_EQ(Eval("1.5 + 1").AsNumber(), 2.5);
}

TEST(SqlppExpr, ComparisonAndLogic) {
  EXPECT_TRUE(Eval("1 < 2").AsBool());
  EXPECT_TRUE(Eval("2 <= 2 AND 3 > 1").AsBool());
  EXPECT_TRUE(Eval("1 = 1 OR false").AsBool());
  EXPECT_TRUE(Eval("NOT (1 != 1)").AsBool());
  EXPECT_TRUE(Eval("\"abc\" < \"abd\"").AsBool());
  EXPECT_TRUE(Eval("2 BETWEEN 1 AND 3").AsBool());
  EXPECT_FALSE(Eval("5 BETWEEN 1 AND 3").AsBool());
  EXPECT_TRUE(Eval("2 IN [1,2,3]").AsBool());
  EXPECT_TRUE(Eval("4 NOT IN [1,2,3]").AsBool());
}

TEST(SqlppExpr, ThreeValuedLogic) {
  EXPECT_TRUE(Eval("null IS NULL").AsBool());
  EXPECT_TRUE(Eval("missing IS MISSING").AsBool());
  EXPECT_TRUE(Eval("null IS UNKNOWN").AsBool());
  EXPECT_FALSE(Eval("1 IS NULL").AsBool());
  // Unknown propagation: null = 1 -> null, missing beats null.
  EXPECT_TRUE(Eval("null = 1").is_null());
  EXPECT_TRUE(Eval("missing = null").is_missing());
  // AND short-circuit semantics: false AND null = false.
  EXPECT_FALSE(Eval("false AND null").AsBool());
  EXPECT_TRUE(Eval("true OR null").AsBool());
  EXPECT_TRUE(Eval("true AND null").is_null());
}

TEST(SqlppExpr, StringsAndLike) {
  EXPECT_EQ(Eval("\"foo\" || \"bar\"").AsString(), "foobar");
  EXPECT_EQ(Eval("upper(\"abc\")").AsString(), "ABC");
  EXPECT_EQ(Eval("string_length(\"hello\")").AsInt(), 5);
  EXPECT_TRUE(Eval("\"hello world\" LIKE \"hello%\"").AsBool());
  EXPECT_TRUE(Eval("\"hello\" LIKE \"h_llo\"").AsBool());
  EXPECT_FALSE(Eval("\"hello\" LIKE \"h_l\"").AsBool());
  EXPECT_TRUE(Eval("contains(\"big data\", \"g d\")").AsBool());
  EXPECT_EQ(Eval("substring(\"abcdef\", 2, 3)").AsString(), "cde");
}

TEST(SqlppExpr, CollectionsAndObjects) {
  EXPECT_EQ(Eval("[1,2,3][1]").AsInt(), 2);
  EXPECT_EQ(Eval("coll_count([1,2,3])").AsInt(), 3);
  EXPECT_EQ(Eval("{\"a\": 1, \"b\": 2}.b").AsInt(), 2);
  EXPECT_TRUE(Eval("{\"a\": 1}.zzz").is_missing());
  // MISSING-valued fields vanish from constructed objects.
  EXPECT_FALSE(Eval("{\"a\": missing}").HasField("a"));
  EXPECT_EQ(Eval("{{1, 2, 2}}").items().size(), 3u);
  // coll_* answer what SUM/AVG/MIN/MAX answer: unknown and non-summable
  // items are skipped, durations sum and average to durations.
  const std::string mixed = "[\"a\", 1, 2.5, null, missing, 3]";
  EXPECT_EQ(Eval("coll_sum(" + mixed + ")"), Value::Double(6.5));
  EXPECT_EQ(Eval("coll_avg(" + mixed + ")"), Value::Double(6.5 / 3));
  EXPECT_EQ(Eval("coll_min(" + mixed + ")"), Value::Int(1));
  EXPECT_EQ(Eval("coll_max(" + mixed + ")"), Value::String("a"));
  EXPECT_EQ(Eval("coll_sum([\"a\", 2])"), Value::Int(2));
  EXPECT_EQ(Eval("coll_sum([1, 2])").tag(), adm::TypeTag::kInt64);
  const std::string durations =
      "[duration(\"PT1H\"), null, duration(\"PT3H\"), \"x\"]";
  EXPECT_EQ(Eval("coll_sum(" + durations + ")"), Eval("duration(\"PT4H\")"));
  EXPECT_EQ(Eval("coll_avg(" + durations + ")"), Eval("duration(\"PT2H\")"));
  // Strings order before durations.
  EXPECT_EQ(Eval("coll_min(" + durations + ")"), Value::String("x"));
  EXPECT_EQ(Eval("coll_max(" + durations + ")"), Eval("duration(\"PT3H\")"));
  for (const char* items : {"[]", "[null, missing]"}) {
    for (const char* fn : {"coll_sum", "coll_avg", "coll_min", "coll_max"}) {
      EXPECT_TRUE(Eval(std::string(fn) + "(" + items + ")").is_null())
          << fn << items;
    }
  }
  // coll_count counts items, unknown ones too (COUNT(expr) skips them).
  EXPECT_EQ(Eval("coll_count([null, missing, 1])").AsInt(), 3);
}

TEST(SqlppExpr, CaseExpression) {
  EXPECT_EQ(Eval("CASE WHEN 1 < 2 THEN \"yes\" ELSE \"no\" END").AsString(),
            "yes");
  EXPECT_EQ(Eval("CASE WHEN false THEN 1 WHEN true THEN 2 ELSE 3 END").AsInt(),
            2);
  EXPECT_EQ(Eval("CASE WHEN false THEN 1 END").tag(), adm::TypeTag::kNull);
}

TEST(SqlppExpr, TemporalFunctions) {
  EXPECT_EQ(Eval("datetime(\"2024-06-01T12:00:00\")").tag(),
            adm::TypeTag::kDatetime);
  // datetime arithmetic with durations.
  Value v = Eval(
      "datetime(\"2024-06-01T00:00:00\") + duration(\"P30D\")");
  EXPECT_EQ(v.tag(), adm::TypeTag::kDatetime);
  Value diff = Eval(
      "datetime(\"2024-06-02T00:00:00\") - datetime(\"2024-06-01T00:00:00\")");
  EXPECT_EQ(diff.TemporalValue(), 86400000);
  // interval_bin: the §V-D temporal-study primitive.
  Value bin = Eval(
      "interval_bin(datetime(\"2024-06-01T10:37:00\"), "
      "datetime(\"2024-06-01T00:00:00\"), duration(\"PT1H\"))");
  EXPECT_EQ(bin.ToString(), "datetime(\"2024-06-01T10:00:00.000Z\")");
}

TEST(SqlppExpr, QuantifiedOverLiteralCollections) {
  EXPECT_TRUE(Eval("SOME x IN [1,2,3] SATISFIES x > 2").AsBool());
  EXPECT_FALSE(Eval("SOME x IN [1,2,3] SATISFIES x > 5").AsBool());
  EXPECT_TRUE(Eval("EVERY x IN [1,2,3] SATISFIES x > 0").AsBool());
  EXPECT_FALSE(Eval("EVERY x IN [1,2,3] SATISFIES x > 1").AsBool());
  EXPECT_TRUE(Eval("EVERY x IN [] SATISFIES x > 1").AsBool());
  EXPECT_TRUE(Eval("EXISTS [1]").AsBool());
  EXPECT_FALSE(Eval("EXISTS []").AsBool());
}

// Every registered function refuses one argument too few and one too
// many at compile time, and compiles at its minimum.
TEST(FunctionArity, EveryFunctionRefusesCallsOutsideItsArity) {
  const FunctionRegistry& registry = FunctionRegistry::Instance();
  auto compile = [&](const std::string& name, size_t argc) {
    std::vector<algebricks::ExprPtr> args(
        argc, algebricks::Expr::Constant(Value::Int(1)));
    return algebricks::CompileExpr(
               algebricks::Expr::Call(name, std::move(args)), {}, registry)
        .status();
  };
  const auto signatures = registry.Signatures();
  ASSERT_GT(signatures.size(), 40u);
  size_t refused = 0;
  for (const auto& [name, arity] : signatures) {
    ASSERT_LE(arity.min, arity.max) << name;
    EXPECT_TRUE(compile(name, arity.min).ok()) << name;
    if (arity.min > 0) {
      Status too_few = compile(name, arity.min - 1);
      EXPECT_EQ(too_few.code(), StatusCode::kInvalidArgument)
          << name << ": " << too_few.ToString();
      refused++;
    }
    if (arity.max != algebricks::Arity::kVariadic) {
      Status too_many = compile(name, arity.max + 1);
      EXPECT_EQ(too_many.code(), StatusCode::kInvalidArgument)
          << name << ": " << too_many.ToString();
      refused++;
    }
  }
  EXPECT_GT(refused, signatures.size());
  EXPECT_TRUE(compile("no-such-function", 1).IsNotFound());
}

TEST(SqlppParser, StatementKinds) {
  EXPECT_EQ(ParseStatement("SELECT VALUE 1")->kind,
            sqlpp::ast::Statement::kQuery);
  EXPECT_EQ(ParseStatement("CREATE TYPE T AS { a: int }")->kind,
            sqlpp::ast::Statement::kCreateType);
  EXPECT_EQ(ParseStatement("CREATE DATASET D(T) PRIMARY KEY a")->kind,
            sqlpp::ast::Statement::kCreateDataset);
  EXPECT_EQ(ParseStatement("DROP DATASET D")->kind,
            sqlpp::ast::Statement::kDropDataset);
  EXPECT_EQ(ParseStatement("INSERT INTO D ({\"a\": 1})")->kind,
            sqlpp::ast::Statement::kInsert);
  EXPECT_EQ(ParseStatement("UPSERT INTO D ({\"a\": 1})")->kind,
            sqlpp::ast::Statement::kUpsert);
  EXPECT_EQ(ParseStatement("DELETE FROM D WHERE D.a = 1")->kind,
            sqlpp::ast::Statement::kDelete);
}

// DELETE keeps its FROM/WHERE as a query; the alias defaults to the dataset.
TEST(SqlppParser, DeleteIsAQuery) {
  auto st = ParseStatement("DELETE FROM D d WHERE d.a = 1").value();
  EXPECT_EQ(st.target, "D");
  ASSERT_EQ(st.query->froms.size(), 1u);
  EXPECT_EQ(st.query->froms[0].alias, "d");
  EXPECT_NE(st.query->where, nullptr);
  st = ParseStatement("DELETE FROM D").value();
  EXPECT_EQ(st.query->froms[0].alias, "D");
  EXPECT_EQ(st.query->where, nullptr);
  EXPECT_EQ(ParseStatement("DELETE FROM D AS x")->query->froms[0].alias, "x");
}

TEST(SqlppParser, RejectsBadInput) {
  EXPECT_FALSE(ParseStatement("SELEC x").ok());
  EXPECT_FALSE(ParseStatement("SELECT VALUE").ok());
  EXPECT_FALSE(ParseStatement("SELECT VALUE 1 FROM").ok());
  EXPECT_FALSE(ParseStatement("CREATE DATASET D").ok());
  EXPECT_FALSE(ParseStatement("SELECT VALUE 1 extra_token junk +").ok());
  EXPECT_FALSE(ParseStatement("SELECT VALUE (1").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("\"unterminated").ok());
}

// `n` copies of `open`, then `core`, then `n` copies of `close`.
std::string Wrap(size_t n, const std::string& open, const std::string& core,
                 const std::string& close) {
  std::string out;
  for (size_t i = 0; i < n; i++) out += open;
  out += core;
  for (size_t i = 0; i < n; i++) out += close;
  return out;
}

bool IsParseError(const Status& s) {
  return s.code() == StatusCode::kParseError;
}

// The expression ParseExpression parses is the first nesting level; each
// parenthesis, bracket, NOT or minus inside it adds one, and a subquery two
// (itself and its clauses). An array type spec is one level per bracket.
TEST(SqlppParser, ParsesUpToTheNestingBound) {
  const size_t inner = sqlpp::kMaxNestingDepth - 1;
  EXPECT_TRUE(ParseExpression(Wrap(inner, "(", "1", ")")).ok());
  EXPECT_TRUE(ParseExpression(Wrap(inner, "[", "1", "]")).ok());
  EXPECT_TRUE(ParseExpression(Wrap(inner, "NOT ", "true", "")).ok());
  EXPECT_TRUE(ParseExpression(Wrap(inner, "- ", "1", "")).ok());
  EXPECT_TRUE(ParseExpression(
      "(" + Wrap(inner / 2, "(SELECT VALUE ", "1", ")") + ")").ok());
  EXPECT_TRUE(ParseStatement("CREATE TYPE T AS { a: " +
                             Wrap(sqlpp::kMaxNestingDepth, "[", "int", "]") +
                             " }")
                  .ok());
  // Values evaluate at the bound too.
  Value v = Eval(Wrap(inner, "[", "1", "]"));
  EXPECT_TRUE(adm::WithinDepth(v, inner));
  EXPECT_FALSE(adm::WithinDepth(v, inner - 1));
}

TEST(SqlppParser, RefusesStatementsPastTheNestingBound) {
  for (size_t inner : {sqlpp::kMaxNestingDepth, size_t{100'000}}) {
    EXPECT_TRUE(IsParseError(
        ParseExpression(Wrap(inner, "(", "1", ")")).status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseExpression(Wrap(inner, "[", "1", "]")).status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseExpression(Wrap(inner, "NOT ", "true", "")).status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseExpression(Wrap(inner, "- ", "1", "")).status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseExpression(Wrap(inner / 2 + 1, "(SELECT VALUE ", "1", ")"))
            .status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseStatement("CREATE TYPE T AS { a: " +
                       Wrap(inner + 1, "[", "int", "]") + " }")
            .status()))
        << inner;
    EXPECT_TRUE(IsParseError(
        ParseStatement("SELECT VALUE " + Wrap(inner, "(", "1", ")")).status()))
        << inner;
  }
}

// `ops` binary operators `op` joining ops+1 copies of `term`.
std::string Chain(size_t ops, const std::string& op, const std::string& term) {
  std::string out = term;
  out.reserve((ops + 1) * (term.size() + op.size() + 2));
  for (size_t i = 0; i < ops; i++) out += " " + op + " " + term;
  return out;
}

// Runs `body` on the calling thread and again on a fresh std::thread.
void OnBothThreads(const std::function<void()>& body) {
  body();
  std::thread t(body);
  t.join();
}

// A left-associative chain nests its tree one level per operator; the
// parser counts a statement's chained operators and refuses more than
// kMaxChainedOperators. A chain at the bound survives every later stage.
TEST(SqlppParser, ChainsUpToTheOperatorBound) {
  constexpr size_t kBound = sqlpp::kMaxChainedOperators;
  OnBothThreads([] {
    for (const auto& [op, term] :
         std::vector<std::pair<std::string, std::string>>{
             {"+", "1"}, {"-", "1"}, {"*", "1"}, {"/", "1"}, {"%", "7"},
             {"||", "\"a\""}, {"AND", "true"}, {"OR", "false"}}) {
      EXPECT_TRUE(ParseExpression(Chain(kBound, op, term)).ok()) << op;
    }
    EXPECT_EQ(Eval(Chain(kBound, "+", "1")).AsInt(),
              static_cast<int64_t>(kBound + 1));
    EXPECT_EQ(Eval(Chain(kBound, "*", "1")).AsInt(), 1);
    EXPECT_EQ(Eval(Chain(kBound, "||", "\"a\"")).AsString().size(), kBound + 1);
    EXPECT_TRUE(Eval(Chain(kBound, "AND", "true")).AsBool());
    // The deepest tree: a chain at the bound under the deepest nesting.
    EXPECT_TRUE(Eval(Wrap(sqlpp::kMaxNestingDepth - 2, "NOT ",
                          "(" + Chain(kBound, "AND", "true") + ")", ""))
                    .AsBool());
    // The bound counts every chain in the statement.
    const std::string half = Chain(kBound / 2, "+", "1");
    EXPECT_TRUE(ParseExpression("[" + half + ", " + half + "]").ok());
    EXPECT_TRUE(IsParseError(
        ParseExpression("[" + half + ", " + half + " + 1]").status()));
  });
}

TEST(SqlppParser, RefusesChainsPastTheOperatorBound) {
  OnBothThreads([] {
    for (size_t ops : {sqlpp::kMaxChainedOperators + 1, size_t{199'999}}) {
      for (const auto& [op, term] :
           std::vector<std::pair<std::string, std::string>>{
               {"+", "1"}, {"-", "1"}, {"*", "1"}, {"||", "\"a\""},
               {"AND", "true"}, {"OR", "false"}}) {
        EXPECT_TRUE(
            IsParseError(ParseExpression(Chain(ops, op, term)).status()))
            << op << " x" << ops;
      }
      EXPECT_TRUE(IsParseError(
          ParseStatement("SELECT VALUE " + Chain(ops, "+", "1")).status()))
          << ops;
    }
  });
}

// Out-of-range integer literals are refused instead of wrapping.
TEST(SqlppParser, RefusesOutOfRangeIntegerLiterals) {
  EXPECT_EQ(Eval("9223372036854775807").AsInt(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Eval("-9223372036854775807").AsInt(),
            -std::numeric_limits<int64_t>::max());
  for (const char* text : {"9223372036854775808", "18446744073709551616",
                           "99999999999999999999999999"}) {
    EXPECT_TRUE(IsParseError(ParseExpression(text).status())) << text;
    EXPECT_TRUE(IsParseError(
        ParseStatement(std::string("SELECT VALUE 1 LIMIT ") + text).status()))
        << text;
  }
}

TEST(SqlppParser, QuotedIdentifiersAndComments) {
  auto st = ParseStatement(
      "-- line comment\n"
      "SELECT VALUE 1 /* block\ncomment */");
  EXPECT_TRUE(st.ok());
  auto ty = ParseStatement("CREATE TYPE T AS CLOSED { `path`: string }");
  ASSERT_TRUE(ty.ok());
  EXPECT_EQ(ty->type_fields[0].name, "path");
  EXPECT_TRUE(ty->closed);
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axopt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    InstanceOptions opts;
    opts.base_dir = dir_;
    opts.num_partitions = 2;
    instance_ = Instance::Open(opts).value();
    LoadData();
  }
  void TearDown() override {
    instance_.reset();
    std::filesystem::remove_all(dir_);
  }
  void LoadData() {
    ASSERT_TRUE(instance_->ExecuteScript(
        "CREATE TYPE T AS { id: int, v: int, s: string };"
        "CREATE DATASET D(T) PRIMARY KEY id;"
        "CREATE INDEX vIdx ON D (v) TYPE BTREE").ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(instance_
                      ->Execute("INSERT INTO D ({\"id\": " + std::to_string(i) +
                                ", \"v\": " + std::to_string(i % 10) +
                                ", \"s\": \"s" + std::to_string(i) + "\"})")
                      .ok());
    }
  }
  std::string dir_;
  std::unique_ptr<Instance> instance_;
};

// Chains at the operator bound translate, optimize and evaluate per tuple
// (no constant folding: the terms read a field) in both languages; one
// operator more, or 200,000 terms, is a ParseError.
TEST_F(OptimizerTest, ChainsAtTheOperatorBoundExecute) {
  constexpr size_t kBound = sqlpp::kMaxChainedOperators;
  OnBothThreads([this] {
    auto sum = instance_->Execute("SELECT VALUE " + Chain(kBound, "+", "d.v") +
                                  " FROM D d WHERE d.id = 13");
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    ASSERT_EQ(sum->rows.size(), 1u);
    EXPECT_EQ(sum->rows[0].AsInt(), static_cast<int64_t>(3 * (kBound + 1)));
    auto any = instance_->Execute("SELECT VALUE COUNT(*) FROM D d WHERE " +
                                  Chain(kBound, "OR", "d.v = 4"));
    ASSERT_TRUE(any.ok()) << any.status().ToString();
    EXPECT_EQ(any->rows[0].AsInt(), 10);
    auto aql = instance_->QueryAql("for $d in dataset D where $d.id = 13 "
                                   "return " + Chain(kBound, "+", "$d.v"));
    ASSERT_TRUE(aql.ok()) << aql.status().ToString();
    EXPECT_EQ(aql->rows[0].AsInt(), static_cast<int64_t>(3 * (kBound + 1)));
    for (size_t ops : {kBound + 1, size_t{199'999}}) {
      EXPECT_TRUE(IsParseError(
          instance_
              ->Execute("SELECT VALUE " + Chain(ops, "+", "d.v") + " FROM D d")
              .status()))
          << ops;
      EXPECT_TRUE(IsParseError(
          instance_
              ->QueryAql("for $d in dataset D return " + Chain(ops, "+", "$d.v"))
              .status()))
          << ops;
    }
  });
}

// A call outside its function's arity is refused when the expression is
// compiled, before any row is read: these statements once read past an
// empty argument list.
TEST_F(OptimizerTest, CallsOutsideTheArityAreRefused) {
  for (const char* q :
       {"SELECT VALUE abs()", "SELECT VALUE neg()", "SELECT VALUE coll_count()",
        "SELECT VALUE lower()", "SELECT VALUE string_length()",
        "SELECT VALUE is_null()", "SELECT VALUE abs(d.v, 1) FROM D d",
        "SELECT VALUE d.id FROM D d WHERE starts_with(d.s)"}) {
    auto r = instance_->Execute(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << q << ": " << r.status().ToString();
  }
  auto ok = instance_->Execute("SELECT VALUE abs(d.v - 20) FROM D d "
                               "WHERE d.id = 3");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows, std::vector<Value>{Value::Int(17)});
}

TEST_F(OptimizerTest, IndexSelectionTogglable) {
  algebricks::OptimizerOptions on;
  auto r1 = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 3", on).value();
  EXPECT_NE(r1.plan.find("btree-search"), std::string::npos);

  algebricks::OptimizerOptions off = on;
  off.index_selection = false;
  auto r2 = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 3", off).value();
  EXPECT_EQ(r2.plan.find("btree-search"), std::string::npos);
  EXPECT_NE(r2.plan.find("data-scan"), std::string::npos);
  // Same results either way.
  EXPECT_EQ(r1.rows.size(), r2.rows.size());
  EXPECT_EQ(r1.rows.size(), 10u);
}

TEST_F(OptimizerTest, RowScanTakesPushdown) {
  // D is a row dataset and s has no index: the conjunct moves into the
  // data-scan, the Select disappears, and the scan prunes each record to
  // the fields read above it.
  const std::string q = "SELECT VALUE d.id FROM D d WHERE d.s = \"s42\"";
  auto r = instance_->Execute(q).value();
  EXPECT_NE(r.plan.find("data-scan D"), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find(" project:[id]"), std::string::npos) << r.plan;
  EXPECT_NE(r.plan.find(" where:s eq \"s42\""), std::string::npos) << r.plan;
  EXPECT_EQ(r.plan.find("select"), std::string::npos) << r.plan;
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], adm::Value::Int(42));

  algebricks::OptimizerOptions off;
  off.scan_pushdown = false;
  auto ref = instance_->QueryWithOptions(q, off).value();
  EXPECT_NE(ref.plan.find("select"), std::string::npos) << ref.plan;
  EXPECT_EQ(ref.plan.find(" project:["), std::string::npos) << ref.plan;
  EXPECT_EQ(ref.rows, r.rows);
}

TEST_F(OptimizerTest, ConstantFoldingInPlan) {
  algebricks::OptimizerOptions on;
  auto r = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 1 + 2", on).value();
  // 1+2 folded to 3 and the index path chosen on the folded constant.
  EXPECT_NE(r.plan.find("btree-search"), std::string::npos) << r.plan;
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(OptimizerTest, SelectPushdownThroughJoin) {
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE T2 AS { id: int, ref: int };"
      "CREATE DATASET E(T2) PRIMARY KEY id").ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(instance_
                    ->Execute("INSERT INTO E ({\"id\": " + std::to_string(i) +
                              ", \"ref\": " + std::to_string(i % 5) + "})")
                    .ok());
  }
  // The filter d.v = 2 must sit below the join (on the D branch).
  auto r = instance_->Execute(
      "SELECT d.id AS did, e.id AS eid FROM D d, E e "
      "WHERE d.id = e.ref AND d.v = 2").value();
  // d.id = e.ref joins; d.v=2 selects ids 2,12,22,... of which 2 is a ref.
  // refs are 0..4, d.v = 2 -> d.id in {2,12,...}; only id 2 matches refs.
  EXPECT_EQ(r.rows.size(), 4u);  // e.ref==2 for ids 2,7,12,17
  size_t join_pos = r.plan.find("join");
  size_t search_pos = r.plan.find("index-search");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(search_pos, std::string::npos) << r.plan;
  EXPECT_GT(search_pos, join_pos);  // pushed below the join in the plan tree
}

TEST_F(OptimizerTest, PkSortFetchToggle) {
  algebricks::OptimizerOptions sorted;
  algebricks::OptimizerOptions unsorted;
  unsorted.sort_pks_before_fetch = false;
  auto r1 = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 7", sorted).value();
  auto r2 = instance_->QueryWithOptions(
      "SELECT VALUE d.id FROM D d WHERE d.v = 7", unsorted).value();
  // Same result set, with/without the [26] sorted-fetch trick.
  EXPECT_EQ(r1.rows.size(), r2.rows.size());
  EXPECT_EQ(r1.plan.find("(unsorted-fetch)"), std::string::npos) << r1.plan;
  EXPECT_NE(r2.plan.find("(unsorted-fetch)"), std::string::npos) << r2.plan;
}

// ---- AQL as a peer of SQL++ (Fig. 4's layer-sharing claim) -----------------

class AqlTest : public OptimizerTest {};

TEST_F(AqlTest, SimpleForWhereReturn) {
  auto r = instance_->QueryAql(
      "for $d in dataset D where $d.v = 3 return $d.id").value();
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(AqlTest, LetAndOrderBy) {
  auto r = instance_->QueryAql(
      "for $d in dataset D let $w := $d.v * 2 where $w >= 16 "
      "order by $d.id return {\"id\": $d.id, \"w\": $w}").value();
  ASSERT_EQ(r.rows.size(), 20u);  // v in {8, 9} -> 20 records
  EXPECT_EQ(r.rows[0].GetField("w").AsInt(),
            r.rows[0].GetField("id").AsInt() % 10 * 2);
}

TEST_F(AqlTest, RefusesNegativeLimitAndOffset) {
  EXPECT_EQ(instance_->QueryAql("for $d in dataset D limit 3 offset 2 "
                                "return $d.id")
                .value()
                .rows.size(),
            3u);
  for (const char* q : {"for $d in dataset D limit -1 return $d.id",
                        "for $d in dataset D limit 3 offset -2 return $d.id"}) {
    EXPECT_TRUE(IsParseError(instance_->QueryAql(q).status())) << q;
  }
}

TEST_F(AqlTest, GroupByCollectsAndCounts) {
  auto r = instance_->QueryAql(
      "for $d in dataset D group by $v := $d.v with $d "
      "order by $v return {\"v\": $v, \"n\": count($d)}").value();
  ASSERT_EQ(r.rows.size(), 10u);
  for (const auto& row : r.rows) {
    EXPECT_EQ(row.GetField("n").AsInt(), 10);
  }
}

TEST_F(AqlTest, AqlAndSqlppAgreeOnResults) {
  // The same analytical question in both languages must agree — they share
  // the algebra, rules and runtime underneath.
  auto sql = instance_->Execute(
      "SELECT g AS v, COUNT(d.id) AS n, SUM(d.id) AS total FROM D d "
      "GROUP BY d.v AS g ORDER BY g").value();
  auto aql = instance_->QueryAql(
      "for $d in dataset D let $i := $d.id "
      "group by $v := $d.v with $d, $i order by $v "
      "return {\"v\": $v, \"n\": count($d), \"total\": sum($i)}").value();
  ASSERT_EQ(sql.rows.size(), aql.rows.size());
  for (size_t i = 0; i < sql.rows.size(); i++) {
    EXPECT_EQ(sql.rows[i].GetField("v"), aql.rows[i].GetField("v"));
    EXPECT_EQ(sql.rows[i].GetField("n"), aql.rows[i].GetField("n"));
    EXPECT_EQ(sql.rows[i].GetField("total"), aql.rows[i].GetField("total"));
  }
  // Both compile through the shared algebra: both plans contain the shared
  // group-by operator and dataset scan.
  EXPECT_NE(sql.plan.find("group-by"), std::string::npos);
  EXPECT_NE(aql.plan.find("group-by"), std::string::npos);
  EXPECT_NE(aql.plan.find("data-scan D"), std::string::npos);

  // A mixed column (ints, doubles, a string, null, missing) and a duration
  // column: SQL++ GROUP BY, SQL++ aggregates with no GROUP BY and AQL's
  // `with` lists (aggregated by coll-*) give the same SUM/AVG/MIN/MAX.
  ASSERT_TRUE(instance_->ExecuteScript(
      "CREATE TYPE MT AS { id: int };"
      "CREATE DATASET M(MT) PRIMARY KEY id").ok());
  const char* rows[] = {
      "{\"id\": 0, \"g\": 0, \"x\": 1, \"d\": duration(\"PT1H\")}",
      "{\"id\": 1, \"g\": 0, \"x\": \"a\", \"d\": duration(\"PT3H\")}",
      "{\"id\": 2, \"g\": 0, \"x\": 3, \"d\": null}",
      "{\"id\": 3, \"g\": 0, \"x\": null}",
      "{\"id\": 4, \"g\": 1, \"x\": 2.5, \"d\": duration(\"PT30M\")}",
      "{\"id\": 5, \"g\": 1, \"d\": \"z\"}",
      "{\"id\": 6, \"g\": 1, \"x\": 4, \"d\": duration(\"PT90M\")}",
  };
  for (const char* row : rows) {
    ASSERT_TRUE(instance_->Execute(std::string("INSERT INTO M (") + row + ")")
                    .ok())
        << row;
  }
  const std::string aggs =
      "SUM(m.x) AS sx, AVG(m.x) AS ax, MIN(m.x) AS nx, MAX(m.x) AS xx, "
      "SUM(m.d) AS sd, AVG(m.d) AS ad, MIN(m.d) AS nd, MAX(m.d) AS xd";
  auto grouped = instance_->Execute("SELECT g, " + aggs +
                                    " FROM M m GROUP BY m.g AS g ORDER BY g")
                     .value();
  auto with = instance_->QueryAql(
      "for $m in dataset M let $x := $m.x let $d := $m.d "
      "group by $g := $m.g with $x, $d order by $g "
      "return {\"g\": $g, \"sx\": sum($x), \"ax\": avg($x), "
      "\"nx\": min($x), \"xx\": max($x), \"sd\": sum($d), "
      "\"ad\": avg($d), \"nd\": min($d), \"xd\": max($d)}").value();
  ASSERT_EQ(grouped.rows.size(), 2u);
  ASSERT_EQ(with.rows.size(), 2u);
  const Value want[2] = {
      Value::Object({{"g", Value::Int(0)},
                     {"sx", Value::Int(4)},
                     {"ax", Value::Double(2.0)},
                     {"nx", Value::Int(1)},
                     {"xx", Value::String("a")},
                     {"sd", Value::Duration(4 * 3600'000)},
                     {"ad", Value::Duration(2 * 3600'000)},
                     {"nd", Value::Duration(3600'000)},
                     {"xd", Value::Duration(3 * 3600'000)}}),
      Value::Object({{"g", Value::Int(1)},
                     {"sx", Value::Double(6.5)},
                     {"ax", Value::Double(3.25)},
                     {"nx", Value::Double(2.5)},
                     {"xx", Value::Int(4)},
                     {"sd", Value::Duration(2 * 3600'000)},
                     {"ad", Value::Duration(3600'000)},
                     {"nd", Value::String("z")},  // strings sort first
                     {"xd", Value::Duration(90 * 60'000)}})};
  for (int g = 0; g < 2; g++) {
    auto keyless = instance_->Execute("SELECT " + std::to_string(g) +
                                      " AS g, " + aggs +
                                      " FROM M m WHERE m.g = " +
                                      std::to_string(g)).value();
    ASSERT_EQ(keyless.rows.size(), 1u);
    for (const auto& [path, got] : {std::pair{"GROUP BY", grouped.rows[g]},
                                    {"AQL with", with.rows[g]},
                                    {"no GROUP BY", keyless.rows[0]}}) {
      EXPECT_EQ(got.ToString(), want[g].ToString()) << path;
    }
  }
}

TEST_F(AqlTest, AqlUsesSharedIndexRules) {
  // Index access-path selection is an Algebricks rule — AQL queries get it
  // for free (the paper's argument for the shared compiler stack).
  auto r = instance_->QueryAql(
      "for $d in dataset D where $d.v = 4 return $d.id").value();
  EXPECT_NE(r.plan.find("btree-search"), std::string::npos) << r.plan;
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(AqlTest, RefusesQueriesPastTheNestingBound) {
  auto r = instance_->QueryAql("for $d in dataset D return " +
                               Wrap(100'000, "[", "$d.id", "]"));
  EXPECT_TRUE(IsParseError(r.status()));
  auto ok = instance_->QueryAql("for $d in dataset D return " +
                                Wrap(sqlpp::kMaxNestingDepth - 1, "[",
                                     "$d.id", "]"));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows.size(), 100u);
}

// A record as deep as a write accepts, wrapped by a query's constructors
// as deep as the parser accepts, goes through a sort's spill files and
// decodes; a record one level deeper is refused at the write.
TEST(NestingBounds, DeepestRecordWrappedToTheParserBoundDecodesFromSpill) {
  std::string dir = ::testing::TempDir() + "axnest";
  std::filesystem::remove_all(dir);
  InstanceOptions opts;
  opts.base_dir = dir;
  opts.num_partitions = 2;
  opts.op_memory_budget_bytes = 1;  // every sorted tuple is its own run
  auto instance = Instance::Open(opts).value();
  ASSERT_TRUE(instance
                  ->ExecuteScript("CREATE TYPE T AS { id: int };"
                                  "CREATE DATASET D(T) PRIMARY KEY id")
                  .ok());
  auto record = [](int64_t id, size_t depth) {
    Value n = Value::Int(id);
    for (size_t i = 1; i < depth; i++) n = Value::Array({n});
    return Value::Object({{"id", Value::Int(id)}, {"n", n}});
  };
  for (int64_t id = 0; id < 3; id++) {
    Value rec = record(id, adm::kMaxInputDepth);
    ASSERT_TRUE(adm::WithinDepth(rec, adm::kMaxInputDepth));
    ASSERT_TRUE(instance->InsertValue("D", rec).ok());
  }
  Status refused =
      instance->InsertValue("D", record(9, adm::kMaxInputDepth + 1));
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);

  // The LET expression is the first nesting level; each bracket adds one.
  const size_t wraps = sqlpp::kMaxNestingDepth - 1;
  uint64_t runs_before = metrics::Registry::Global()
                             .GetCounter("hyracks.sort.runs_spilled")
                             ->value();
  auto r = instance->Execute("SELECT VALUE w FROM D d LET w = " +
                             Wrap(wraps, "[", "d", "]") + " ORDER BY w");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(metrics::Registry::Global()
                .GetCounter("hyracks.sort.runs_spilled")
                ->value(),
            runs_before);
  ASSERT_EQ(r.value().rows.size(), 3u);
  for (const auto& row : r.value().rows) {
    EXPECT_TRUE(adm::WithinDepth(row, adm::kMaxInputDepth + wraps));
    EXPECT_FALSE(adm::WithinDepth(row, adm::kMaxInputDepth + wraps - 1));
  }
  instance.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace asterix
