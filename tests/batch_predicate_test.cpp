// TryCompileBatchPredicate tests: the vectorized selection predicate must
// (a) agree tuple-for-tuple with the interpreted evaluator the executor
// would otherwise run — including null/missing and mixed-type inputs,
// since both sides defer to adm::Value::Compare — (b) compile exactly the
// documented shapes and decline everything else, and (c) surface runtime
// errors through SelectOp's batch path. The compiler's in-place read of
// field-access(<e>, "name") must answer what the registry's field-access
// answers on every kind of input.
#include <gtest/gtest.h>

#include "algebricks/compiler.h"
#include "hyracks/operators.h"

namespace asterix::algebricks {
namespace {

using adm::Value;
using hyracks::Batch;
using hyracks::BatchPredicate;
using hyracks::IsTrue;
using hyracks::Tuple;

/// Rows mixing numerics, strings, null, and missing in both columns —
/// every comparison outcome class the mask has to classify.
Batch MixedBatch() {
  const std::vector<Tuple> rows = {
      Tuple({Value::Int(1), Value::Int(2)}),
      Tuple({Value::Int(5), Value::Int(5)}),
      Tuple({Value::Int(9), Value::Int(3)}),
      Tuple({Value::Double(4.5), Value::Int(4)}),
      Tuple({Value::String("a"), Value::Int(7)}),
      Tuple({Value::Null(), Value::Int(1)}),
      Tuple({Value::Int(1), Value::Null()}),
      Tuple({Value::Missing(), Value::Missing()}),
      Tuple({Value::String("b"), Value::String("a")}),
  };
  Batch b;
  for (const Tuple& r : rows) *b.Add() = r;
  return b;
}

/// positions: $0 -> field 0, $1 -> field 1.
VarPositions TwoVars() { return PositionsOf({0, 1}); }

/// Evaluate the interpreted path (what SelectOp::Next runs) per tuple and
/// compare against the compiled mask for the same expression.
void ExpectMaskMatchesInterpreter(const ExprPtr& expr) {
  const VarPositions pos = TwoVars();
  BatchPredicate mask_fn = TryCompileBatchPredicate(expr, pos);
  ASSERT_TRUE(mask_fn) << expr->ToString() << " should vectorize";
  auto eval =
      CompileExpr(expr, pos, FunctionRegistry::Instance()).value();

  Batch b = MixedBatch();
  std::vector<uint8_t> mask(b.size(), 0xAA);  // poison: every slot written
  ASSERT_TRUE(mask_fn(b, mask.data()).ok());
  for (size_t i = 0; i < b.size(); i++) {
    const bool interpreted = IsTrue(eval(b[i]).value());
    EXPECT_EQ(mask[i] != 0, interpreted)
        << expr->ToString() << " row " << i << " (" << b[i].ToString() << ")";
  }
}

ExprPtr V(VarId v) { return Expr::Variable(v); }
ExprPtr C(Value v) { return Expr::Constant(std::move(v)); }

TEST(BatchPredicate, VarConstAgreesWithInterpreter) {
  for (const char* op : {"eq", "neq", "lt", "le", "gt", "ge"}) {
    ExpectMaskMatchesInterpreter(Expr::Call(op, {V(0), C(Value::Int(4))}));
  }
}

TEST(BatchPredicate, ConstVarFlipsAndAgrees) {
  for (const char* op : {"eq", "neq", "lt", "le", "gt", "ge"}) {
    ExpectMaskMatchesInterpreter(Expr::Call(op, {C(Value::Int(4)), V(1)}));
  }
}

TEST(BatchPredicate, VarVarAgreesWithInterpreter) {
  for (const char* op : {"eq", "neq", "lt", "le", "gt", "ge"}) {
    ExpectMaskMatchesInterpreter(Expr::Call(op, {V(0), V(1)}));
  }
}

TEST(BatchPredicate, ScalarFunctionsAgreeWithMaskOnMixedRows) {
  // The scalar comparison functions over the same rows: MISSING when an
  // operand is MISSING, else NULL when one is NULL, else a boolean that is
  // true exactly where the mask keeps the row.
  Batch b = MixedBatch();
  for (const char* op : {"eq", "neq", "lt", "le", "gt", "ge"}) {
    BatchPredicate mask_fn =
        TryCompileBatchPredicate(Expr::Call(op, {V(0), V(1)}), TwoVars());
    ASSERT_TRUE(mask_fn) << op;
    std::vector<uint8_t> mask(b.size(), 0xAA);
    ASSERT_TRUE(mask_fn(b, mask.data()).ok());
    const ScalarFn* fn = FunctionRegistry::Instance().Lookup(op, 2).value();
    for (size_t i = 0; i < b.size(); i++) {
      const Value& l = b[i].at(0);
      const Value& r = b[i].at(1);
      const Value args[] = {l, r};
      const Value got = (*fn)(args).value();
      if (l.is_missing() || r.is_missing()) {
        EXPECT_TRUE(got.is_missing()) << op << " row " << i;
      } else if (l.is_null() || r.is_null()) {
        EXPECT_TRUE(got.is_null()) << op << " row " << i;
      } else {
        ASSERT_TRUE(got.is_boolean()) << op << " row " << i;
        EXPECT_EQ(got.AsBool(), mask[i] != 0) << op << " row " << i;
      }
    }
    if (std::string(op) == "neq") {
      // Spelled out: unknown operands never pass, mixed types differ.
      EXPECT_EQ(mask, (std::vector<uint8_t>{1, 0, 1, 1, 1, 0, 0, 0, 1}));
    }
  }
}

TEST(BatchPredicate, ConjunctionAgreesWithInterpreter) {
  ExpectMaskMatchesInterpreter(
      Expr::Call("and", {Expr::Call("gt", {V(0), C(Value::Int(0))}),
                         Expr::Call("lt", {V(1), C(Value::Int(5))})}));
}

TEST(BatchPredicate, UnknownConstantMasksEverythingOut) {
  // null/missing constants never compare true under SQL++ semantics, even
  // against null fields (null eq null is null, not true).
  for (Value c : {Value::Null(), Value::Missing()}) {
    BatchPredicate fn = TryCompileBatchPredicate(
        Expr::Call("eq", {V(0), C(std::move(c))}), TwoVars());
    ASSERT_TRUE(fn);
    Batch b = MixedBatch();
    std::vector<uint8_t> mask(b.size(), 0xAA);
    ASSERT_TRUE(fn(b, mask.data()).ok());
    for (size_t i = 0; i < b.size(); i++) EXPECT_EQ(mask[i], 0) << "row " << i;
  }
}

TEST(BatchPredicate, DeclinesUnsupportedShapes) {
  const VarPositions pos = TwoVars();
  // Anything but comparisons/and: interpreted fallback, not a wrong mask.
  EXPECT_FALSE(TryCompileBatchPredicate(nullptr, pos));
  EXPECT_FALSE(TryCompileBatchPredicate(C(Value::Boolean(true)), pos));
  EXPECT_FALSE(TryCompileBatchPredicate(V(0), pos));
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("or", {Expr::Call("lt", {V(0), C(Value::Int(1))}),
                        Expr::Call("gt", {V(0), C(Value::Int(5))})}),
      pos));
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("not", {Expr::Call("lt", {V(0), C(Value::Int(1))})}), pos));
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("lt", {Expr::Field(V(0), "x"), C(Value::Int(1))}), pos));
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("lt", {C(Value::Int(1)), C(Value::Int(2))}), pos));
  // Unbound variable: not in the position map.
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("lt", {V(7), C(Value::Int(1))}), pos));
  // One opaque conjunct spoils the whole AND.
  EXPECT_FALSE(TryCompileBatchPredicate(
      Expr::Call("and", {Expr::Call("lt", {V(0), C(Value::Int(9))}),
                         Expr::Call("or", {V(0), V(1)})}),
      pos));
  EXPECT_FALSE(TryCompileBatchPredicate(Expr::Call("and", {}), pos));
}

TEST(BatchPredicate, SingleConjunctAndCollapses) {
  ExpectMaskMatchesInterpreter(
      Expr::Call("and", {Expr::Call("ge", {V(1), C(Value::Int(3))})}));
}

TEST(BatchPredicate, NarrowTupleErrorSurfacesThroughSelectBatch) {
  // A mask referencing a position past the tuple's arity must fail the
  // batch, and SelectOp::NextBatch must propagate that status.
  VarPositions pos = TwoVars();
  pos[9] = 9;  // bound in the map but beyond the 2-field tuples
  BatchPredicate fn = TryCompileBatchPredicate(
      Expr::Call("lt", {V(9), C(Value::Int(1))}), pos);
  ASSERT_TRUE(fn);

  std::vector<Tuple> input;
  for (int i = 0; i < 10; i++) {
    input.push_back(Tuple({Value::Int(i), Value::Int(i)}));
  }
  hyracks::TupleEval always = [](const Tuple&) -> Result<Value> {
    return Value::Boolean(true);
  };
  hyracks::SelectOp op(
      std::make_unique<hyracks::VectorSource>(std::move(input)), always,
      std::move(fn));
  ASSERT_TRUE(op.Open().ok());
  Batch b;
  auto r = op.NextBatch(&b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  ASSERT_TRUE(op.Close().ok());
}

// ---- compiled field-access --------------------------------------------------

/// The registry's field-access over already-evaluated arguments.
Value RegistryFieldAccess(const Value& record, const Value& name) {
  const ScalarFn* fn =
      FunctionRegistry::Instance().Lookup("field-access", 2).value();
  const Value args[] = {record, name};
  return (*fn)(args).value();
}

Value EvalOn(const ExprPtr& expr, const Tuple& t) {
  auto eval = CompileExpr(expr, TwoVars(), FunctionRegistry::Instance());
  EXPECT_TRUE(eval.ok()) << expr->ToString() << ": " << eval.status().ToString();
  if (!eval.ok()) return Value::Missing();
  Result<Value> v = (*eval)(t);
  EXPECT_TRUE(v.ok()) << expr->ToString() << ": " << v.status().ToString();
  return v.ok() ? std::move(v).value() : Value::Missing();
}

/// The same tag and value: Value::Compare alone takes an int for the
/// equal double.
void ExpectSame(const Value& got, const Value& want, const std::string& what) {
  EXPECT_EQ(got.tag(), want.tag()) << what << ": " << got.ToString() << " vs "
                                   << want.ToString();
  EXPECT_EQ(got, want) << what;
}

TEST(CompiledFieldAccess, AgreesWithTheRegistryOnEveryInputKind) {
  const Value record = Value::Object({{"a", Value::Int(1)},
                                      {"b", Value::String("x")},
                                      {"n", Value::Null()}});
  const std::pair<const char*, Value> inputs[] = {
      {"record", record},
      {"null", Value::Null()},
      {"missing", Value::Missing()},
      {"int", Value::Int(7)},
      {"string", Value::String("a")},
      {"array", Value::Array({Value::Int(1), Value::Int(2)})},
  };
  for (const auto& [kind, input] : inputs) {
    for (const char* field : {"a", "b", "n", "absent"}) {
      const ExprPtr expr = Expr::Field(V(0), field);
      ASSERT_NE(MatchFieldAccess(expr), nullptr);
      ExpectSame(EvalOn(expr, Tuple({input, Value::Int(0)})),
                 RegistryFieldAccess(input, Value::String(field)),
                 std::string(kind) + "." + field);
    }
  }
  // Spelled out: present, absent, NULL in and MISSING in.
  EXPECT_EQ(EvalOn(Expr::Field(V(0), "a"), Tuple({record, record})).AsInt(), 1);
  EXPECT_TRUE(
      EvalOn(Expr::Field(V(0), "absent"), Tuple({record, record})).is_missing());
  EXPECT_TRUE(EvalOn(Expr::Field(V(0), "a"), Tuple({Value::Null(), record}))
                  .is_null());
  EXPECT_TRUE(EvalOn(Expr::Field(V(0), "a"), Tuple({Value::Missing(), record}))
                  .is_missing());
}

TEST(CompiledFieldAccess, NestedChainsAndFunctionResults) {
  const Value inner = Value::Object({{"b", Value::Int(42)}});
  const Value m = Value::Object({{"a", inner}, {"c", Value::Int(3)}});
  const Tuple t({m, Value::Null()});
  // m.a.b, m.a.absent, m.c.b (a non-object in the middle), m.absent.b.
  ExpectSame(EvalOn(Expr::Field(Expr::Field(V(0), "a"), "b"), t),
             RegistryFieldAccess(RegistryFieldAccess(m, Value::String("a")),
                                 Value::String("b")),
             "m.a.b");
  EXPECT_EQ(EvalOn(Expr::Field(Expr::Field(V(0), "a"), "b"), t).AsInt(), 42);
  for (const auto& [mid, leaf] : {std::pair{"a", "absent"}, {"c", "b"},
                                  {"absent", "b"}}) {
    ExpectSame(EvalOn(Expr::Field(Expr::Field(V(0), mid), leaf), t),
               RegistryFieldAccess(RegistryFieldAccess(m, Value::String(mid)),
                                   Value::String(leaf)),
               std::string("m.") + mid + "." + leaf);
  }
  // A read over a function result: the base is evaluated once, then read.
  const ExprPtr built = Expr::Call(
      "open-record", {C(Value::String("k")), Expr::Field(V(0), "c")});
  EXPECT_EQ(EvalOn(Expr::Field(built, "k"), t).AsInt(), 3);
  const ExprPtr either = Expr::Call("if-missing-or-null", {V(1), V(0)});
  ExpectSame(EvalOn(Expr::Field(either, "c"), t),
             RegistryFieldAccess(m, Value::String("c")), "(null ?? m).c");
  ExpectSame(EvalOn(Expr::Field(V(1), "c"), t), Value::Null(), "null.c");
}

TEST(CompiledFieldAccess, ComputedNamesStillGoThroughTheRegistry) {
  const Value record = Value::Object({{"a", Value::Int(1)}});
  // field-access($0, $1): the name is only known per row.
  const ExprPtr computed = Expr::Call("field-access", {V(0), V(1)});
  EXPECT_EQ(MatchFieldAccess(computed), nullptr);
  for (const Value& name : {Value::String("a"), Value::String("z"),
                            Value::Int(1), Value::Null(), Value::Missing()}) {
    for (const Value& input : {record, Value::Null(), Value::Missing()}) {
      ExpectSame(EvalOn(computed, Tuple({input, name})),
                 RegistryFieldAccess(input, name),
                 input.ToString() + "." + name.ToString());
    }
  }
  // A registry that overrides field-access sees the computed name but not
  // the constant one, which the compiler reads in place.
  FunctionRegistry private_registry;
  private_registry.Register("field-access", {2, 2},
                            [](std::span<const Value>) -> Result<Value> {
                              return Value::String("from the registry");
                            });
  const Tuple t({record, Value::String("a")});
  auto via_registry =
      CompileExpr(computed, TwoVars(), private_registry).value();
  EXPECT_EQ(via_registry(t).value().AsString(), "from the registry");
  auto in_place =
      CompileExpr(Expr::Field(V(0), "a"), TwoVars(), private_registry).value();
  EXPECT_EQ(in_place(t).value().AsInt(), 1);
}

TEST(CompiledFieldAccess, NarrowTupleAndUnboundVariableAreErrors) {
  VarPositions pos = TwoVars();
  pos[9] = 9;
  auto eval = CompileExpr(Expr::Field(V(9), "a"), pos,
                          FunctionRegistry::Instance())
                  .value();
  Result<Value> v = eval(Tuple({Value::Null(), Value::Null()}));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(CompileExpr(Expr::Field(V(7), "a"), TwoVars(),
                           FunctionRegistry::Instance())
                   .ok());
}

TEST(CompiledCall, WideCallsAgreeWithNarrowOnes) {
  // Past the inline argument buffer a call evaluates into a heap vector;
  // the answer must not depend on which.
  std::vector<ExprPtr> args;
  std::vector<std::pair<std::string, Value>> want;
  for (int i = 0; i < 9; i++) {
    const std::string name = "f" + std::to_string(i);
    args.push_back(C(Value::String(name)));
    args.push_back(Expr::Call("add", {V(0), C(Value::Int(i))}));
    want.emplace_back(name, Value::Int(10 + i));
  }
  const Value got =
      EvalOn(Expr::Call("open-record", args), Tuple({Value::Int(10), Value()}));
  ExpectSame(got, Value::Object(want), "open-record of 18 arguments");
  EXPECT_EQ(EvalOn(Expr::Call("concat", {C(Value::String("a")),
                                         C(Value::String("b"))}),
                   Tuple({Value(), Value()}))
                .AsString(),
            "ab");
}

}  // namespace
}  // namespace asterix::algebricks
