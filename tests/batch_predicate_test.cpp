// TryCompileBatchPredicate tests: the vectorized selection predicate must
// (a) agree tuple-for-tuple with the interpreted evaluator the executor
// would otherwise run — including null/missing and mixed-type inputs,
// since both sides defer to adm::Value::Compare — (b) compile exactly the
// documented shapes and decline everything else, and (c) surface runtime
// errors through SelectOp's batch path.
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
    const ScalarFn* fn = FunctionRegistry::Instance().Lookup(op).value();
    for (size_t i = 0; i < b.size(); i++) {
      const Value& l = b[i].at(0);
      const Value& r = b[i].at(1);
      const Value got = (*fn)({l, r}).value();
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

}  // namespace
}  // namespace asterix::algebricks
