#include "algebricks/compiler.h"

#include <array>

namespace asterix::algebricks {

namespace {

using adm::CmpOp;

Status TupleTooNarrow() {
  return Status::Internal("tuple too narrow for variable");
}

Result<size_t> PositionOf(VarId var, const VarPositions& positions) {
  auto it = positions.find(var);
  if (it == positions.end()) {
    return Status::Internal("unbound variable $" + std::to_string(var) +
                            " during compilation");
  }
  return it->second;
}

/// field-access(<base>, "name"), read in place. The closure owns its copy
/// of the name: every partition runs its own copy of a compiled closure
/// (and an exchange's producers share one), so a shared constant Value
/// copied per row would bounce one refcount between their threads.
Result<hyracks::TupleEval> CompileFieldAccess(
    const ExprPtr& base, std::string name, const VarPositions& positions,
    const FunctionRegistry& registry) {
  if (base->kind == ExprKind::kVariable) {
    // The record is read where it lies in the tuple, not copied out.
    AX_ASSIGN_OR_RETURN(size_t pos, PositionOf(base->var, positions));
    return hyracks::TupleEval(
        [pos, name = std::move(name)](
            const hyracks::Tuple& t) -> Result<adm::Value> {
          if (pos >= t.arity()) return TupleTooNarrow();
          return FieldAccess(t.at(pos), name);
        });
  }
  AX_ASSIGN_OR_RETURN(auto base_eval, CompileExpr(base, positions, registry));
  return hyracks::TupleEval(
      [base_eval = std::move(base_eval),
       name = std::move(name)](const hyracks::Tuple& t) -> Result<adm::Value> {
        AX_ASSIGN_OR_RETURN(adm::Value record, base_eval(t));
        return FieldAccess(record, name);
      });
}

/// A call evaluates up to this many arguments into a buffer on the stack;
/// only a wider call (open-record over many fields, say) uses the heap.
constexpr size_t kInlineArgs = 4;

hyracks::TupleEval CompileCall(const ScalarFn* fn,
                               std::vector<hyracks::TupleEval> arg_evals) {
  if (arg_evals.size() <= kInlineArgs) {
    return [fn, arg_evals = std::move(arg_evals)](
               const hyracks::Tuple& t) -> Result<adm::Value> {
      std::array<adm::Value, kInlineArgs> args;
      for (size_t i = 0; i < arg_evals.size(); i++) {
        AX_ASSIGN_OR_RETURN(args[i], arg_evals[i](t));
      }
      return (*fn)(std::span<const adm::Value>(args.data(), arg_evals.size()));
    };
  }
  return [fn, arg_evals = std::move(arg_evals)](
             const hyracks::Tuple& t) -> Result<adm::Value> {
    std::vector<adm::Value> args;
    args.reserve(arg_evals.size());
    for (const auto& e : arg_evals) {
      AX_ASSIGN_OR_RETURN(adm::Value v, e(t));
      args.push_back(std::move(v));
    }
    return (*fn)(args);
  };
}

/// var OP const — the dominant filter shape.
/// An unknown (null/missing) constant zeroes the whole mask.
hyracks::BatchPredicate VarConstCmp(size_t pos, adm::Value c, CmpOp op) {
  return [pos, c = std::move(c), op](const hyracks::Batch& b,
                                     uint8_t* keep) -> Status {
    for (size_t i = 0; i < b.size(); i++) {
      const hyracks::Tuple& t = b[i];
      if (pos >= t.arity()) return TupleTooNarrow();
      keep[i] = adm::Satisfies(t.at(pos), op, c);
    }
    return Status::OK();
  };
}

/// var OP var (e.g. join residuals pushed into a select).
hyracks::BatchPredicate VarVarCmp(size_t lpos, size_t rpos, CmpOp op) {
  return [lpos, rpos, op](const hyracks::Batch& b, uint8_t* keep) -> Status {
    for (size_t i = 0; i < b.size(); i++) {
      const hyracks::Tuple& t = b[i];
      if (lpos >= t.arity() || rpos >= t.arity()) return TupleTooNarrow();
      keep[i] = adm::Satisfies(t.at(lpos), op, t.at(rpos));
    }
    return Status::OK();
  };
}

}  // namespace

hyracks::BatchPredicate TryCompileBatchPredicate(const ExprPtr& expr,
                                                 const VarPositions& positions) {
  if (expr == nullptr || expr->kind != ExprKind::kCall) return nullptr;

  // and(p1, ..., pn): conjoin child masks. Correct under select semantics
  // because the 3-valued AND is boolean true iff every conjunct is.
  if (expr->fn == "and") {
    std::vector<hyracks::BatchPredicate> parts;
    parts.reserve(expr->args.size());
    for (const auto& a : expr->args) {
      hyracks::BatchPredicate p = TryCompileBatchPredicate(a, positions);
      if (!p) return nullptr;  // one opaque conjunct spoils the whole AND
      parts.push_back(std::move(p));
    }
    if (parts.empty()) return nullptr;
    if (parts.size() == 1) return std::move(parts[0]);
    return [parts = std::move(parts),
            tmp = std::vector<uint8_t>()](const hyracks::Batch& b,
                                          uint8_t* keep) mutable -> Status {
      AX_RETURN_NOT_OK(parts[0](b, keep));
      if (tmp.size() < b.size()) tmp.resize(hyracks::kFrameTuples);
      for (size_t p = 1; p < parts.size(); p++) {
        AX_RETURN_NOT_OK(parts[p](b, tmp.data()));
        for (size_t i = 0; i < b.size(); i++) keep[i] &= tmp[i];
      }
      return Status::OK();
    };
  }

  const std::optional<CmpOp> op = adm::CmpOpNamed(expr->fn);
  if (!op || expr->args.size() != 2) return nullptr;
  const ExprPtr& lhs = expr->args[0];
  const ExprPtr& rhs = expr->args[1];
  auto pos_of = [&positions](const ExprPtr& e, size_t* pos) {
    if (e->kind != ExprKind::kVariable) return false;
    auto it = positions.find(e->var);
    if (it == positions.end()) return false;
    *pos = it->second;
    return true;
  };
  size_t lpos, rpos;
  if (pos_of(lhs, &lpos) && rhs->kind == ExprKind::kConstant) {
    return VarConstCmp(lpos, rhs->constant, *op);
  }
  if (lhs->kind == ExprKind::kConstant && pos_of(rhs, &rpos)) {
    return VarConstCmp(rpos, lhs->constant, adm::Mirror(*op));
  }
  if (pos_of(lhs, &lpos) && pos_of(rhs, &rpos)) {
    return VarVarCmp(lpos, rpos, *op);
  }
  return nullptr;
}

Result<hyracks::TupleEval> CompileExpr(const ExprPtr& expr,
                                       const VarPositions& positions,
                                       const FunctionRegistry& registry) {
  switch (expr->kind) {
    case ExprKind::kConstant: {
      adm::Value v = expr->constant;
      return hyracks::TupleEval(
          [v](const hyracks::Tuple&) -> Result<adm::Value> { return v; });
    }
    case ExprKind::kVariable: {
      AX_ASSIGN_OR_RETURN(size_t pos, PositionOf(expr->var, positions));
      return hyracks::TupleEval(
          [pos](const hyracks::Tuple& t) -> Result<adm::Value> {
            if (pos >= t.arity()) return TupleTooNarrow();
            return t.at(pos);
          });
    }
    case ExprKind::kQuantified: {
      // Correlated quantifier: compile the collection over the outer
      // layout, and the predicate over the outer layout extended with the
      // bound variable appended as the last field.
      AX_ASSIGN_OR_RETURN(auto coll_eval,
                          CompileExpr(expr->args[0], positions, registry));
      VarPositions inner = positions;
      size_t bound_pos = positions.size();
      inner[expr->bound_var] = bound_pos;
      AX_ASSIGN_OR_RETURN(auto pred_eval,
                          CompileExpr(expr->args[1], inner, registry));
      bool want_some = expr->quantifier_some;
      return hyracks::TupleEval(
          [coll_eval, pred_eval, want_some,
           bound_pos](const hyracks::Tuple& t) -> Result<adm::Value> {
            AX_ASSIGN_OR_RETURN(adm::Value coll, coll_eval(t));
            if (coll.is_unknown()) return adm::Value::Null();
            if (!coll.is_collection()) return adm::Value::Null();
            hyracks::Tuple extended = t;
            if (extended.fields.size() < bound_pos + 1) {
              extended.fields.resize(bound_pos + 1);
            }
            for (const auto& item : coll.items()) {
              extended.fields[bound_pos] = item;
              AX_ASSIGN_OR_RETURN(adm::Value pass, pred_eval(extended));
              bool truthy = pass.is_boolean() && pass.AsBool();
              if (want_some && truthy) return adm::Value::Boolean(true);
              if (!want_some && !truthy) return adm::Value::Boolean(false);
            }
            return adm::Value::Boolean(!want_some);
          });
    }
    case ExprKind::kCall: {
      if (const std::string* name = MatchFieldAccess(expr)) {
        return CompileFieldAccess(expr->args[0], *name, positions, registry);
      }
      AX_ASSIGN_OR_RETURN(const ScalarFn* fn,
                          registry.Lookup(expr->fn, expr->args.size()));
      std::vector<hyracks::TupleEval> arg_evals;
      arg_evals.reserve(expr->args.size());
      for (const auto& a : expr->args) {
        AX_ASSIGN_OR_RETURN(auto e, CompileExpr(a, positions, registry));
        arg_evals.push_back(std::move(e));
      }
      return CompileCall(fn, std::move(arg_evals));
    }
  }
  return Status::Internal("bad expression kind");
}

Result<adm::Value> EvaluateConst(const ExprPtr& expr,
                                 const FunctionRegistry& registry) {
  AX_ASSIGN_OR_RETURN(auto eval, CompileExpr(expr, {}, registry));
  hyracks::Tuple empty;
  return eval(empty);
}

}  // namespace asterix::algebricks
