#include "algebricks/expr.h"

#include <algorithm>

namespace asterix::algebricks {

void Expr::CollectVars(std::vector<VarId>* out) const {
  switch (kind) {
    case ExprKind::kConstant:
      return;
    case ExprKind::kVariable:
      if (std::find(out->begin(), out->end(), var) == out->end()) {
        out->push_back(var);
      }
      return;
    case ExprKind::kCall:
      for (const auto& a : args) a->CollectVars(out);
      return;
    case ExprKind::kQuantified: {
      args[0]->CollectVars(out);
      std::vector<VarId> inner;
      args[1]->CollectVars(&inner);
      for (VarId v : inner) {
        if (v == bound_var) continue;  // bound, not free
        if (std::find(out->begin(), out->end(), v) == out->end()) {
          out->push_back(v);
        }
      }
      return;
    }
  }
}

bool Expr::UsesOnly(const std::vector<VarId>& allowed) const {
  std::vector<VarId> used;
  CollectVars(&used);
  for (VarId v : used) {
    if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) {
      return false;
    }
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kConstant:
      return constant.ToString();
    case ExprKind::kVariable:
      return "$" + std::to_string(var);
    case ExprKind::kCall: {
      std::string s = fn + "(";
      for (size_t i = 0; i < args.size(); i++) {
        if (i) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case ExprKind::kQuantified:
      return std::string(quantifier_some ? "some" : "every") + " $" +
             std::to_string(bound_var) + " in " + args[0]->ToString() +
             " satisfies " + args[1]->ToString();
  }
  return "?";
}

const std::string* MatchFieldAccess(const ExprPtr& e) {
  if (e->kind != ExprKind::kCall || e->fn != "field-access" ||
      e->args.size() != 2) {
    return nullptr;
  }
  const Expr& name = *e->args[1];
  if (name.kind != ExprKind::kConstant || !name.constant.is_string()) {
    return nullptr;
  }
  return &name.constant.AsString();
}

const std::string* MatchFieldAccess(const ExprPtr& e, VarId var) {
  const std::string* field = MatchFieldAccess(e);
  if (field == nullptr) return nullptr;
  const Expr& base = *e->args[0];
  if (base.kind != ExprKind::kVariable || base.var != var) return nullptr;
  return field;
}

ExprPtr SubstituteVar(const ExprPtr& e, VarId from, const ExprPtr& to) {
  switch (e->kind) {
    case ExprKind::kConstant:
      return e;
    case ExprKind::kVariable:
      return e->var == from ? to : e;
    case ExprKind::kCall: {
      bool changed = false;
      std::vector<ExprPtr> new_args;
      new_args.reserve(e->args.size());
      for (const auto& a : e->args) {
        ExprPtr na = SubstituteVar(a, from, to);
        changed = changed || na != a;
        new_args.push_back(std::move(na));
      }
      if (!changed) return e;
      return Expr::Call(e->fn, std::move(new_args));
    }
    case ExprKind::kQuantified: {
      ExprPtr coll = SubstituteVar(e->args[0], from, to);
      // The bound variable shadows `from` inside the predicate.
      ExprPtr pred = e->bound_var == from
                         ? e->args[1]
                         : SubstituteVar(e->args[1], from, to);
      if (coll == e->args[0] && pred == e->args[1]) return e;
      return Expr::Quantified(e->quantifier_some, e->bound_var,
                              std::move(coll), std::move(pred));
    }
  }
  return e;
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kCall && e->fn == "and") {
    for (const auto& a : e->args) SplitConjuncts(a, out);
    return;
  }
  out->push_back(e);
}

ExprPtr AndAll(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Expr::Constant(adm::Value::Boolean(true));
  if (conjuncts.size() == 1) return conjuncts[0];
  return Expr::Call("and", std::move(conjuncts));
}

}  // namespace asterix::algebricks
