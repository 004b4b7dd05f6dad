// Algebricks scalar expressions (paper Fig. 5: the "data model-agnostic"
// algebraic layer shared by every language front end — AQL, SQL++, and the
// other stack reuses of Fig. 4). An expression is a constant, a variable
// reference, or a function call; field access, comparisons, boolean logic
// and arithmetic are all function calls resolved in the function registry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adm/value.h"
#include "common/result.h"

namespace asterix::algebricks {

/// Logical variable id, assigned by the language translator.
using VarId = int32_t;

enum class ExprKind : uint8_t { kConstant, kVariable, kCall, kQuantified };

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Immutable expression tree node.
struct Expr {
  ExprKind kind;
  adm::Value constant;        // kConstant
  VarId var = -1;             // kVariable
  std::string fn;             // kCall: registry name
  std::vector<ExprPtr> args;  // kCall

  // kQuantified: SOME/EVERY bound_var IN args[0] SATISFIES args[1].
  // args[1] may reference bound_var (correlated evaluation).
  bool quantifier_some = true;
  VarId bound_var = -1;

  static ExprPtr Constant(adm::Value v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kConstant;
    e->constant = std::move(v);
    return e;
  }
  static ExprPtr Variable(VarId v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kVariable;
    e->var = v;
    return e;
  }
  static ExprPtr Call(std::string fn, std::vector<ExprPtr> args) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kCall;
    e->fn = std::move(fn);
    e->args = std::move(args);
    return e;
  }
  /// field-access(base, "name") — the most common call.
  static ExprPtr Field(ExprPtr base, const std::string& name) {
    return Call("field-access",
                {std::move(base), Constant(adm::Value::String(name))});
  }
  /// SOME/EVERY var IN collection SATISFIES predicate.
  static ExprPtr Quantified(bool some, VarId var, ExprPtr collection,
                            ExprPtr predicate) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kQuantified;
    e->quantifier_some = some;
    e->bound_var = var;
    e->args = {std::move(collection), std::move(predicate)};
    return e;
  }

  /// Collect every variable referenced in the subtree.
  void CollectVars(std::vector<VarId>* out) const;
  /// True if the subtree references no variables outside `allowed`.
  bool UsesOnly(const std::vector<VarId>& allowed) const;

  std::string ToString() const;
};

/// The field name of field-access(<base>, "<string constant>"), or nullptr
/// for any other expression, a computed name included. The one matcher
/// behind the optimizer's rules and the compiler's in-place field read.
const std::string* MatchFieldAccess(const ExprPtr& e);
/// The same, for a base that is the variable `var`.
const std::string* MatchFieldAccess(const ExprPtr& e, VarId var);

/// Deep-substitute variable `from` with expression `to` (returns new tree;
/// shared subtrees are fine because expressions are immutable).
ExprPtr SubstituteVar(const ExprPtr& e, VarId from, const ExprPtr& to);

/// Split a boolean expression into its top-level AND conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Re-join conjuncts with AND (returns TRUE constant when empty).
ExprPtr AndAll(std::vector<ExprPtr> conjuncts);

}  // namespace asterix::algebricks
