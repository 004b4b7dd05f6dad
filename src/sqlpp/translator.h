// SQL++ -> Algebricks translation. Produces the same logical algebra the
// AQL front end produces (paper §IV-A: "sharing the Algebricks query
// algebra and many optimizer rules"), which is what makes the Fig. 4
// stack-reuse experiment meaningful. Statements other than queries reach
// it two ways: DELETE's FROM/WHERE is translated as a query for primary
// keys, and an INSERT/UPSERT payload as a constant scalar expression.
#pragma once

#include <string>

#include "algebricks/logical.h"
#include "algebricks/optimizer.h"
#include "sqlpp/ast.h"

namespace asterix::sqlpp {

/// A translated query: plan root whose schema is exactly [result_var];
/// each output tuple carries the query result value in that variable.
struct TranslatedQuery {
  algebricks::LogicalOpPtr plan;
  algebricks::VarId result_var = -1;
};

/// Translates parsed queries against a catalog (for dataset resolution).
class Translator {
 public:
  explicit Translator(const algebricks::Catalog* catalog)
      : catalog_(catalog) {}

  Result<TranslatedQuery> TranslateQuery(const ast::SelectQuery& q);

  /// Translate a standalone expression with no variables in scope (the
  /// constant INSERT/UPSERT payload).
  Result<algebricks::ExprPtr> TranslateScalar(const ast::ExprNodePtr& e);

  /// Translate an expression with multiple variable bindings in scope.
  /// Used by the AQL front end, which shares this translator's expression
  /// lowering (the paper's Fig. 4 layer reuse).
  Result<algebricks::ExprPtr> TranslateWithBindings(
      const ast::ExprNodePtr& e,
      const std::vector<std::pair<std::string, algebricks::VarId>>& bindings);

  /// Allocate a fresh logical variable (front ends share the counter).
  algebricks::VarId AllocateVar() { return NewVar(); }

 private:
  struct Scope;  // alias -> var bindings, lexically chained
  algebricks::VarId NewVar() { return next_var_++; }

  Result<TranslatedQuery> TranslateQueryScoped(const ast::SelectQuery& q,
                                               const Scope* outer);
  Result<algebricks::ExprPtr> TranslateExpr(const ast::ExprNodePtr& e,
                                            const Scope& scope);

  const algebricks::Catalog* catalog_;
  algebricks::VarId next_var_ = 1;
};

}  // namespace asterix::sqlpp
