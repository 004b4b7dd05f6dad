// SQL++ recursive-descent parser (paper §III item 2, §IV-A). Covers the
// dialect subset exercised by the paper's Fig. 3 plus the usual
// SELECT-FROM-WHERE-GROUP BY-HAVING-ORDER BY-LIMIT pipeline, joins,
// quantified predicates, DDL and DML.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "sqlpp/ast.h"

namespace asterix::sqlpp {

/// Deepest nesting of expressions, subqueries, NOT and unary-minus chains
/// and type specs a statement may have. A deeper statement is refused with
/// ParseError instead of recursing further.
constexpr size_t kMaxNestingDepth = 128;

/// Most binary operators (OR, AND, ||, +, -, *, /, %) one statement may
/// chain. A chain of them builds a left-deep tree one level per operator,
/// which every later stage (translation, optimization, evaluation, and
/// freeing the tree) walks recursively; a statement with more is refused
/// with ParseError. At the bound, under the deepest nesting, an ASan build
/// translates the tree in about 6 MiB of an 8 MiB stack; twice the bound
/// overflows it.
constexpr size_t kMaxChainedOperators = 1024;

/// Parse one statement (optionally ';'-terminated).
Result<ast::Statement> ParseStatement(const std::string& input);

/// Split a script on top-level ';' and parse each statement.
Result<std::vector<ast::Statement>> ParseScript(const std::string& input);

/// Parse a standalone expression (the whole input must be one expression).
Result<ast::ExprNodePtr> ParseExpression(const std::string& input);

/// Incremental expression/token access for other language front ends
/// (the AQL parser drives its FLWOR grammar and borrows SQL++'s
/// expression grammar through this — the Fig. 4 reuse in practice).
class SubParser {
 public:
  explicit SubParser(const std::string& input);
  ~SubParser();
  /// Parse one expression at the current position.
  Result<ast::ExprNodePtr> ParseExpr();
  bool AcceptSymbol(const std::string& symbol);
  bool AcceptKeyword(const std::string& keyword);
  /// Peek whether the current token is the given keyword.
  bool PeekKeyword(const std::string& keyword) const;
  Result<std::string> ExpectIdentifier();
  bool AtEnd() const;
  Status error(const std::string& msg) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  Status init_error_;
};

}  // namespace asterix::sqlpp
