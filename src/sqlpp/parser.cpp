#include "sqlpp/parser.h"

#include <algorithm>

#include "adm/temporal.h"
#include "sqlpp/lexer.h"

namespace asterix::sqlpp {

namespace {

using namespace ast;

// Normalize a function identifier to registry form: lowercase, '_' -> '-'.
std::string NormalizeFn(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(c == '_' ? '-' : static_cast<char>(std::tolower(c)));
  }
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Statement> ParseOneStatement() {
    AX_ASSIGN_OR_RETURN(Statement st, ParseStatementInner());
    (void)Accept(";");
    if (!Cur().Is("") && Cur().kind != TokenKind::kEnd) {
      return Err("trailing tokens after statement");
    }
    return st;
  }

  // Accessors for SubParser (other language front ends).
  Result<ExprNodePtr> ParseExprPublic() { return ParseExpr(); }
  bool AcceptPublic(const std::string& s) { return Accept(s); }
  bool AcceptKwPublic(const std::string& k) { return AcceptKw(k); }
  const Token& CurPublic() const { return Cur(); }
  Result<std::string> ExpectIdentPublic() { return ExpectIdent(); }
  Status ErrPublic(const std::string& m) const { return Err(m); }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (Cur().kind != TokenKind::kEnd) {
      AX_ASSIGN_OR_RETURN(Statement st, ParseStatementInner());
      out.push_back(std::move(st));
      if (!Accept(";")) break;
    }
    if (Cur().kind != TokenKind::kEnd) return Err("trailing tokens");
    return out;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  const Token& Peek(size_t n = 1) const {
    return toks_[std::min(pos_ + n, toks_.size() - 1)];
  }
  void Advance() {
    if (pos_ + 1 < toks_.size()) pos_++;
  }
  bool Accept(const std::string& symbol) {
    if (Cur().Is(symbol)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKw(const std::string& kw) {
    if (Cur().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(const std::string& symbol) {
    if (!Accept(symbol)) return Err("expected '" + symbol + "'");
    return Status::OK();
  }
  Status ExpectKw(const std::string& kw) {
    if (!AcceptKw(kw)) return Err("expected " + kw);
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Cur().offset) + " (token '" +
                              Cur().text + "')");
  }
  // Every recursion of the grammar goes through here, so a statement
  // nested past kMaxNestingDepth is refused before it can exhaust the
  // stack.
  template <typename Parse>
  auto Nested(Parse parse) -> decltype(parse()) {
    if (depth_ == kMaxNestingDepth) {
      return Err("statement nested more than " +
                 std::to_string(kMaxNestingDepth) + " levels deep");
    }
    depth_++;
    auto r = parse();
    depth_--;
    return r;
  }

  // Each operator of a left-associative chain (a + b + c ...) puts the tree
  // built so far one level deeper without recursing, so Nested never sees
  // it. The chained operators of a whole statement are counted instead,
  // which bounds the depth chains can add to the tree.
  Status Chain() {
    if (chained_ == kMaxChainedOperators) {
      return Err("statement chains more than " +
                 std::to_string(kMaxChainedOperators) + " binary operators");
    }
    chained_++;
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Cur().kind != TokenKind::kIdent &&
        Cur().kind != TokenKind::kQuotedIdent) {
      return Err("expected identifier");
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  // ---- statements ----------------------------------------------------------

  Result<Statement> ParseStatementInner() {
    chained_ = 0;  // the chain bound is per statement
    if (Cur().IsKeyword("CREATE")) return ParseCreate();
    if (Cur().IsKeyword("DROP")) return ParseDrop();
    if (Cur().IsKeyword("INSERT") || Cur().IsKeyword("UPSERT")) {
      return ParseInsertUpsert();
    }
    if (Cur().IsKeyword("DELETE")) return ParseDelete();
    if (Cur().IsKeyword("CONNECT")) return ParseConnectFeed();
    if (Cur().IsKeyword("DISCONNECT")) return ParseDisconnectFeed();
    if (Cur().IsKeyword("SELECT") || Cur().IsKeyword("WITH")) {
      Statement st;
      st.kind = Statement::kQuery;
      AX_ASSIGN_OR_RETURN(st.query, ParseSelectQuery());
      return st;
    }
    return Err("expected a statement");
  }

  Result<Statement> ParseCreate() {
    AX_RETURN_NOT_OK(ExpectKw("CREATE"));
    if (AcceptKw("TYPE")) return ParseCreateType();
    if (AcceptKw("DATASET")) return ParseCreateDataset(/*external=*/false);
    if (AcceptKw("EXTERNAL")) {
      AX_RETURN_NOT_OK(ExpectKw("DATASET"));
      return ParseCreateDataset(/*external=*/true);
    }
    if (AcceptKw("INDEX")) return ParseCreateIndex();
    if (AcceptKw("FEED")) return ParseCreateFeed();
    return Err("expected TYPE, DATASET, EXTERNAL DATASET, INDEX or FEED");
  }

  /// AsterixDB-style property list: (("key"="value"), ...).
  Status ParsePropList(std::map<std::string, std::string>* out) {
    AX_RETURN_NOT_OK(Expect("("));
    while (true) {
      AX_RETURN_NOT_OK(Expect("("));
      if (Cur().kind != TokenKind::kString) return Err("expected property name");
      std::string key = Cur().text;
      Advance();
      AX_RETURN_NOT_OK(Expect("="));
      if (Cur().kind != TokenKind::kString) {
        return Err("expected property value");
      }
      (*out)[key] = Cur().text;
      Advance();
      AX_RETURN_NOT_OK(Expect(")"));
      if (Accept(",")) continue;
      AX_RETURN_NOT_OK(Expect(")"));
      break;
    }
    return Status::OK();
  }

  Result<TypeSpec> ParseTypeSpec() {
    TypeSpec spec;
    if (Accept("[")) {
      spec.kind = TypeSpec::kArray;
      AX_ASSIGN_OR_RETURN(TypeSpec item,
                          Nested([this] { return ParseTypeSpec(); }));
      spec.item = std::make_shared<TypeSpec>(std::move(item));
      AX_RETURN_NOT_OK(Expect("]"));
      return spec;
    }
    if (Accept("{{")) {
      spec.kind = TypeSpec::kMultiset;
      AX_ASSIGN_OR_RETURN(TypeSpec item,
                          Nested([this] { return ParseTypeSpec(); }));
      spec.item = std::make_shared<TypeSpec>(std::move(item));
      AX_RETURN_NOT_OK(Expect("}}"));
      return spec;
    }
    AX_ASSIGN_OR_RETURN(spec.name, ExpectIdent());
    return spec;
  }

  Result<Statement> ParseCreateType() {
    Statement st;
    st.kind = Statement::kCreateType;
    AX_ASSIGN_OR_RETURN(st.type_name, ExpectIdent());
    AX_RETURN_NOT_OK(ExpectKw("AS"));
    st.closed = AcceptKw("CLOSED");
    (void)AcceptKw("OPEN");
    AX_RETURN_NOT_OK(Expect("{"));
    if (!Accept("}")) {
      while (true) {
        TypeField f;
        AX_ASSIGN_OR_RETURN(f.name, ExpectIdent());
        AX_RETURN_NOT_OK(Expect(":"));
        AX_ASSIGN_OR_RETURN(f.type, ParseTypeSpec());
        f.optional = Accept("?");
        st.type_fields.push_back(std::move(f));
        if (Accept(",")) continue;
        AX_RETURN_NOT_OK(Expect("}"));
        break;
      }
    }
    return st;
  }

  Result<Statement> ParseCreateDataset(bool external) {
    Statement st;
    st.kind = external ? Statement::kCreateExternalDataset
                       : Statement::kCreateDataset;
    AX_ASSIGN_OR_RETURN(st.dataset_name, ExpectIdent());
    AX_RETURN_NOT_OK(Expect("("));
    AX_ASSIGN_OR_RETURN(st.dataset_type, ExpectIdent());
    AX_RETURN_NOT_OK(Expect(")"));
    if (external) {
      AX_RETURN_NOT_OK(ExpectKw("USING"));
      AX_ASSIGN_OR_RETURN(std::string adapter, ExpectIdent());
      if (NormalizeFn(adapter) != "localfs") {
        return Err("unsupported external adapter '" + adapter + "'");
      }
      AX_RETURN_NOT_OK(ParsePropList(&st.external_props));
      return st;
    }
    AX_RETURN_NOT_OK(ExpectKw("PRIMARY"));
    AX_RETURN_NOT_OK(ExpectKw("KEY"));
    AX_ASSIGN_OR_RETURN(st.primary_key, ExpectIdent());
    // Optional AsterixDB-style WITH record of string properties, e.g.
    //   WITH { "storage-format" : "columnar" }
    if (AcceptKw("WITH")) {
      AX_RETURN_NOT_OK(Expect("{"));
      if (!Accept("}")) {
        while (true) {
          if (Cur().kind != TokenKind::kString) {
            return Err("expected string property name in WITH record");
          }
          std::string key = Cur().text;
          Advance();
          AX_RETURN_NOT_OK(Expect(":"));
          if (Cur().kind != TokenKind::kString) {
            return Err("expected string property value in WITH record");
          }
          st.with_props[key] = Cur().text;
          Advance();
          if (Accept(",")) continue;
          AX_RETURN_NOT_OK(Expect("}"));
          break;
        }
      }
    }
    return st;
  }

  Result<Statement> ParseCreateIndex() {
    Statement st;
    st.kind = Statement::kCreateIndex;
    AX_ASSIGN_OR_RETURN(st.index_name, ExpectIdent());
    AX_RETURN_NOT_OK(ExpectKw("ON"));
    AX_ASSIGN_OR_RETURN(st.on_dataset, ExpectIdent());
    AX_RETURN_NOT_OK(Expect("("));
    AX_ASSIGN_OR_RETURN(st.on_field, ExpectIdent());
    AX_RETURN_NOT_OK(Expect(")"));
    st.index_type = "BTREE";
    if (AcceptKw("TYPE")) {
      AX_ASSIGN_OR_RETURN(std::string t, ExpectIdent());
      std::transform(t.begin(), t.end(), t.begin(), ::toupper);
      if (t != "BTREE" && t != "RTREE" && t != "KEYWORD") {
        return Err("unknown index type '" + t + "'");
      }
      st.index_type = t;
    }
    return st;
  }

  Result<Statement> ParseDrop() {
    AX_RETURN_NOT_OK(ExpectKw("DROP"));
    Statement st;
    if (AcceptKw("DATASET")) {
      st.kind = Statement::kDropDataset;
      AX_ASSIGN_OR_RETURN(st.dataset_name, ExpectIdent());
      (void)AcceptKw("IF");  // tolerate IF EXISTS
      (void)AcceptKw("EXISTS");
      return st;
    }
    if (AcceptKw("TYPE")) {
      st.kind = Statement::kDropType;
      AX_ASSIGN_OR_RETURN(st.type_name, ExpectIdent());
      return st;
    }
    if (AcceptKw("INDEX")) {
      st.kind = Statement::kDropIndex;
      AX_ASSIGN_OR_RETURN(st.on_dataset, ExpectIdent());
      AX_RETURN_NOT_OK(Expect("."));
      AX_ASSIGN_OR_RETURN(st.index_name, ExpectIdent());
      return st;
    }
    if (AcceptKw("FEED")) {
      st.kind = Statement::kDropFeed;
      AX_ASSIGN_OR_RETURN(st.feed_name, ExpectIdent());
      return st;
    }
    return Err("expected DATASET, TYPE, INDEX or FEED after DROP");
  }

  /// CREATE FEED f USING adapter [(("k"="v"), ...)]
  Result<Statement> ParseCreateFeed() {
    Statement st;
    st.kind = Statement::kCreateFeed;
    AX_ASSIGN_OR_RETURN(st.feed_name, ExpectIdent());
    AX_RETURN_NOT_OK(ExpectKw("USING"));
    AX_ASSIGN_OR_RETURN(std::string adapter, ExpectIdent());
    st.feed_adapter = NormalizeFn(adapter);
    if (Cur().Is("(")) {
      AX_RETURN_NOT_OK(ParsePropList(&st.external_props));
    }
    return st;
  }

  /// CONNECT FEED f TO DATASET ds [USING POLICY p]
  Result<Statement> ParseConnectFeed() {
    AX_RETURN_NOT_OK(ExpectKw("CONNECT"));
    AX_RETURN_NOT_OK(ExpectKw("FEED"));
    Statement st;
    st.kind = Statement::kConnectFeed;
    AX_ASSIGN_OR_RETURN(st.feed_name, ExpectIdent());
    AX_RETURN_NOT_OK(ExpectKw("TO"));
    AX_RETURN_NOT_OK(ExpectKw("DATASET"));
    AX_ASSIGN_OR_RETURN(st.dataset_name, ExpectIdent());
    if (AcceptKw("USING")) {
      AX_RETURN_NOT_OK(ExpectKw("POLICY"));
      AX_ASSIGN_OR_RETURN(st.feed_policy, ExpectIdent());
    }
    return st;
  }

  /// DISCONNECT FEED f
  Result<Statement> ParseDisconnectFeed() {
    AX_RETURN_NOT_OK(ExpectKw("DISCONNECT"));
    AX_RETURN_NOT_OK(ExpectKw("FEED"));
    Statement st;
    st.kind = Statement::kDisconnectFeed;
    AX_ASSIGN_OR_RETURN(st.feed_name, ExpectIdent());
    return st;
  }

  Result<Statement> ParseInsertUpsert() {
    Statement st;
    st.kind = Cur().IsKeyword("UPSERT") ? Statement::kUpsert : Statement::kInsert;
    Advance();
    AX_RETURN_NOT_OK(ExpectKw("INTO"));
    AX_ASSIGN_OR_RETURN(st.target, ExpectIdent());
    // Payload: parenthesized expression, or a bare constructor.
    bool parens = Accept("(");
    AX_ASSIGN_OR_RETURN(st.payload, ParseExpr());
    if (parens) AX_RETURN_NOT_OK(Expect(")"));
    return st;
  }

  /// DELETE FROM ds [[AS] alias] [WHERE cond], kept as the query's FROM
  /// and WHERE clauses.
  Result<Statement> ParseDelete() {
    AX_RETURN_NOT_OK(ExpectKw("DELETE"));
    AX_RETURN_NOT_OK(ExpectKw("FROM"));
    Statement st;
    st.kind = Statement::kDelete;
    AX_ASSIGN_OR_RETURN(st.target, ExpectIdent());
    FromClause fc;
    fc.expr = ExprNode::Ident(st.target);
    fc.alias = st.target;
    if (AcceptKw("AS") ||
        (Cur().kind == TokenKind::kIdent && !Cur().IsKeyword("WHERE"))) {
      AX_ASSIGN_OR_RETURN(fc.alias, ExpectIdent());
    }
    st.query = std::make_shared<SelectQuery>();
    st.query->froms.push_back(std::move(fc));
    if (AcceptKw("WHERE")) {
      AX_ASSIGN_OR_RETURN(st.query->where, ParseExpr());
    }
    return st;
  }

  // ---- query ----------------------------------------------------------------

  Result<SelectQueryPtr> ParseSelectQuery() {
    auto q = std::make_shared<SelectQuery>();
    if (AcceptKw("WITH")) {
      while (true) {
        AX_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        AX_RETURN_NOT_OK(ExpectKw("AS"));
        AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
        q->with.emplace_back(std::move(name), std::move(e));
        if (!Accept(",")) break;
      }
    }
    AX_RETURN_NOT_OK(ExpectKw("SELECT"));
    q->distinct = AcceptKw("DISTINCT");
    (void)AcceptKw("ALL");
    if (AcceptKw("VALUE") || AcceptKw("ELEMENT")) {
      q->select_value = true;
      AX_ASSIGN_OR_RETURN(q->value_expr, ParseExpr());
    } else {
      while (true) {
        Projection p;
        if (Accept("*")) {
          p.star = true;
        } else {
          AX_ASSIGN_OR_RETURN(p.expr, ParseExpr());
          if (AcceptKw("AS")) {
            AX_ASSIGN_OR_RETURN(p.alias, ExpectIdent());
          } else if (Cur().kind == TokenKind::kIdent && !IsClauseKeyword(Cur())) {
            AX_ASSIGN_OR_RETURN(p.alias, ExpectIdent());
          } else {
            // Implicit alias: last field name or the identifier itself.
            p.alias = ImplicitAlias(p.expr);
          }
        }
        q->projections.push_back(std::move(p));
        if (!Accept(",")) break;
      }
    }
    if (AcceptKw("FROM")) {
      FromClause first_fc;
      first_fc.style = JoinStyle::kFirst;
      AX_RETURN_NOT_OK(ParseFromSource(&first_fc));
      q->froms.push_back(std::move(first_fc));
      while (true) {
        if (Accept(",")) {
          FromClause fc;
          fc.style = JoinStyle::kComma;
          AX_RETURN_NOT_OK(ParseFromSource(&fc));
          q->froms.push_back(std::move(fc));
          continue;
        }
        if (Cur().IsKeyword("JOIN") || Cur().IsKeyword("INNER") ||
            Cur().IsKeyword("LEFT")) {
          FromClause jc;
          if (AcceptKw("LEFT")) {
            (void)AcceptKw("OUTER");
            jc.style = JoinStyle::kLeftOuter;
          } else {
            (void)AcceptKw("INNER");
            jc.style = JoinStyle::kInner;
          }
          AX_RETURN_NOT_OK(ExpectKw("JOIN"));
          AX_RETURN_NOT_OK(ParseFromSource(&jc));
          AX_RETURN_NOT_OK(ExpectKw("ON"));
          AX_ASSIGN_OR_RETURN(jc.on, ParseExpr());
          q->froms.push_back(std::move(jc));
          continue;
        }
        break;
      }
    }
    while (AcceptKw("LET") || AcceptKw("LETTING")) {
      while (true) {
        AX_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        AX_RETURN_NOT_OK(Expect("="));
        AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
        q->lets.emplace_back(std::move(name), std::move(e));
        if (!Accept(",")) break;
      }
    }
    if (AcceptKw("WHERE")) {
      AX_ASSIGN_OR_RETURN(q->where, ParseExpr());
    }
    if (AcceptKw("GROUP")) {
      AX_RETURN_NOT_OK(ExpectKw("BY"));
      while (true) {
        AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
        std::string alias;
        if (AcceptKw("AS")) {
          AX_ASSIGN_OR_RETURN(alias, ExpectIdent());
        } else if (e->kind == ExprNodeKind::kIdent) {
          alias = e->ident;
        }
        q->group_by.emplace_back(std::move(alias), std::move(e));
        if (!Accept(",")) break;
      }
      if (AcceptKw("GROUP")) {
        AX_RETURN_NOT_OK(ExpectKw("AS"));
        AX_ASSIGN_OR_RETURN(q->group_as, ExpectIdent());
      }
    }
    if (AcceptKw("HAVING")) {
      AX_ASSIGN_OR_RETURN(q->having, ParseExpr());
    }
    if (AcceptKw("ORDER")) {
      AX_RETURN_NOT_OK(ExpectKw("BY"));
      while (true) {
        AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
        bool asc = true;
        if (AcceptKw("DESC")) {
          asc = false;
        } else {
          (void)AcceptKw("ASC");
        }
        q->order_by.emplace_back(std::move(e), asc);
        if (!Accept(",")) break;
      }
    }
    if (AcceptKw("LIMIT")) {
      if (Cur().kind != TokenKind::kInt) return Err("expected LIMIT count");
      q->limit = Cur().int_value;
      Advance();
      if (AcceptKw("OFFSET")) {
        if (Cur().kind != TokenKind::kInt) return Err("expected OFFSET count");
        q->offset = Cur().int_value;
        Advance();
      }
    }
    return q;
  }

  static bool IsClauseKeyword(const Token& t) {
    static const char* kws[] = {"FROM", "WHERE",  "GROUP", "HAVING", "ORDER",
                                "LIMIT", "OFFSET", "LET",   "AS",     "JOIN",
                                "ON",    "LEFT",   "INNER", "SELECT", "VALUE",
                                "UNION", "SATISFIES", "AND", "OR", "ASC",
                                "DESC", "BY", "LETTING"};
    for (const char* k : kws) {
      if (t.IsKeyword(k)) return true;
    }
    return false;
  }

  static std::string ImplicitAlias(const ExprNodePtr& e) {
    if (e->kind == ExprNodeKind::kIdent) return e->ident;
    if (e->kind == ExprNodeKind::kFieldAccess) return e->field;
    return "$unnamed";
  }

  Status ParseFromSource(FromClause* fc) {
    AX_ASSIGN_OR_RETURN(fc->expr, ParseExpr());
    if (AcceptKw("AS")) {
      AX_ASSIGN_OR_RETURN(fc->alias, ExpectIdent());
    } else if ((Cur().kind == TokenKind::kIdent && !IsClauseKeyword(Cur())) ||
               Cur().kind == TokenKind::kQuotedIdent) {
      AX_ASSIGN_OR_RETURN(fc->alias, ExpectIdent());
    } else {
      fc->alias = ImplicitAlias(fc->expr);
    }
    return Status::OK();
  }

  // ---- expressions ------------------------------------------------------

  Result<ExprNodePtr> ParseExpr() {
    return Nested([this] { return ParseOr(); });
  }

  Result<ExprNodePtr> ParseOr() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseAnd());
    while (AcceptKw("OR")) {
      AX_RETURN_NOT_OK(Chain());
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseAnd());
      lhs = ExprNode::Call("or", {lhs, rhs});
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseAnd() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseNot());
    while (AcceptKw("AND")) {
      AX_RETURN_NOT_OK(Chain());
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseNot());
      lhs = ExprNode::Call("and", {lhs, rhs});
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseNot() {
    if (AcceptKw("NOT")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr e, Nested([this] { return ParseNot(); }));
      return ExprNode::Call("not", {e});
    }
    return ParseQuantified();
  }

  Result<ExprNodePtr> ParseQuantified() {
    if (Cur().IsKeyword("SOME") || Cur().IsKeyword("EVERY")) {
      bool some = Cur().IsKeyword("SOME");
      Advance();
      auto e = std::make_shared<ExprNode>();
      e->kind = ExprNodeKind::kQuantified;
      e->some = some;
      AX_ASSIGN_OR_RETURN(e->bound_name, ExpectIdent());
      AX_RETURN_NOT_OK(ExpectKw("IN"));
      AX_ASSIGN_OR_RETURN(e->collection, ParseComparison());
      AX_RETURN_NOT_OK(ExpectKw("SATISFIES"));
      AX_ASSIGN_OR_RETURN(e->predicate, ParseExpr());
      return e;
    }
    if (Cur().IsKeyword("EXISTS")) {
      Advance();
      auto e = std::make_shared<ExprNode>();
      e->kind = ExprNodeKind::kExists;
      AX_ASSIGN_OR_RETURN(e->collection, ParseComparison());
      return e;
    }
    return ParseComparison();
  }

  Result<ExprNodePtr> ParseComparison() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseConcat());
    // IS [NOT] NULL / MISSING / UNKNOWN
    if (AcceptKw("IS")) {
      bool negate = AcceptKw("NOT");
      std::string test;
      if (AcceptKw("NULL")) {
        test = "is-null";
      } else if (AcceptKw("MISSING")) {
        test = "is-missing";
      } else if (AcceptKw("UNKNOWN")) {
        test = "is-unknown";
      } else {
        return Err("expected NULL, MISSING or UNKNOWN after IS");
      }
      ExprNodePtr e = ExprNode::Call(test, {lhs});
      if (negate) e = ExprNode::Call("not", {e});
      return e;
    }
    if (AcceptKw("BETWEEN")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr lo, ParseConcat());
      AX_RETURN_NOT_OK(ExpectKw("AND"));
      AX_ASSIGN_OR_RETURN(ExprNodePtr hi, ParseConcat());
      return ExprNode::Call("and", {ExprNode::Call("ge", {lhs, lo}),
                                    ExprNode::Call("le", {lhs, hi})});
    }
    bool negate = false;
    if (Cur().IsKeyword("NOT") &&
        (Peek().IsKeyword("IN") || Peek().IsKeyword("LIKE"))) {
      negate = true;
      Advance();
    }
    if (AcceptKw("IN")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseConcat());
      ExprNodePtr e = ExprNode::Call("in", {lhs, rhs});
      if (negate) e = ExprNode::Call("not", {e});
      return e;
    }
    if (AcceptKw("LIKE")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseConcat());
      ExprNodePtr e = ExprNode::Call("like", {lhs, rhs});
      if (negate) e = ExprNode::Call("not", {e});
      return e;
    }
    std::string op;
    if (Accept("=")) {
      op = "eq";
    } else if (Accept("!=") || Accept("<>")) {
      op = "neq";
    } else if (Accept("<=")) {
      op = "le";
    } else if (Accept(">=")) {
      op = "ge";
    } else if (Accept("<")) {
      op = "lt";
    } else if (Accept(">")) {
      op = "gt";
    } else {
      return lhs;
    }
    AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseConcat());
    return ExprNode::Call(op, {lhs, rhs});
  }

  Result<ExprNodePtr> ParseConcat() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseAdditive());
    while (Accept("||")) {
      AX_RETURN_NOT_OK(Chain());
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseAdditive());
      lhs = ExprNode::Call("concat", {lhs, rhs});
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseAdditive() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseMultiplicative());
    while (true) {
      const char* fn = Accept("+")   ? "add"
                       : Accept("-") ? "sub"
                                     : nullptr;
      if (fn == nullptr) return lhs;
      AX_RETURN_NOT_OK(Chain());
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseMultiplicative());
      lhs = ExprNode::Call(fn, {lhs, rhs});
    }
  }

  Result<ExprNodePtr> ParseMultiplicative() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseUnary());
    while (true) {
      const char* fn = Accept("*")   ? "mul"
                       : Accept("/") ? "div"
                       : Accept("%") ? "mod"
                                     : nullptr;
      if (fn == nullptr) return lhs;
      AX_RETURN_NOT_OK(Chain());
      AX_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseUnary());
      lhs = ExprNode::Call(fn, {lhs, rhs});
    }
  }

  Result<ExprNodePtr> ParseUnary() {
    if (Accept("-")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr e,
                          Nested([this] { return ParseUnary(); }));
      if (e->kind == ExprNodeKind::kLiteral && e->literal.is_int()) {
        return ExprNode::Literal(adm::Value::Int(-e->literal.AsInt()));
      }
      if (e->kind == ExprNodeKind::kLiteral && e->literal.is_double()) {
        return ExprNode::Literal(
            adm::Value::Double(-e->literal.AsDoubleExact()));
      }
      return ExprNode::Call("neg", {e});
    }
    (void)Accept("+");
    return ParsePostfix();
  }

  Result<ExprNodePtr> ParsePostfix() {
    AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParsePrimary());
    while (true) {
      if (Accept(".")) {
        AX_ASSIGN_OR_RETURN(std::string field, ExpectIdent());
        e = ExprNode::Field(e, std::move(field));
        continue;
      }
      if (Accept("[")) {
        auto ia = std::make_shared<ExprNode>();
        ia->kind = ExprNodeKind::kIndexAccess;
        ia->base = e;
        AX_ASSIGN_OR_RETURN(ia->index, ParseExpr());
        AX_RETURN_NOT_OK(Expect("]"));
        e = ia;
        continue;
      }
      return e;
    }
  }

  Result<ExprNodePtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokenKind::kInt: {
        Advance();
        return ExprNode::Literal(adm::Value::Int(t.int_value));
      }
      case TokenKind::kDouble: {
        Advance();
        return ExprNode::Literal(adm::Value::Double(t.double_value));
      }
      case TokenKind::kString: {
        Advance();
        return ExprNode::Literal(adm::Value::String(t.text));
      }
      case TokenKind::kQuotedIdent: {
        Advance();
        return ExprNode::Ident(t.text);
      }
      case TokenKind::kIdent: {
        if (t.IsKeyword("TRUE")) {
          Advance();
          return ExprNode::Literal(adm::Value::Boolean(true));
        }
        if (t.IsKeyword("FALSE")) {
          Advance();
          return ExprNode::Literal(adm::Value::Boolean(false));
        }
        if (t.IsKeyword("NULL")) {
          Advance();
          return ExprNode::Literal(adm::Value::Null());
        }
        if (t.IsKeyword("MISSING")) {
          Advance();
          return ExprNode::Literal(adm::Value::Missing());
        }
        if (t.IsKeyword("CASE")) return ParseCase();
        // Function call?
        if (Peek().Is("(")) {
          std::string name = t.text;
          Advance();  // name
          Advance();  // '('
          std::vector<ExprNodePtr> args;
          bool star_arg = false;
          if (!Accept(")")) {
            if (Accept("*")) {
              star_arg = true;
              AX_RETURN_NOT_OK(Expect(")"));
            } else {
              while (true) {
                AX_ASSIGN_OR_RETURN(ExprNodePtr a, ParseExpr());
                args.push_back(std::move(a));
                if (Accept(",")) continue;
                AX_RETURN_NOT_OK(Expect(")"));
                break;
              }
            }
          }
          auto call = ExprNode::Call(NormalizeFn(name), std::move(args));
          if (star_arg) call->fn += "-star";  // COUNT(*) -> "count-star"
          return call;
        }
        Advance();
        return ExprNode::Ident(t.text);
      }
      case TokenKind::kSymbol: {
        if (t.text == "(") {
          Advance();
          if (Cur().IsKeyword("SELECT") || Cur().IsKeyword("WITH")) {
            auto e = std::make_shared<ExprNode>();
            e->kind = ExprNodeKind::kSubquery;
            AX_ASSIGN_OR_RETURN(e->subquery,
                                Nested([this] { return ParseSelectQuery(); }));
            AX_RETURN_NOT_OK(Expect(")"));
            return e;
          }
          AX_ASSIGN_OR_RETURN(ExprNodePtr e, ParseExpr());
          AX_RETURN_NOT_OK(Expect(")"));
          return e;
        }
        if (t.text == "[") {
          Advance();
          auto e = std::make_shared<ExprNode>();
          e->kind = ExprNodeKind::kArray;
          if (!Accept("]")) {
            while (true) {
              AX_ASSIGN_OR_RETURN(ExprNodePtr item, ParseExpr());
              e->items.push_back(std::move(item));
              if (Accept(",")) continue;
              AX_RETURN_NOT_OK(Expect("]"));
              break;
            }
          }
          return e;
        }
        if (t.text == "{{") {
          Advance();
          auto e = std::make_shared<ExprNode>();
          e->kind = ExprNodeKind::kMultiset;
          if (!Accept("}}")) {
            while (true) {
              AX_ASSIGN_OR_RETURN(ExprNodePtr item, ParseExpr());
              e->items.push_back(std::move(item));
              if (Accept(",")) continue;
              AX_RETURN_NOT_OK(Expect("}}"));
              break;
            }
          }
          return e;
        }
        if (t.text == "{") {
          Advance();
          auto e = std::make_shared<ExprNode>();
          e->kind = ExprNodeKind::kObject;
          if (!Accept("}")) {
            while (true) {
              std::string name;
              if (Cur().kind == TokenKind::kString) {
                name = Cur().text;
                Advance();
              } else {
                AX_ASSIGN_OR_RETURN(name, ExpectIdent());
              }
              AX_RETURN_NOT_OK(Expect(":"));
              AX_ASSIGN_OR_RETURN(ExprNodePtr v, ParseExpr());
              e->obj_fields.emplace_back(std::move(name), std::move(v));
              if (Accept(",")) continue;
              AX_RETURN_NOT_OK(Expect("}"));
              break;
            }
          }
          return e;
        }
        break;
      }
      default:
        break;
    }
    return Err("expected an expression");
  }

  Result<ExprNodePtr> ParseCase() {
    AX_RETURN_NOT_OK(ExpectKw("CASE"));
    auto e = std::make_shared<ExprNode>();
    e->kind = ExprNodeKind::kCase;
    while (AcceptKw("WHEN")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr cond, ParseExpr());
      AX_RETURN_NOT_OK(ExpectKw("THEN"));
      AX_ASSIGN_OR_RETURN(ExprNodePtr val, ParseExpr());
      e->args.push_back(std::move(cond));
      e->args.push_back(std::move(val));
    }
    if (AcceptKw("ELSE")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr d, ParseExpr());
      e->args.push_back(std::move(d));
    }
    AX_RETURN_NOT_OK(ExpectKw("END"));
    if (e->args.size() < 2) return Err("CASE needs at least one WHEN");
    return e;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  size_t depth_ = 0;    // Nested levels entered and not yet left
  size_t chained_ = 0;  // chained binary operators in this statement
};

}  // namespace

Result<ast::Statement> ParseStatement(const std::string& input) {
  AX_ASSIGN_OR_RETURN(auto tokens, Lex(input));
  Parser p(std::move(tokens));
  return p.ParseOneStatement();
}

Result<ast::ExprNodePtr> ParseExpression(const std::string& input) {
  SubParser sp(input);
  AX_ASSIGN_OR_RETURN(auto e, sp.ParseExpr());
  if (!sp.AtEnd()) return sp.error("trailing tokens after expression");
  return e;
}

struct SubParser::Impl {
  explicit Impl(std::vector<Token> tokens) : parser(std::move(tokens)) {}
  Parser parser;
};

SubParser::SubParser(const std::string& input) {
  auto tokens = Lex(input);
  if (!tokens.ok()) {
    init_error_ = tokens.status();
    return;
  }
  impl_ = std::make_unique<Impl>(std::move(tokens).value());
}

SubParser::~SubParser() = default;

Result<ast::ExprNodePtr> SubParser::ParseExpr() {
  if (!impl_) return init_error_;
  return impl_->parser.ParseExprPublic();
}
bool SubParser::AcceptSymbol(const std::string& symbol) {
  return impl_ && impl_->parser.AcceptPublic(symbol);
}
bool SubParser::AcceptKeyword(const std::string& keyword) {
  return impl_ && impl_->parser.AcceptKwPublic(keyword);
}
bool SubParser::PeekKeyword(const std::string& keyword) const {
  return impl_ && impl_->parser.CurPublic().IsKeyword(keyword);
}
Result<std::string> SubParser::ExpectIdentifier() {
  if (!impl_) return init_error_;
  return impl_->parser.ExpectIdentPublic();
}
bool SubParser::AtEnd() const {
  return impl_ && impl_->parser.CurPublic().kind == TokenKind::kEnd;
}
Status SubParser::error(const std::string& msg) const {
  if (!impl_) return init_error_;
  return impl_->parser.ErrPublic(msg);
}

Result<std::vector<ast::Statement>> ParseScript(const std::string& input) {
  AX_ASSIGN_OR_RETURN(auto tokens, Lex(input));
  Parser p(std::move(tokens));
  return p.ParseAll();
}

}  // namespace asterix::sqlpp
