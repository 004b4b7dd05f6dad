#include "aql/aql.h"

#include <functional>
#include <map>

#include "sqlpp/parser.h"
#include "sqlpp/translator.h"

namespace asterix::aql {

using algebricks::Expr;
using algebricks::ExprPtr;
using algebricks::LogicalOp;
using algebricks::LogicalOpKind;
using algebricks::LogicalOpPtr;
using algebricks::VarId;
using sqlpp::ast::ExprNodeKind;
using sqlpp::ast::ExprNodePtr;

namespace {

// Rewrite AQL's scalar aggregate names over collections: after an AQL
// group-by, grouped variables ARE lists, so count($x) is list-count.
ExprNodePtr RewriteCollAggs(const ExprNodePtr& e) {
  if (!e) return e;
  auto copy = std::make_shared<sqlpp::ast::ExprNode>(*e);
  if (e->kind == ExprNodeKind::kCall) {
    if (e->fn == "count") copy->fn = "coll-count";
    if (e->fn == "sum") copy->fn = "coll-sum";
    if (e->fn == "avg") copy->fn = "coll-avg";
    if (e->fn == "min") copy->fn = "coll-min";
    if (e->fn == "max") copy->fn = "coll-max";
  }
  for (auto& a : copy->args) a = RewriteCollAggs(a);
  for (auto& i : copy->items) i = RewriteCollAggs(i);
  for (auto& [n, v] : copy->obj_fields) v = RewriteCollAggs(v);
  copy->base = RewriteCollAggs(e->base);
  copy->index = RewriteCollAggs(e->index);
  copy->collection = RewriteCollAggs(e->collection);
  copy->predicate = RewriteCollAggs(e->predicate);
  return copy;
}

struct ForClause {
  std::string var;           // "$x"
  std::string dataset;       // set when "in dataset Name"
  ExprNodePtr expr;          // set when "in <expr>"
};

struct LetClause {
  std::string var;
  ExprNodePtr expr;
};

struct GroupClause {
  std::string key_var;   // "$k"
  ExprNodePtr key_expr;
  std::vector<std::string> with_vars;  // collected variables
};

struct FlworQuery {
  std::vector<ForClause> fors;
  std::vector<LetClause> lets;       // pre-group lets
  ExprNodePtr where;
  bool has_group = false;
  GroupClause group;
  std::vector<LetClause> post_lets;  // lets after group by
  std::vector<std::pair<ExprNodePtr, bool>> order_by;
  int64_t limit = -1, offset = 0;
  ExprNodePtr ret;
};

Result<FlworQuery> ParseFlwor(const std::string& text) {
  sqlpp::SubParser p(text);
  FlworQuery q;
  if (!p.PeekKeyword("FOR")) return p.error("AQL query must start with 'for'");
  bool seen_group = false;
  while (true) {
    if (p.AcceptKeyword("FOR")) {
      ForClause fc;
      AX_ASSIGN_OR_RETURN(fc.var, p.ExpectIdentifier());
      if (!p.AcceptKeyword("IN")) return p.error("expected 'in'");
      if (p.AcceptKeyword("DATASET")) {
        AX_ASSIGN_OR_RETURN(fc.dataset, p.ExpectIdentifier());
      } else {
        AX_ASSIGN_OR_RETURN(fc.expr, p.ParseExpr());
      }
      q.fors.push_back(std::move(fc));
      continue;
    }
    if (p.AcceptKeyword("LET")) {
      LetClause lc;
      AX_ASSIGN_OR_RETURN(lc.var, p.ExpectIdentifier());
      if (!p.AcceptSymbol(":")) return p.error("expected ':=' after let var");
      if (!p.AcceptSymbol("=")) return p.error("expected ':=' after let var");
      AX_ASSIGN_OR_RETURN(lc.expr, p.ParseExpr());
      (seen_group ? q.post_lets : q.lets).push_back(std::move(lc));
      continue;
    }
    if (p.AcceptKeyword("WHERE")) {
      AX_ASSIGN_OR_RETURN(q.where, p.ParseExpr());
      continue;
    }
    if (p.AcceptKeyword("GROUP")) {
      if (!p.AcceptKeyword("BY")) return p.error("expected 'by' after group");
      q.has_group = true;
      seen_group = true;
      AX_ASSIGN_OR_RETURN(q.group.key_var, p.ExpectIdentifier());
      if (!p.AcceptSymbol(":")) return p.error("expected ':=' in group by");
      if (!p.AcceptSymbol("=")) return p.error("expected ':=' in group by");
      AX_ASSIGN_OR_RETURN(q.group.key_expr, p.ParseExpr());
      if (!p.AcceptKeyword("WITH")) return p.error("expected 'with'");
      while (true) {
        AX_ASSIGN_OR_RETURN(std::string v, p.ExpectIdentifier());
        q.group.with_vars.push_back(std::move(v));
        if (!p.AcceptSymbol(",")) break;
      }
      continue;
    }
    if (p.AcceptKeyword("ORDER")) {
      if (!p.AcceptKeyword("BY")) return p.error("expected 'by' after order");
      while (true) {
        AX_ASSIGN_OR_RETURN(ExprNodePtr e, p.ParseExpr());
        bool asc = true;
        if (p.AcceptKeyword("DESC")) {
          asc = false;
        } else {
          (void)p.AcceptKeyword("ASC");
        }
        q.order_by.emplace_back(std::move(e), asc);
        if (!p.AcceptSymbol(",")) break;
      }
      continue;
    }
    if (p.AcceptKeyword("LIMIT")) {
      AX_ASSIGN_OR_RETURN(ExprNodePtr e, p.ParseExpr());
      if (e->kind != ExprNodeKind::kLiteral || !e->literal.is_int() ||
          e->literal.AsInt() < 0) {
        return p.error("limit must be a non-negative integer literal");
      }
      q.limit = e->literal.AsInt();
      if (p.AcceptKeyword("OFFSET")) {
        AX_ASSIGN_OR_RETURN(ExprNodePtr o, p.ParseExpr());
        if (o->kind != ExprNodeKind::kLiteral || !o->literal.is_int() ||
            o->literal.AsInt() < 0) {
          return p.error("offset must be a non-negative integer literal");
        }
        q.offset = o->literal.AsInt();
      }
      continue;
    }
    if (p.AcceptKeyword("RETURN")) {
      AX_ASSIGN_OR_RETURN(q.ret, p.ParseExpr());
      break;
    }
    return p.error("expected for/let/where/group/order/limit/return");
  }
  if (!p.AtEnd()) return p.error("trailing tokens after return expression");
  return q;
}

}  // namespace

Result<TranslatedAql> TranslateAql(const std::string& query,
                                   const algebricks::Catalog& catalog) {
  AX_ASSIGN_OR_RETURN(FlworQuery q, ParseFlwor(query));
  sqlpp::Translator translator(&catalog);  // shared expression lowering

  std::vector<std::pair<std::string, VarId>> scope;
  auto bind = [&](const std::string& name, VarId v) {
    for (auto& [n, existing] : scope) {
      if (n == name) {
        existing = v;
        return;
      }
    }
    scope.emplace_back(name, v);
  };

  LogicalOpPtr plan = LogicalOp::Make(LogicalOpKind::kEmptySource);
  bool have_source = false;

  for (const auto& fc : q.fors) {
    VarId v = translator.AllocateVar();
    if (!fc.dataset.empty()) {
      if (!catalog.HasDataset(fc.dataset)) {
        return Status::NotFound("no dataset '" + fc.dataset + "'");
      }
      auto scan = LogicalOp::Make(LogicalOpKind::kDataScan);
      scan->dataset = fc.dataset;
      scan->scan_var = v;
      if (!have_source) {
        plan = scan;
      } else {
        auto join = LogicalOp::Make(LogicalOpKind::kJoin);
        join->join_kind = algebricks::JoinKind::kInner;
        join->condition = Expr::Constant(adm::Value::Boolean(true));
        join->children = {plan, scan};
        plan = join;
      }
    } else {
      AX_ASSIGN_OR_RETURN(ExprPtr coll,
                          translator.TranslateWithBindings(
                              RewriteCollAggs(fc.expr), scope));
      auto unnest = LogicalOp::Make(LogicalOpKind::kUnnest);
      unnest->unnest_var = v;
      unnest->unnest_expr = std::move(coll);
      unnest->children = {plan};
      plan = unnest;
    }
    bind(fc.var, v);
    have_source = true;
  }

  for (const auto& lc : q.lets) {
    AX_ASSIGN_OR_RETURN(
        ExprPtr e, translator.TranslateWithBindings(RewriteCollAggs(lc.expr),
                                                    scope));
    VarId v = translator.AllocateVar();
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    a->assigns.emplace_back(v, std::move(e));
    a->children = {plan};
    plan = a;
    bind(lc.var, v);
  }

  if (q.where) {
    AX_ASSIGN_OR_RETURN(
        ExprPtr cond, translator.TranslateWithBindings(
                          RewriteCollAggs(q.where), scope));
    auto sel = LogicalOp::Make(LogicalOpKind::kSelect);
    sel->condition = std::move(cond);
    sel->children = {plan};
    plan = sel;
  }

  if (q.has_group) {
    auto group = LogicalOp::Make(LogicalOpKind::kGroupBy);
    group->children = {plan};
    AX_ASSIGN_OR_RETURN(
        ExprPtr key, translator.TranslateWithBindings(
                         RewriteCollAggs(q.group.key_expr), scope));
    VarId key_var = translator.AllocateVar();
    group->group_keys.emplace_back(key_var, std::move(key));
    std::vector<std::pair<std::string, VarId>> post_scope;
    post_scope.emplace_back(q.group.key_var, key_var);
    for (const auto& wv : q.group.with_vars) {
      // Collect the listed variable's values into an array per group.
      const VarId* src = nullptr;
      for (const auto& [n, v] : scope) {
        if (n == wv) src = &v;
      }
      if (src == nullptr) {
        return Status::InvalidArgument("group-by 'with' variable " + wv +
                                       " is not in scope");
      }
      LogicalOp::Agg agg;
      agg.var = translator.AllocateVar();
      agg.kind = hyracks::AggKind::kCollect;
      agg.arg = Expr::Variable(*src);
      group->aggs.push_back(agg);
      post_scope.emplace_back(wv, agg.var);
    }
    plan = group;
    scope = std::move(post_scope);
  }

  for (const auto& lc : q.post_lets) {
    AX_ASSIGN_OR_RETURN(
        ExprPtr e, translator.TranslateWithBindings(RewriteCollAggs(lc.expr),
                                                    scope));
    VarId v = translator.AllocateVar();
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    a->assigns.emplace_back(v, std::move(e));
    a->children = {plan};
    plan = a;
    bind(lc.var, v);
  }

  // return expression -> result var.
  VarId result_var = translator.AllocateVar();
  {
    AX_ASSIGN_OR_RETURN(
        ExprPtr e,
        translator.TranslateWithBindings(RewriteCollAggs(q.ret), scope));
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    a->assigns.emplace_back(result_var, std::move(e));
    a->children = {plan};
    plan = a;
  }

  if (!q.order_by.empty()) {
    auto order = LogicalOp::Make(LogicalOpKind::kOrder);
    // Order keys may reference scope vars or the return value; translate
    // in the current scope.
    for (const auto& [e, asc] : q.order_by) {
      AX_ASSIGN_OR_RETURN(
          ExprPtr key,
          translator.TranslateWithBindings(RewriteCollAggs(e), scope));
      order->order_keys.push_back({std::move(key), asc});
    }
    order->children = {plan};
    plan = order;
  }
  if (q.limit >= 0) {
    auto lim = LogicalOp::Make(LogicalOpKind::kLimit);
    lim->limit = q.limit;
    lim->offset = q.offset;
    lim->children = {plan};
    plan = lim;
  }

  auto proj = LogicalOp::Make(LogicalOpKind::kProject);
  proj->project_vars = {result_var};
  proj->children = {plan};

  TranslatedAql out;
  out.plan = proj;
  out.result_var = result_var;
  return out;
}

}  // namespace asterix::aql
