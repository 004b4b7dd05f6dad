#include "sqlpp/translator.h"

#include <algorithm>
#include <functional>
#include <map>

namespace asterix::sqlpp {

namespace {
using namespace ast;
using algebricks::Expr;
using algebricks::ExprPtr;
using algebricks::LogicalOp;
using algebricks::LogicalOpKind;
using algebricks::LogicalOpPtr;
using algebricks::VarId;

bool IsAggFn(const std::string& fn) {
  return fn == "count" || fn == "count-star" || fn == "sum" || fn == "min" ||
         fn == "max" || fn == "avg" || fn == "array-agg";
}

hyracks::AggKind AggKindOf(const std::string& fn) {
  if (fn == "count" || fn == "count-star") return hyracks::AggKind::kCount;
  if (fn == "sum") return hyracks::AggKind::kSum;
  if (fn == "min") return hyracks::AggKind::kMin;
  if (fn == "max") return hyracks::AggKind::kMax;
  if (fn == "avg") return hyracks::AggKind::kAvg;
  return hyracks::AggKind::kCollect;
}

// Structural AST equality — used to recognize SELECT/ORDER expressions that
// syntactically match a GROUP BY key (SQL semantics: such references
// resolve to the grouping key).
bool AstEquals(const ExprNodePtr& a, const ExprNodePtr& b) {
  if (a == b) return true;
  if (!a || !b || a->kind != b->kind) return false;
  switch (a->kind) {
    case ExprNodeKind::kLiteral:
      return a->literal == b->literal;
    case ExprNodeKind::kIdent:
      return a->ident == b->ident;
    case ExprNodeKind::kFieldAccess:
      return a->field == b->field && AstEquals(a->base, b->base);
    case ExprNodeKind::kIndexAccess:
      return AstEquals(a->base, b->base) && AstEquals(a->index, b->index);
    case ExprNodeKind::kCall: {
      if (a->fn != b->fn || a->args.size() != b->args.size()) return false;
      for (size_t i = 0; i < a->args.size(); i++) {
        if (!AstEquals(a->args[i], b->args[i])) return false;
      }
      return true;
    }
    default:
      return false;  // conservatively unequal for complex nodes
  }
}

bool ContainsAgg(const ExprNodePtr& e) {
  if (!e) return false;
  if (e->kind == ExprNodeKind::kCall && IsAggFn(e->fn)) return true;
  auto any = [](const std::vector<ExprNodePtr>& v) {
    for (const auto& x : v) {
      if (ContainsAgg(x)) return true;
    }
    return false;
  };
  if (any(e->args) || any(e->items)) return true;
  for (const auto& [n, v] : e->obj_fields) {
    if (ContainsAgg(v)) return true;
  }
  return ContainsAgg(e->base) || ContainsAgg(e->index) ||
         ContainsAgg(e->collection) || ContainsAgg(e->predicate);
}
}  // namespace

struct Translator::Scope {
  const Scope* parent = nullptr;
  std::map<std::string, VarId> bindings;

  const VarId* Find(const std::string& name) const {
    auto it = bindings.find(name);
    if (it != bindings.end()) return &it->second;
    return parent ? parent->Find(name) : nullptr;
  }
  void Bind(const std::string& name, VarId v) { bindings[name] = v; }
  std::vector<std::pair<std::string, VarId>> Visible() const {
    std::vector<std::pair<std::string, VarId>> out;
    if (parent) out = parent->Visible();
    for (const auto& [n, v] : bindings) {
      bool shadowed = false;
      for (auto& [on, ov] : out) {
        if (on == n) {
          ov = v;
          shadowed = true;
        }
      }
      if (!shadowed) out.emplace_back(n, v);
    }
    return out;
  }
};

Result<ExprPtr> Translator::TranslateExpr(const ExprNodePtr& e,
                                          const Scope& scope) {
  switch (e->kind) {
    case ExprNodeKind::kLiteral:
      return Expr::Constant(e->literal);
    case ExprNodeKind::kIdent: {
      const VarId* v = scope.Find(e->ident);
      if (v == nullptr) {
        return Status::InvalidArgument("unresolved identifier '" + e->ident +
                                       "'");
      }
      return Expr::Variable(*v);
    }
    case ExprNodeKind::kFieldAccess: {
      AX_ASSIGN_OR_RETURN(ExprPtr base, TranslateExpr(e->base, scope));
      return Expr::Field(std::move(base), e->field);
    }
    case ExprNodeKind::kIndexAccess: {
      AX_ASSIGN_OR_RETURN(ExprPtr base, TranslateExpr(e->base, scope));
      AX_ASSIGN_OR_RETURN(ExprPtr idx, TranslateExpr(e->index, scope));
      return Expr::Call("get-item", {std::move(base), std::move(idx)});
    }
    case ExprNodeKind::kCall: {
      if (IsAggFn(e->fn)) {
        return Status::InvalidArgument(
            "aggregate function '" + e->fn +
            "' used outside SELECT/HAVING of a grouped query");
      }
      std::vector<ExprPtr> args;
      for (const auto& a : e->args) {
        AX_ASSIGN_OR_RETURN(ExprPtr ta, TranslateExpr(a, scope));
        args.push_back(std::move(ta));
      }
      return Expr::Call(e->fn, std::move(args));
    }
    case ExprNodeKind::kObject: {
      std::vector<ExprPtr> args;
      for (const auto& [name, v] : e->obj_fields) {
        args.push_back(Expr::Constant(adm::Value::String(name)));
        AX_ASSIGN_OR_RETURN(ExprPtr tv, TranslateExpr(v, scope));
        args.push_back(std::move(tv));
      }
      return Expr::Call("open-record", std::move(args));
    }
    case ExprNodeKind::kArray:
    case ExprNodeKind::kMultiset: {
      std::vector<ExprPtr> args;
      for (const auto& item : e->items) {
        AX_ASSIGN_OR_RETURN(ExprPtr ti, TranslateExpr(item, scope));
        args.push_back(std::move(ti));
      }
      return Expr::Call(
          e->kind == ExprNodeKind::kArray ? "ordered-list" : "unordered-list",
          std::move(args));
    }
    case ExprNodeKind::kCase: {
      std::vector<ExprPtr> args;
      for (const auto& a : e->args) {
        AX_ASSIGN_OR_RETURN(ExprPtr ta, TranslateExpr(a, scope));
        args.push_back(std::move(ta));
      }
      return Expr::Call("switch-case", std::move(args));
    }
    case ExprNodeKind::kQuantified: {
      AX_ASSIGN_OR_RETURN(ExprPtr coll, TranslateExpr(e->collection, scope));
      VarId bound = NewVar();
      Scope inner;
      inner.parent = &scope;
      inner.Bind(e->bound_name, bound);
      AX_ASSIGN_OR_RETURN(ExprPtr pred, TranslateExpr(e->predicate, inner));
      return Expr::Quantified(e->some, bound, std::move(coll), std::move(pred));
    }
    case ExprNodeKind::kExists: {
      AX_ASSIGN_OR_RETURN(ExprPtr coll, TranslateExpr(e->collection, scope));
      return Expr::Call("gt", {Expr::Call("coll-count", {std::move(coll)}),
                               Expr::Constant(adm::Value::Int(0))});
    }
    case ExprNodeKind::kSubquery:
      return Status::NotSupported(
          "general subqueries are not supported in this dialect subset");
  }
  return Status::Internal("bad AST node");
}

Result<algebricks::ExprPtr> Translator::TranslateScalar(
    const ast::ExprNodePtr& e) {
  return TranslateExpr(e, Scope());
}

Result<algebricks::ExprPtr> Translator::TranslateWithBindings(
    const ast::ExprNodePtr& e,
    const std::vector<std::pair<std::string, algebricks::VarId>>& bindings) {
  Scope scope;
  for (const auto& [name, var] : bindings) scope.Bind(name, var);
  return TranslateExpr(e, scope);
}

Result<TranslatedQuery> Translator::TranslateQuery(const ast::SelectQuery& q) {
  return TranslateQueryScoped(q, nullptr);
}

Result<TranslatedQuery> Translator::TranslateQueryScoped(const SelectQuery& q,
                                                         const Scope* outer) {
  Scope scope;
  scope.parent = outer;
  LogicalOpPtr plan = LogicalOp::Make(LogicalOpKind::kEmptySource);

  auto add_assign = [&](VarId var, ExprPtr expr) {
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    a->assigns.emplace_back(var, std::move(expr));
    a->children = {plan};
    plan = a;
  };

  // --- WITH ------------------------------------------------------------------
  for (const auto& [name, e] : q.with) {
    AX_ASSIGN_OR_RETURN(ExprPtr te, TranslateExpr(e, scope));
    VarId v = NewVar();
    add_assign(v, std::move(te));
    scope.Bind(name, v);
  }

  // --- FROM ------------------------------------------------------------------
  bool have_source = false;
  for (const auto& fc : q.froms) {
    bool is_dataset = fc.expr->kind == ExprNodeKind::kIdent &&
                      catalog_->HasDataset(fc.expr->ident);
    VarId v = NewVar();
    if (is_dataset) {
      auto scan = LogicalOp::Make(LogicalOpKind::kDataScan);
      scan->dataset = fc.expr->ident;
      scan->scan_var = v;
      if (!have_source && plan->kind == LogicalOpKind::kEmptySource) {
        plan = scan;
      } else {
        auto join = LogicalOp::Make(LogicalOpKind::kJoin);
        join->join_kind = fc.style == JoinStyle::kLeftOuter
                              ? algebricks::JoinKind::kLeftOuter
                              : algebricks::JoinKind::kInner;
        join->children = {plan, scan};
        if (fc.on) {
          Scope with_right;
          with_right.parent = &scope;
          with_right.Bind(fc.alias, v);
          AX_ASSIGN_OR_RETURN(join->condition,
                              TranslateExpr(fc.on, with_right));
        } else {
          join->condition = Expr::Constant(adm::Value::Boolean(true));
        }
        plan = join;
      }
    } else {
      if (fc.expr->kind == ExprNodeKind::kIdent &&
          scope.Find(fc.expr->ident) == nullptr) {
        return Status::NotFound("no dataset '" + fc.expr->ident + "'");
      }
      // Collection expression (possibly correlated): unnest.
      AX_ASSIGN_OR_RETURN(ExprPtr coll, TranslateExpr(fc.expr, scope));
      auto unnest = LogicalOp::Make(LogicalOpKind::kUnnest);
      unnest->unnest_var = v;
      unnest->unnest_expr = std::move(coll);
      unnest->unnest_outer = fc.style == JoinStyle::kLeftOuter;
      unnest->children = {plan};
      plan = unnest;
      if (fc.on) {
        AX_ASSIGN_OR_RETURN(ExprPtr cond, [&]() -> Result<ExprPtr> {
          Scope with_right;
          with_right.parent = &scope;
          with_right.Bind(fc.alias, v);
          return TranslateExpr(fc.on, with_right);
        }());
        auto sel = LogicalOp::Make(LogicalOpKind::kSelect);
        sel->condition = std::move(cond);
        sel->children = {plan};
        plan = sel;
      }
    }
    scope.Bind(fc.alias, v);
    have_source = true;
  }

  // --- LET -------------------------------------------------------------------
  for (const auto& [name, e] : q.lets) {
    AX_ASSIGN_OR_RETURN(ExprPtr te, TranslateExpr(e, scope));
    VarId v = NewVar();
    add_assign(v, std::move(te));
    scope.Bind(name, v);
  }

  // --- WHERE -----------------------------------------------------------------
  if (q.where) {
    // Split AST-level conjuncts so quantified predicates over datasets can
    // become semi-joins (the Fig. 3(c) SOME ... SATISFIES pattern).
    std::vector<ExprNodePtr> conjuncts;
    std::function<void(const ExprNodePtr&)> split = [&](const ExprNodePtr& n) {
      if (n->kind == ExprNodeKind::kCall && n->fn == "and") {
        for (const auto& a : n->args) split(a);
      } else {
        conjuncts.push_back(n);
      }
    };
    split(q.where);
    std::vector<ExprPtr> plain;
    for (const auto& cj : conjuncts) {
      if (cj->kind == ExprNodeKind::kQuantified && cj->some &&
          cj->collection->kind == ExprNodeKind::kIdent &&
          catalog_->HasDataset(cj->collection->ident)) {
        // SOME x IN Dataset SATISFIES p(x, outer)  ->  left semi-join.
        VarId bound = NewVar();
        auto scan = LogicalOp::Make(LogicalOpKind::kDataScan);
        scan->dataset = cj->collection->ident;
        scan->scan_var = bound;
        Scope inner;
        inner.parent = &scope;
        inner.Bind(cj->bound_name, bound);
        AX_ASSIGN_OR_RETURN(ExprPtr pred, TranslateExpr(cj->predicate, inner));
        auto join = LogicalOp::Make(LogicalOpKind::kJoin);
        join->join_kind = algebricks::JoinKind::kLeftSemi;
        join->condition = std::move(pred);
        join->children = {plan, scan};
        plan = join;
        continue;
      }
      AX_ASSIGN_OR_RETURN(ExprPtr te, TranslateExpr(cj, scope));
      plain.push_back(std::move(te));
    }
    if (!plain.empty()) {
      auto sel = LogicalOp::Make(LogicalOpKind::kSelect);
      sel->condition = algebricks::AndAll(std::move(plain));
      sel->children = {plan};
      plan = sel;
    }
  }

  // --- GROUP BY / aggregates ---------------------------------------------------
  bool has_group = !q.group_by.empty();
  bool has_agg = ContainsAgg(q.value_expr) || ContainsAgg(q.having);
  for (const auto& p : q.projections) has_agg = has_agg || ContainsAgg(p.expr);
  for (const auto& [e, asc] : q.order_by) has_agg = has_agg || ContainsAgg(e);

  LogicalOpPtr group_op;
  Scope post_group;  // replaces `scope` for post-aggregation clauses
  Scope* current = &scope;

  // Rewrites an AST expression in the post-group context: aggregate calls
  // get evaluated over the pre-group scope and replaced by agg variables.
  std::function<Result<ExprPtr>(const ExprNodePtr&)> translate_post =
      [&](const ExprNodePtr& e) -> Result<ExprPtr> {
    // An expression syntactically equal to a grouping key resolves to it.
    if (group_op) {
      for (size_t i = 0; i < q.group_by.size(); i++) {
        if (AstEquals(e, q.group_by[i].second)) {
          return Expr::Variable(group_op->group_keys[i].first);
        }
      }
    }
    if (e->kind == ExprNodeKind::kCall && IsAggFn(e->fn)) {
      LogicalOp::Agg agg;
      agg.var = NewVar();
      agg.kind = AggKindOf(e->fn);
      if (e->fn == "count-star" || e->args.empty()) {
        agg.arg = nullptr;
      } else {
        AX_ASSIGN_OR_RETURN(agg.arg, TranslateExpr(e->args[0], scope));
      }
      group_op->aggs.push_back(agg);
      return Expr::Variable(agg.var);
    }
    // Recurse structurally; non-agg identifiers resolve in post scope.
    switch (e->kind) {
      case ExprNodeKind::kLiteral:
      case ExprNodeKind::kIdent:
        return TranslateExpr(e, post_group);
      case ExprNodeKind::kFieldAccess: {
        AX_ASSIGN_OR_RETURN(ExprPtr base, translate_post(e->base));
        return Expr::Field(std::move(base), e->field);
      }
      case ExprNodeKind::kIndexAccess: {
        AX_ASSIGN_OR_RETURN(ExprPtr base, translate_post(e->base));
        AX_ASSIGN_OR_RETURN(ExprPtr idx, translate_post(e->index));
        return Expr::Call("get-item", {std::move(base), std::move(idx)});
      }
      case ExprNodeKind::kCall: {
        std::vector<ExprPtr> args;
        for (const auto& a : e->args) {
          AX_ASSIGN_OR_RETURN(ExprPtr ta, translate_post(a));
          args.push_back(std::move(ta));
        }
        return Expr::Call(e->fn, std::move(args));
      }
      case ExprNodeKind::kObject: {
        std::vector<ExprPtr> args;
        for (const auto& [name, v] : e->obj_fields) {
          args.push_back(Expr::Constant(adm::Value::String(name)));
          AX_ASSIGN_OR_RETURN(ExprPtr tv, translate_post(v));
          args.push_back(std::move(tv));
        }
        return Expr::Call("open-record", std::move(args));
      }
      case ExprNodeKind::kArray:
      case ExprNodeKind::kMultiset: {
        std::vector<ExprPtr> args;
        for (const auto& item : e->items) {
          AX_ASSIGN_OR_RETURN(ExprPtr ti, translate_post(item));
          args.push_back(std::move(ti));
        }
        return Expr::Call(e->kind == ExprNodeKind::kArray ? "ordered-list"
                                                          : "unordered-list",
                          std::move(args));
      }
      default:
        return TranslateExpr(e, post_group);
    }
  };

  if (has_group || has_agg) {
    group_op = LogicalOp::Make(LogicalOpKind::kGroupBy);
    group_op->children = {plan};
    for (const auto& [alias, e] : q.group_by) {
      AX_ASSIGN_OR_RETURN(ExprPtr te, TranslateExpr(e, scope));
      VarId v = NewVar();
      group_op->group_keys.emplace_back(v, std::move(te));
      if (!alias.empty()) post_group.Bind(alias, v);
    }
    if (!q.group_as.empty()) {
      // GROUP AS g: collect a record of all visible aliases per row.
      std::vector<ExprPtr> rec_args;
      for (const auto& [name, var] : scope.Visible()) {
        rec_args.push_back(Expr::Constant(adm::Value::String(name)));
        rec_args.push_back(Expr::Variable(var));
      }
      LogicalOp::Agg agg;
      agg.var = NewVar();
      agg.kind = hyracks::AggKind::kCollect;
      agg.arg = Expr::Call("open-record", std::move(rec_args));
      group_op->aggs.push_back(agg);
      post_group.Bind(q.group_as, agg.var);
    }
    plan = group_op;
    current = &post_group;
  }

  auto translate_clause = [&](const ExprNodePtr& e) -> Result<ExprPtr> {
    if (group_op) return translate_post(e);
    return TranslateExpr(e, *current);
  };

  // --- HAVING ---------------------------------------------------------------
  if (q.having) {
    AX_ASSIGN_OR_RETURN(ExprPtr cond, translate_clause(q.having));
    auto sel = LogicalOp::Make(LogicalOpKind::kSelect);
    sel->condition = std::move(cond);
    sel->children = {plan};
    plan = sel;
  }

  // --- SELECT ----------------------------------------------------------------
  VarId result_var = NewVar();
  Scope select_scope;  // projection aliases for ORDER BY
  select_scope.parent = current;
  if (q.select_value) {
    AX_ASSIGN_OR_RETURN(ExprPtr ve, translate_clause(q.value_expr));
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    a->assigns.emplace_back(result_var, std::move(ve));
    a->children = {plan};
    plan = a;
  } else {
    std::vector<ExprPtr> rec_args;
    auto a = LogicalOp::Make(LogicalOpKind::kAssign);
    for (const auto& p : q.projections) {
      if (p.star) {
        for (const auto& [name, var] : current->Visible()) {
          rec_args.push_back(Expr::Constant(adm::Value::String(name)));
          rec_args.push_back(Expr::Variable(var));
        }
        continue;
      }
      AX_ASSIGN_OR_RETURN(ExprPtr pe, translate_clause(p.expr));
      VarId pv = NewVar();
      a->assigns.emplace_back(pv, std::move(pe));
      select_scope.Bind(p.alias, pv);
      rec_args.push_back(Expr::Constant(adm::Value::String(p.alias)));
      rec_args.push_back(Expr::Variable(pv));
    }
    a->assigns.emplace_back(result_var,
                            Expr::Call("open-record", std::move(rec_args)));
    a->children = {plan};
    plan = a;
  }

  // --- DISTINCT --------------------------------------------------------------
  if (q.distinct) {
    auto proj = LogicalOp::Make(LogicalOpKind::kProject);
    proj->project_vars = {result_var};
    proj->children = {plan};
    auto dist = LogicalOp::Make(LogicalOpKind::kDistinct);
    dist->children = {proj};
    plan = dist;
  }

  // --- ORDER BY ---------------------------------------------------------------
  if (!q.order_by.empty()) {
    auto order = LogicalOp::Make(LogicalOpKind::kOrder);
    for (const auto& [e, asc] : q.order_by) {
      ExprPtr key;
      if (q.distinct) {
        // Post-distinct only the result record survives: rebind aliases to
        // field accesses on the result.
        if (e->kind == ExprNodeKind::kIdent) {
          key = Expr::Field(Expr::Variable(result_var), e->ident);
        } else {
          return Status::NotSupported(
              "ORDER BY after DISTINCT must reference select aliases");
        }
      } else if (group_op) {
        // Grouped query: try the post-group rewrite first; a bare alias
        // introduced by SELECT resolves via the projection scope.
        auto post = translate_post(e);
        if (post.ok()) {
          key = std::move(post).value();
        } else {
          AX_ASSIGN_OR_RETURN(key, TranslateExpr(e, select_scope));
        }
      } else {
        AX_ASSIGN_OR_RETURN(key, TranslateExpr(e, select_scope));
      }
      order->order_keys.push_back({std::move(key), asc});
    }
    order->children = {plan};
    plan = order;
  }

  // --- LIMIT -----------------------------------------------------------------
  if (q.limit >= 0) {
    auto lim = LogicalOp::Make(LogicalOpKind::kLimit);
    lim->limit = q.limit;
    lim->offset = q.offset;
    lim->children = {plan};
    plan = lim;
  }

  // --- final projection --------------------------------------------------------
  auto proj = LogicalOp::Make(LogicalOpKind::kProject);
  proj->project_vars = {result_var};
  proj->children = {plan};

  TranslatedQuery out;
  out.plan = proj;
  out.result_var = result_var;
  return out;
}

}  // namespace asterix::sqlpp
