#include "algebricks/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>

#include "algebricks/compiler.h"

namespace asterix::algebricks {

namespace {

bool IsDeterministic(const std::string& fn) {
  return fn != "current-datetime";
}

// ---------------------------------------------------------------------------
// Constant folding (expression-level)
// ---------------------------------------------------------------------------
Result<ExprPtr> FoldExpr(const ExprPtr& e, const FunctionRegistry& registry) {
  if (e->kind != ExprKind::kCall) return e;
  bool all_const = true;
  std::vector<ExprPtr> folded_args;
  folded_args.reserve(e->args.size());
  for (const auto& a : e->args) {
    AX_ASSIGN_OR_RETURN(ExprPtr fa, FoldExpr(a, registry));
    all_const = all_const && fa->kind == ExprKind::kConstant;
    folded_args.push_back(std::move(fa));
  }
  ExprPtr call = Expr::Call(e->fn, std::move(folded_args));
  if (all_const && IsDeterministic(e->fn) && registry.Contains(e->fn)) {
    auto v = EvaluateConst(call, registry);
    if (v.ok()) return Expr::Constant(std::move(v).value());
  }
  return call;
}

Status FoldAllExprs(const LogicalOpPtr& op, const FunctionRegistry& registry) {
  for (const auto& c : op->children) AX_RETURN_NOT_OK(FoldAllExprs(c, registry));
  auto fold = [&](ExprPtr* e) -> Status {
    if (*e) {
      AX_ASSIGN_OR_RETURN(*e, FoldExpr(*e, registry));
    }
    return Status::OK();
  };
  AX_RETURN_NOT_OK(fold(&op->condition));
  AX_RETURN_NOT_OK(fold(&op->unnest_expr));
  AX_RETURN_NOT_OK(fold(&op->search_lo));
  AX_RETURN_NOT_OK(fold(&op->search_hi));
  AX_RETURN_NOT_OK(fold(&op->residual));
  for (auto& [v, e] : op->assigns) AX_RETURN_NOT_OK(fold(&e));
  for (auto& [v, e] : op->group_keys) AX_RETURN_NOT_OK(fold(&e));
  for (auto& a : op->aggs) AX_RETURN_NOT_OK(fold(&a.arg));
  for (auto& k : op->order_keys) AX_RETURN_NOT_OK(fold(&k.expr));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Select push-down
// ---------------------------------------------------------------------------

LogicalOpPtr MakeSelect(ExprPtr cond, LogicalOpPtr child) {
  auto sel = LogicalOp::Make(LogicalOpKind::kSelect);
  sel->condition = std::move(cond);
  sel->children = {std::move(child)};
  return sel;
}

// Push one conjunct as deep as possible into `op`'s subtree; returns the
// node that now owns it, or null if it couldn't be placed below `op`
// (caller must keep a select above).
bool TryPush(const ExprPtr& conjunct, LogicalOpPtr* op_ref) {
  LogicalOp* op = op_ref->get();
  switch (op->kind) {
    case LogicalOpKind::kAssign: {
      // Below the assign if it doesn't use assigned vars.
      std::vector<VarId> below = op->children[0]->schema();
      if (conjunct->UsesOnly(below)) {
        if (!TryPush(conjunct, &op->children[0])) {
          op->children[0] = MakeSelect(conjunct, op->children[0]);
        }
        return true;
      }
      return false;
    }
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kOrder: {
      if (!TryPush(conjunct, &op->children[0])) {
        op->children[0] = MakeSelect(conjunct, op->children[0]);
      }
      return true;
    }
    case LogicalOpKind::kUnnest: {
      std::vector<VarId> below = op->children[0]->schema();
      if (conjunct->UsesOnly(below)) {
        if (!TryPush(conjunct, &op->children[0])) {
          op->children[0] = MakeSelect(conjunct, op->children[0]);
        }
        return true;
      }
      return false;
    }
    case LogicalOpKind::kJoin: {
      std::vector<VarId> left = op->children[0]->schema();
      std::vector<VarId> right = op->children[1]->schema();
      if (conjunct->UsesOnly(left)) {
        if (!TryPush(conjunct, &op->children[0])) {
          op->children[0] = MakeSelect(conjunct, op->children[0]);
        }
        return true;
      }
      // Pushing into the right (inner) branch of a left-outer join would
      // change semantics; attach to the join condition instead.
      if (op->join_kind == JoinKind::kInner && conjunct->UsesOnly(right)) {
        if (!TryPush(conjunct, &op->children[1])) {
          op->children[1] = MakeSelect(conjunct, op->children[1]);
        }
        return true;
      }
      if (op->join_kind == JoinKind::kInner) {
        // Uses both sides: fold into the join condition.
        std::vector<ExprPtr> conjuncts;
        if (op->condition) SplitConjuncts(op->condition, &conjuncts);
        conjuncts.push_back(conjunct);
        op->condition = AndAll(std::move(conjuncts));
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// One pass: find Select nodes, split their conjuncts, push each down.
void PushSelectsOnce(LogicalOpPtr* op_ref, bool* changed) {
  LogicalOp* op = op_ref->get();
  for (auto& c : op->children) PushSelectsOnce(&c, changed);
  if (op->kind != LogicalOpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(op->condition, &conjuncts);
  std::vector<ExprPtr> kept;
  for (const auto& cj : conjuncts) {
    if (TryPush(cj, &op->children[0])) {
      *changed = true;
    } else {
      kept.push_back(cj);
    }
  }
  if (kept.empty()) {
    *op_ref = op->children[0];
    *changed = true;
  } else if (kept.size() != conjuncts.size()) {
    op->condition = AndAll(std::move(kept));
  }
}

// ---------------------------------------------------------------------------
// Singleton cross-join inlining
// ---------------------------------------------------------------------------

// True when `op` is a chain of kAssign over kEmptySource — cardinality is
// exactly one tuple (the WITH-clause shape).
bool IsSingletonAssignChain(const LogicalOpPtr& op,
                            std::vector<LogicalOpPtr>* assigns) {
  if (op->kind == LogicalOpKind::kEmptySource) return true;
  if (op->kind != LogicalOpKind::kAssign) return false;
  if (!IsSingletonAssignChain(op->children[0], assigns)) return false;
  assigns->push_back(op);
  return true;
}

// Join(inner, true, singleton, X) -> X with the singleton's assigns stacked
// on top. Removes the degenerate cross join WITH clauses produce — which
// would otherwise force a keyless (single-bucket) hash join.
void InlineSingletonCrossJoins(LogicalOpPtr* op_ref, bool* changed) {
  for (auto& c : (*op_ref)->children) InlineSingletonCrossJoins(&c, changed);
  LogicalOp* op = op_ref->get();
  if (op->kind != LogicalOpKind::kJoin ||
      op->join_kind != JoinKind::kInner) {
    return;
  }
  bool trivially_true =
      op->condition == nullptr ||
      (op->condition->kind == ExprKind::kConstant &&
       op->condition->constant.is_boolean() && op->condition->constant.AsBool());
  if (!trivially_true) return;
  for (int side = 0; side < 2; side++) {
    std::vector<LogicalOpPtr> assigns;
    if (!IsSingletonAssignChain(op->children[static_cast<size_t>(side)],
                                &assigns)) {
      continue;
    }
    LogicalOpPtr result = op->children[static_cast<size_t>(1 - side)];
    // Restack the singleton's assigns (in original order) over the
    // surviving child; they reference no variables of that child.
    for (const auto& a : assigns) {
      auto stacked = LogicalOp::Make(LogicalOpKind::kAssign);
      stacked->assigns = a->assigns;
      stacked->children = {result};
      result = stacked;
    }
    *op_ref = result;
    *changed = true;
    return;
  }
}

// ---------------------------------------------------------------------------
// Index access-path selection
// ---------------------------------------------------------------------------

// A two-argument call of field-access($var, "f") and a constant, in either
// operand order; `mirrored`, when given, is set for the constant first.
bool MatchFieldAndConst(const ExprPtr& cj, VarId var, std::string* field,
                        ExprPtr* cst, bool* mirrored = nullptr) {
  if (cj->kind != ExprKind::kCall || cj->args.size() != 2) return false;
  for (int first : {0, 1}) {
    const ExprPtr& other = cj->args[1 - first];
    const std::string* f = MatchFieldAccess(cj->args[first], var);
    if (f != nullptr && other->kind == ExprKind::kConstant) {
      *field = *f;
      *cst = other;
      if (mirrored != nullptr) *mirrored = first == 1;
      return true;
    }
  }
  return false;
}

// A comparison conjunct field-access($var, "f") OP const, in either operand
// order, read field-first: const OP field becomes field Mirror(OP) const.
struct FieldCmp {
  std::string field;
  adm::CmpOp op = adm::CmpOp::kEq;
  ExprPtr constant;
};

std::optional<FieldCmp> MatchFieldCmp(const ExprPtr& cj, VarId var) {
  std::optional<adm::CmpOp> op = adm::CmpOpNamed(cj->fn);
  FieldCmp m;
  bool mirrored = false;
  if (!op || !MatchFieldAndConst(cj, var, &m.field, &m.constant, &mirrored)) {
    return std::nullopt;
  }
  m.op = mirrored ? adm::Mirror(*op) : *op;
  return m;
}

struct PathChoice {
  AccessPathKind path;
  std::string index_name;
  ExprPtr lo, hi;  // constant bounds
};

// Inspect one conjunct for an indexable pattern on `var`.
bool MatchConjunct(const ExprPtr& cj, VarId var, const Catalog& catalog,
                   const std::string& dataset, PathChoice* out) {
  if (cj->kind != ExprKind::kCall) return false;
  const std::string& fn = cj->fn;
  std::string pk = catalog.PrimaryKeyField(dataset);
  auto indexes = catalog.SecondaryIndexes(dataset);

  auto classify = [&](const std::string& field, Catalog::IndexInfo::Kind kind,
                      std::string* index_name) {
    if (kind == Catalog::IndexInfo::kBTree && field == pk) {
      index_name->clear();
      return true;
    }
    for (const auto& ix : indexes) {
      if (ix.kind == kind && ix.field == field) {
        *index_name = ix.name;
        return true;
      }
    }
    return false;
  };

  if (std::optional<FieldCmp> m = MatchFieldCmp(cj, var)) {
    if (m->op == adm::CmpOp::kNeq) return false;  // no index answers !=
    std::string index_name;
    if (!classify(m->field, Catalog::IndexInfo::kBTree, &index_name)) {
      return false;
    }
    out->path = !index_name.empty()        ? AccessPathKind::kSecondaryBTree
                : m->op == adm::CmpOp::kEq ? AccessPathKind::kPrimaryLookup
                                           : AccessPathKind::kPrimaryRange;
    out->index_name = index_name;
    if (m->op != adm::CmpOp::kGt && m->op != adm::CmpOp::kGe) {
      out->hi = m->constant;
    }
    if (m->op != adm::CmpOp::kLt && m->op != adm::CmpOp::kLe) {
      out->lo = m->constant;
    }
    return true;
  }
  std::string field;
  ExprPtr query;
  if (fn == "spatial-intersect" &&
      MatchFieldAndConst(cj, var, &field, &query)) {
    std::string index_name;
    if (!classify(field, Catalog::IndexInfo::kRTree, &index_name)) return false;
    out->path = AccessPathKind::kRTree;
    out->index_name = index_name;
    out->lo = out->hi = query;
    return true;
  }
  if (fn == "ftcontains" && cj->args.size() == 2) {
    const std::string* text_field = MatchFieldAccess(cj->args[0], var);
    if (text_field == nullptr) return false;
    if (cj->args[1]->kind != ExprKind::kConstant ||
        !cj->args[1]->constant.is_string()) {
      return false;
    }
    std::string index_name;
    if (!classify(*text_field, Catalog::IndexInfo::kKeyword, &index_name)) {
      return false;
    }
    out->path = AccessPathKind::kKeyword;
    out->index_name = index_name;
    out->lo = out->hi = cj->args[1];
    return true;
  }
  return false;
}

// A scan over an internal dataset: only those lower onto the LSM scan that
// honors pushed predicates and projections (external scans read files).
bool IsInternalScan(const LogicalOp& op, const Catalog& catalog) {
  return op.kind == LogicalOpKind::kDataScan &&
         catalog.HasDataset(op.dataset) &&
         !catalog.PrimaryKeyField(op.dataset).empty();
}

// Select directly above a DataScan -> IndexSearch when a conjunct matches.
void IntroduceIndexSearches(LogicalOpPtr* op_ref, const Catalog& catalog,
                            bool sort_pks, bool* changed) {
  LogicalOp* op = op_ref->get();
  for (auto& c : op->children) {
    IntroduceIndexSearches(&c, catalog, sort_pks, changed);
  }
  if (op->kind != LogicalOpKind::kSelect) return;
  LogicalOpPtr child = op->children[0];
  if (!IsInternalScan(*child, catalog)) return;

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(op->condition, &conjuncts);
  PathChoice choice;
  int match_idx = -1;
  for (size_t i = 0; i < conjuncts.size(); i++) {
    if (MatchConjunct(conjuncts[i], child->scan_var, catalog, child->dataset,
                      &choice)) {
      match_idx = static_cast<int>(i);
      break;
    }
  }
  if (match_idx < 0) return;

  auto search = LogicalOp::Make(LogicalOpKind::kIndexSearch);
  search->dataset = child->dataset;
  search->scan_var = child->scan_var;
  search->access_path = choice.path;
  search->index_name = choice.index_name;
  search->search_lo = choice.lo;
  search->search_hi = choice.hi;
  search->sort_pks_before_fetch = sort_pks;
  // Keep the full predicate as a residual select above the search: the
  // index prunes, the select guarantees exactness (range bounds are
  // inclusive approximations for spatial/keyword paths).
  *op_ref = MakeSelect(op->condition, search);
  *changed = true;
}

// ---------------------------------------------------------------------------
// Scan pushdown (paper §VII: columnar storage)
// ---------------------------------------------------------------------------

// Absorb comparison conjuncts of a Select sitting directly over an internal
// DataScan into the scan itself (field OP constant, either operand order).
// The scan evaluates them before materializing tuples with identical SQL++
// semantics, so absorbed conjuncts leave the Select — and the Select
// disappears entirely when nothing remains.
void PushScanPredicates(LogicalOpPtr* op_ref, const Catalog& catalog,
                        bool* changed) {
  LogicalOp* op = op_ref->get();
  for (auto& c : op->children) PushScanPredicates(&c, catalog, changed);
  if (op->kind != LogicalOpKind::kSelect) return;
  LogicalOpPtr child = op->children[0];
  if (!IsInternalScan(*child, catalog)) return;

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(op->condition, &conjuncts);
  std::vector<ExprPtr> kept;
  for (const auto& cj : conjuncts) {
    std::optional<FieldCmp> m = MatchFieldCmp(cj, child->scan_var);
    if (!m) {
      kept.push_back(cj);
      continue;
    }
    child->scan_predicates.push_back({m->field, m->op, m->constant->constant});
    *changed = true;
  }
  if (kept.empty()) {
    *op_ref = child;
  } else if (kept.size() != conjuncts.size()) {
    op->condition = AndAll(std::move(kept));
  }
}

// Record how a scan variable is consumed: field-access($var, "f") against a
// constant name contributes the field; any other reference (a bare $var, a
// computed field name, DISTINCT over the record) demands the whole record.
void CollectFieldUses(const ExprPtr& e, VarId var,
                      std::set<std::string>* fields, bool* whole) {
  if (!e) return;
  if (e->kind == ExprKind::kVariable) {
    if (e->var == var) *whole = true;
    return;
  }
  if (const std::string* field = MatchFieldAccess(e, var)) {
    fields->insert(*field);
    return;
  }
  for (const auto& a : e->args) CollectFieldUses(a, var, fields, whole);
}

void CollectFieldUsesInPlan(const LogicalOp& op, VarId var,
                            std::set<std::string>* fields, bool* whole) {
  auto take = [&](const ExprPtr& e) { CollectFieldUses(e, var, fields, whole); };
  take(op.condition);
  take(op.unnest_expr);
  take(op.search_lo);
  take(op.search_hi);
  take(op.residual);
  for (const auto& [v, e] : op.assigns) take(e);
  for (const auto& [v, e] : op.group_keys) take(e);
  for (const auto& a : op.aggs) take(a.arg);
  for (const auto& k : op.order_keys) take(k.expr);
  for (VarId v : op.project_vars) {
    if (v == var) *whole = true;
  }
  if (op.kind == LogicalOpKind::kDistinct) {
    // Distinct compares full records: pruning would conflate rows that
    // differ only in unprojected fields.
    for (VarId v : op.children[0]->schema()) {
      if (v == var) *whole = true;
    }
  }
  for (const auto& c : op.children) CollectFieldUsesInPlan(*c, var, fields, whole);
}

void FindDataScans(const LogicalOpPtr& op, std::vector<LogicalOp*>* scans) {
  if (op->kind == LogicalOpKind::kDataScan) scans->push_back(op.get());
  for (const auto& c : op->children) FindDataScans(c, scans);
}

// For every internal DataScan whose variable is consumed only through
// constant field accesses, push the accessed field set into the scan so the
// runtime prunes every record to it (and a columnar component reads only
// those columns). Runs last (after dead-assign removal) so the analysis
// sees the minimal plan.
void ComputeScanProjections(const LogicalOpPtr& root, const Catalog& catalog,
                            bool* changed) {
  std::vector<LogicalOp*> scans;
  FindDataScans(root, &scans);
  for (LogicalOp* scan : scans) {
    if (!IsInternalScan(*scan, catalog)) continue;
    bool whole = false;
    std::set<std::string> fields;
    CollectFieldUsesInPlan(*root, scan->scan_var, &fields, &whole);
    for (VarId v : root->schema()) {
      if (v == scan->scan_var) whole = true;  // the record itself is output
    }
    if (whole) continue;
    scan->scan_fields.assign(fields.begin(), fields.end());
    scan->scan_fields_pushed = true;
    *changed = true;
  }
}

// ---------------------------------------------------------------------------
// Dead assign elimination
// ---------------------------------------------------------------------------

void CollectUsedVars(const LogicalOp& op, std::set<VarId>* used) {
  auto take = [&](const ExprPtr& e) {
    if (!e) return;
    std::vector<VarId> vars;
    e->CollectVars(&vars);
    used->insert(vars.begin(), vars.end());
  };
  take(op.condition);
  take(op.unnest_expr);
  take(op.search_lo);
  take(op.search_hi);
  take(op.residual);
  for (const auto& [v, e] : op.assigns) take(e);
  for (const auto& [v, e] : op.group_keys) take(e);
  for (const auto& a : op.aggs) take(a.arg);
  for (const auto& k : op.order_keys) take(k.expr);
  for (VarId v : op.project_vars) used->insert(v);
  for (const auto& c : op.children) CollectUsedVars(*c, used);
}

void RemoveDeadAssigns(const LogicalOpPtr& root, bool* changed) {
  std::set<VarId> used;
  CollectUsedVars(*root, &used);
  // Root outputs are always live.
  for (VarId v : root->schema()) used.insert(v);

  std::function<void(const LogicalOpPtr&)> walk = [&](const LogicalOpPtr& op) {
    for (const auto& c : op->children) walk(c);
    if (op->kind != LogicalOpKind::kAssign) return;
    auto before = op->assigns.size();
    op->assigns.erase(
        std::remove_if(op->assigns.begin(), op->assigns.end(),
                       [&](const auto& p) { return used.count(p.first) == 0; }),
        op->assigns.end());
    if (op->assigns.size() != before) *changed = true;
  };
  walk(root);
}

// Remove now-empty assigns (no bindings left).
void PruneEmptyAssigns(LogicalOpPtr* op_ref, bool* changed) {
  for (auto& c : (*op_ref)->children) PruneEmptyAssigns(&c, changed);
  LogicalOp* op = op_ref->get();
  if (op->kind == LogicalOpKind::kAssign && op->assigns.empty()) {
    *op_ref = op->children[0];
    *changed = true;
  }
}

}  // namespace

Result<LogicalOpPtr> Optimize(LogicalOpPtr root, const Catalog& catalog,
                              const OptimizerOptions& options,
                              const FunctionRegistry& registry) {
  if (options.constant_folding) {
    AX_RETURN_NOT_OK(FoldAllExprs(root, registry));
  }
  {
    // Always-on structural cleanup: degenerate singleton cross joins from
    // WITH clauses become stacked assigns.
    bool changed = false;
    InlineSingletonCrossJoins(&root, &changed);
  }
  if (options.select_pushdown) {
    for (int iter = 0; iter < 8; iter++) {
      bool changed = false;
      PushSelectsOnce(&root, &changed);
      if (!changed) break;
    }
  }
  if (options.index_selection) {
    bool changed = false;
    IntroduceIndexSearches(&root, catalog, options.sort_pks_before_fetch,
                           &changed);
  }
  if (options.scan_pushdown) {
    // After index selection on purpose: an indexable conjunct becomes an
    // IndexSearch first; only scans with no access path absorb predicates.
    bool changed = false;
    PushScanPredicates(&root, catalog, &changed);
  }
  if (options.dead_assign_elimination) {
    for (int iter = 0; iter < 4; iter++) {
      bool changed = false;
      RemoveDeadAssigns(root, &changed);
      PruneEmptyAssigns(&root, &changed);
      if (!changed) break;
    }
  }
  if (options.scan_pushdown) {
    bool changed = false;
    ComputeScanProjections(root, catalog, &changed);
  }
  return root;
}

}  // namespace asterix::algebricks
