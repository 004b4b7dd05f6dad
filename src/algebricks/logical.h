// Algebricks logical operators (paper Fig. 5: "Algebricks algebra" box).
// Language translators (SQL++/AQL) produce this tree; the rule-based
// rewriter (rules.h) normalizes and optimizes it; the asterix executor
// lowers it to partitioned Hyracks pipelines.
//
// Schema convention: every operator exposes `schema()` — the ordered list
// of live variables its output tuples carry; the position of a variable in
// that list is its tuple field position at runtime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebricks/expr.h"
#include "hyracks/groupby.h"
#include "hyracks/scan.h"

namespace asterix::algebricks {

enum class LogicalOpKind : uint8_t {
  kEmptySource,   // produces one empty tuple
  kDataScan,      // scan a dataset partition-parallel; binds one var
  kUnnest,        // binds var = each item of a collection expr
  kSelect,        // filter by condition expr
  kAssign,        // binds vars = scalar exprs
  kJoin,          // inner / left-outer / left-semi with condition
  kGroupBy,       // grouping keys + aggregates (+ optional GROUP AS)
  kOrder,         // order by exprs
  kLimit,         // limit/offset
  kDistinct,      // duplicate elimination on the full output record
  kProject,       // keep listed vars
  kIndexSearch,   // access-path op introduced by the optimizer
};

enum class JoinKind : uint8_t { kInner, kLeftOuter, kLeftSemi };

/// Index access paths the optimizer can select (paper §III item 8).
enum class AccessPathKind : uint8_t {
  kPrimaryLookup,    // primary key point lookup
  kPrimaryRange,     // primary key range
  kSecondaryBTree,   // secondary B+tree range + sorted-PK primary fetch
  kRTree,            // spatial intersection + sorted-PK primary fetch
  kKeyword,          // inverted keyword index + sorted-PK primary fetch
};

struct LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

/// One node of the logical plan. A deliberately "flat" struct (per-kind
/// fields coexist) — the tree is short-lived compiler state.
struct LogicalOp {
  LogicalOpKind kind;
  std::vector<LogicalOpPtr> children;

  // kDataScan
  std::string dataset;
  VarId scan_var = -1;
  /// Scan pushdown (optimizer-filled; see PushScanPredicates and
  /// ComputeScanProjections): conjuncts absorbed from a Select, field
  /// <cmp> constant, which the scan evaluates before it emits a record.
  std::vector<hyracks::ScanPredicate> scan_predicates;
  /// Projected top-level fields, valid iff scan_fields_pushed (an empty
  /// pushed set is legal — COUNT(*) touches no fields).
  std::vector<std::string> scan_fields;
  bool scan_fields_pushed = false;

  // kUnnest
  VarId unnest_var = -1;
  ExprPtr unnest_expr;
  bool unnest_outer = false;

  // kSelect / kJoin condition
  ExprPtr condition;
  JoinKind join_kind = JoinKind::kInner;

  // kAssign
  std::vector<std::pair<VarId, ExprPtr>> assigns;

  // kGroupBy
  std::vector<std::pair<VarId, ExprPtr>> group_keys;
  struct Agg {
    VarId var;
    hyracks::AggKind kind;
    ExprPtr arg;  // null for COUNT(*)
  };
  std::vector<Agg> aggs;

  // kOrder
  struct OrderKey {
    ExprPtr expr;
    bool ascending = true;
  };
  std::vector<OrderKey> order_keys;

  // kLimit
  int64_t limit = -1;
  int64_t offset = 0;

  // kProject
  std::vector<VarId> project_vars;

  // kIndexSearch (replaces a kDataScan + selects)
  AccessPathKind access_path = AccessPathKind::kPrimaryLookup;
  std::string index_name;      // which secondary index
  ExprPtr search_lo, search_hi;  // key bounds (inclusive); point: lo==hi
  bool sort_pks_before_fetch = true;  // the [26] trick — ablatable
  ExprPtr residual;            // re-check predicate after fetch

  /// Output variables in tuple position order.
  std::vector<VarId> schema() const;

  /// Pretty-print the subtree (for plan fingerprints and EXPLAIN).
  std::string ToString(int indent = 0) const;

  static LogicalOpPtr Make(LogicalOpKind kind) {
    auto op = std::make_shared<LogicalOp>();
    op->kind = kind;
    return op;
  }
};

}  // namespace asterix::algebricks
