// The rule-based, data-partition-aware rewriter of paper Fig. 5 ("Rewriter"
// + "Rule Sets"). Rules: constant folding, conjunct splitting, select
// push-down (below assigns/unnests, into join branches and join
// conditions), access-path selection (primary/secondary B+tree, R-tree,
// inverted keyword — §III item 8), dead-assign elimination, and scan
// pushdown (comparison conjuncts and the touched field set pushed into
// scans of internal datasets — §VII). Each rule can be toggled off for the
// Fig. 5 ablation benchmark.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algebricks/functions.h"
#include "algebricks/logical.h"

namespace asterix::algebricks {

/// What the optimizer needs to know about datasets (implemented by the
/// asterix metadata manager; a test fake suffices for unit tests).
class Catalog {
 public:
  virtual ~Catalog() = default;

  struct IndexInfo {
    std::string name;
    enum Kind { kBTree, kRTree, kKeyword } kind = kBTree;
    std::string field;
  };

  virtual bool HasDataset(const std::string& name) const = 0;
  /// Primary key field name; empty when `name` is an external dataset.
  virtual std::string PrimaryKeyField(const std::string& name) const = 0;
  virtual std::vector<IndexInfo> SecondaryIndexes(
      const std::string& name) const = 0;
};

/// Per-rule switches (all on by default). The Fig. 5 ablation bench flips
/// these one at a time.
struct OptimizerOptions {
  bool constant_folding = true;
  bool select_pushdown = true;
  bool index_selection = true;
  bool dead_assign_elimination = true;
  /// The [26] trick: sort secondary-index result PKs before primary fetch.
  bool sort_pks_before_fetch = true;
  /// Push projections and comparison conjuncts into scans over internal
  /// datasets, whatever their storage format (paper §VII: columnar
  /// storage). Off = scans emit whole records under a Select.
  bool scan_pushdown = true;
};

/// Rewrite `root` to a (hopefully) better plan. Pure function of the tree.
Result<LogicalOpPtr> Optimize(LogicalOpPtr root, const Catalog& catalog,
                              const OptimizerOptions& options,
                              const FunctionRegistry& registry);

}  // namespace asterix::algebricks
