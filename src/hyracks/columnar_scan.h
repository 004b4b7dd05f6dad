// ColumnarScan: a batch-native TupleStream over one LSM partition (paper
// §VII: columnar storage + the batch execution model of batch.h). Like
// PartitionScanSource it walks the tree's merged iterator
// (storage::LsmBTree::Iterator), the one newest-wins merge of the memory,
// row and columnar components; unlike it, it reads a winner that is a row
// of a columnar component straight from that component's columns:
//
//  * Projection pushdown — when the Algebricks lowering proves only a field
//    subset is touched, a columnar component loads only those columns, on
//    the first row it wins (the rest are never paged in; the skip count is
//    exported as storage.columnar.columns_skipped).
//  * Predicate pushdown — comparison conjuncts against constants are
//    evaluated column-at-a-time over each gathered batch (fixed-width
//    columns compare raw 8-byte payloads) and only surviving rows are
//    materialized into tuples.
//  * Mixed stacks — winners from memory and row (.cmp) components arrive
//    as serialized records, decoded only for rows that reach the
//    predicate/materialize phases.
//
// Output shape matches the row scan source: 1-field tuples holding the
// record (pruned to the projected fields when the projection was pushed).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "hyracks/stream.h"
#include "storage/lsm_btree.h"

namespace asterix::hyracks {

/// Comparison operators a scan can absorb from a Select.
enum class ScanCmp { kEq, kLt, kLe, kGt, kGe };

/// One pushed conjunct: field <cmp> constant. SQL++ comparison semantics:
/// a row whose field is NULL/MISSING (or an unknown constant) never passes.
struct ScanPredicate {
  std::string field;
  ScanCmp cmp = ScanCmp::kEq;
  adm::Value constant = adm::Value::Missing();
};

/// Batch-native scan over one LSM partition. Single-use, one partition.
class ColumnarScanSource : public TupleStream {
 public:
  /// `fields`/`fields_pushed`: projected top-level field names, valid only
  /// when pushed (an empty pushed set is legal — e.g. COUNT(*)). `tree`
  /// must outlive the stream.
  ColumnarScanSource(const storage::LsmBTree* tree,
                     std::vector<std::string> fields, bool fields_pushed,
                     std::vector<ScanPredicate> predicates);
  ~ColumnarScanSource() override;

  Status Open() override;
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  struct Columns;
  struct Candidate;
  /// The columns this scan needs from a columnar component, loaded on the
  /// first call for that component.
  Result<const Columns*> ColumnsFor(const storage::ColumnarReader* reader);
  /// Gather the next batch of newest-version candidates, run the pushed
  /// predicates column-wise, and materialize survivors into rows_.
  Status Refill();

  const storage::LsmBTree* tree_;
  std::vector<std::string> fields_;
  bool fields_pushed_ = false;
  std::vector<ScanPredicate> predicates_;
  /// Projected plus predicate fields: what a pushed scan loads.
  std::vector<std::string> needed_;

  std::optional<storage::LsmBTree::Iterator> it_;
  std::vector<std::unique_ptr<Columns>> loaded_;
  bool exhausted_ = false;
  std::vector<Tuple> rows_;  // materialized survivors awaiting hand-off
  size_t pos_ = 0;
};

}  // namespace asterix::hyracks
