// ScanSource: the one query stream over a dataset partition's primary LSM
// index. It walks the tree's merged iterator (storage::LsmBTree::Iterator),
// the one newest-wins merge of the memory, row and columnar components,
// optionally between inclusive encoded key bounds, and applies what the
// optimizer pushed into the scan whatever the format of the component a
// winner came from (paper §VII: columnar storage as a component format of
// the same LSM index, read by the same scan):
//
//  * Projection pushdown — when the Algebricks lowering proves only a field
//    subset is touched, every winner is pruned to those fields. A columnar
//    component loads only their columns, on the first row it wins (the rest
//    are never paged in; the skip count is exported as
//    storage.columnar.columns_skipped). A memory or row winner decodes only
//    the projected and predicate fields and steps over the rest in place
//    (adm::DeserializeFields), still checking every byte; an empty
//    projection (COUNT(*)) only validates it.
//  * Predicate pushdown — comparison conjuncts against constants are
//    evaluated over each gathered batch before anything is materialized: a
//    columnar winner's cell decodes straight from its column (fixed-width
//    int columns compare raw 8-byte payloads); a memory or row winner is
//    decoded once, when it is gathered.
//
// Output: 1-field tuples holding the record (pruned to the projected fields
// when the projection was pushed).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "hyracks/stream.h"
#include "storage/lsm_btree.h"

namespace asterix::hyracks {

/// One pushed conjunct: field <cmp> constant. SQL++ comparison semantics:
/// a row whose field is NULL/MISSING (or an unknown constant) never passes.
struct ScanPredicate {
  std::string field;
  adm::CmpOp cmp = adm::CmpOp::kEq;
  adm::Value constant = adm::Value::Missing();
};

/// Batch-native scan over one LSM partition. Single-use, one partition.
class ScanSource : public TupleStream {
 public:
  /// `fields`/`fields_pushed`: projected top-level field names, valid only
  /// when pushed (an empty pushed set is legal — e.g. COUNT(*)). `lo_key`
  /// and `hi_key` are inclusive encoded key bounds; an absent one is open.
  /// `tree` must outlive the stream.
  ScanSource(const storage::LsmBTree* tree, std::vector<std::string> fields,
             bool fields_pushed, std::vector<ScanPredicate> predicates,
             std::optional<std::string> lo_key = std::nullopt,
             std::optional<std::string> hi_key = std::nullopt);
  ~ScanSource() override;

  Status Open() override;
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  struct Columns;
  struct Candidate;
  /// The columns this scan needs from a columnar component, loaded on the
  /// first call for that component.
  Result<const Columns*> ColumnsFor(const storage::ColumnarReader* reader);
  /// True while the iterator is on an entry at or below the upper bound.
  bool InRange() const;
  /// Gather up to kFrameTuples newest-version winners into cands_.
  Status Gather();
  /// A memory or row winner's record as Gather keeps it: whole, or with only
  /// needed_ when the projection was pushed (MISSING when none is needed).
  Result<adm::Value> Decode(const std::string& data) const;
  /// Run the pushed predicates over cands_, clearing `keep` on failures.
  Status Filter();
  /// The output record of a surviving candidate.
  Result<adm::Value> Materialize(Candidate* c) const;

  const storage::LsmBTree* tree_;
  std::vector<std::string> fields_;
  bool fields_pushed_ = false;
  std::vector<ScanPredicate> predicates_;
  std::optional<std::string> lo_key_, hi_key_;
  /// Projected plus predicate fields: what a pushed scan loads.
  std::vector<std::string> needed_;
  /// A predicate reads a field the output does not carry, so a decoded
  /// record is pruned to fields_ rather than handed out as it is.
  bool prune_decoded_ = false;
  /// The output of an empty projection, built once per scan.
  const adm::Value empty_ = adm::Value::Object({});

  std::optional<storage::LsmBTree::Iterator> it_;
  std::vector<std::unique_ptr<Columns>> loaded_;
  std::vector<Candidate> cands_;  // the batch being gathered, reused
};

}  // namespace asterix::hyracks
