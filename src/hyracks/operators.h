// Streaming (pipelined) Hyracks operators: select, assign, project, limit,
// unnest, union-all, and stream-distinct. Blocking operators live in
// sort.h / join.h / groupby.h. Most transform the child's batch in place;
// unnest fills its own output batch because one input tuple may expand
// past a batch's capacity.
#pragma once

#include <memory>
#include <vector>

#include "hyracks/stream.h"

namespace asterix::hyracks {

/// Vectorized selection predicate: fills `keep[0..batch.size())` with SQL++
/// select semantics — keep[i] is nonzero iff the predicate evaluates to
/// boolean true on batch[i] (null/missing collapse to "not kept"). One call
/// covers the whole batch, so a compiled mask loop replaces the per-tuple
/// interpreted evaluator (std::function dispatch, boxed argument vector,
/// Result<Value> wrapping) on the hot path. Compiled by
/// algebricks::TryCompileBatchPredicate for the expression shapes it
/// recognizes; absent (empty function) otherwise.
using BatchPredicate = std::function<Status(const Batch&, uint8_t* keep)>;

/// Filter: passes tuples whose predicate evaluates to boolean true.
class SelectOp : public TupleStream {
 public:
  /// `batch_predicate` is optional: when present, NextBatch evaluates the
  /// whole batch with it; otherwise it interprets `predicate` per tuple.
  /// The two must agree tuple-for-tuple.
  SelectOp(StreamPtr child, TupleEval predicate,
           BatchPredicate batch_predicate = nullptr)
      : child_(std::move(child)), predicate_(std::move(predicate)),
        batch_predicate_(std::move(batch_predicate)) {}
  Status Open() override { return child_->Open(); }
  /// Filters the child's batch in place (stable compaction by move).
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  TupleEval predicate_;
  BatchPredicate batch_predicate_;
  std::vector<uint8_t> mask_;  // recycled selection-mask buffer
};

/// Assign: appends one computed field per evaluator to each tuple.
class AssignOp : public TupleStream {
 public:
  AssignOp(StreamPtr child, std::vector<TupleEval> evals)
      : child_(std::move(child)), evals_(std::move(evals)) {}
  Status Open() override { return child_->Open(); }
  /// Appends the computed fields to every tuple of the child's batch.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  std::vector<TupleEval> evals_;
};

/// Project: keeps only the listed field positions, in the listed order.
class ProjectOp : public TupleStream {
 public:
  ProjectOp(StreamPtr child, std::vector<size_t> keep)
      : child_(std::move(child)), keep_(std::move(keep)) {
    monotone_ = true;
    for (size_t k = 0; k < keep_.size(); k++) {
      // Strictly increasing implies keep_[k] >= k, so the in-place
      // left-to-right shift never reads a slot it already wrote.
      if (keep_[k] < k || (k > 0 && keep_[k] <= keep_[k - 1])) {
        monotone_ = false;
        break;
      }
    }
  }
  Status Open() override { return child_->Open(); }
  /// Projects every tuple of the child's batch in place. Strictly
  /// increasing keep lists (the common compiler output) shift fields
  /// within the tuple's own vector; reordering/duplicating lists cycle a
  /// scratch vector through the batch instead. Either way the steady
  /// state allocates nothing.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  /// Move the kept fields of `*t` into positions 0..keep_.size()) and drop
  /// the rest. Requires monotone_.
  Status ShiftInPlace(Tuple* t) const;

  StreamPtr child_;
  std::vector<size_t> keep_;
  bool monotone_;  // keep_ strictly increasing → in-place shift is safe
  std::vector<adm::Value> scratch_;  // recycled projection buffer
};

/// Limit/offset.
class LimitOp : public TupleStream {
 public:
  LimitOp(StreamPtr child, uint64_t limit, uint64_t offset = 0)
      : child_(std::move(child)), limit_(limit), offset_(offset) {}
  Status Open() override {
    skipped_ = emitted_ = 0;
    return child_->Open();
  }
  /// Drops the offset prefix and truncates the batch that crosses the
  /// limit; once the limit is reached the child is never pulled again.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  uint64_t limit_, offset_;
  uint64_t skipped_ = 0, emitted_ = 0;
};

/// Unnest: for each input tuple, evaluates a collection expression and
/// emits one output tuple per item (input fields ++ item). When `outer`,
/// inputs with empty/missing collections emit one tuple with MISSING.
class UnnestOp : public TupleStream {
 public:
  UnnestOp(StreamPtr child, TupleEval collection, bool outer = false)
      : child_(std::move(child)), collection_(std::move(collection)),
        outer_(outer) {}
  Status Open() override {
    in_.Clear();
    in_pos_ = 0;
    items_ = adm::Value::Missing();
    item_pos_ = 0;
    return child_->Open();
  }
  /// Fills `*out` from the expansion in progress, pulling further child
  /// batches as inputs run out; an expansion larger than one batch
  /// continues on the next call.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  TupleEval collection_;
  bool outer_;
  Batch in_;             // current child batch
  size_t in_pos_ = 0;    // next unexpanded input in in_
  adm::Value items_;     // collection of input in_[in_pos_ - 1]
  size_t item_pos_ = 0;  // next item of items_ to emit
};

/// Union-all over same-arity children, streamed in order.
class UnionAllOp : public TupleStream {
 public:
  explicit UnionAllOp(std::vector<StreamPtr> children)
      : children_(std::move(children)) {}
  Status Open() override;
  /// Pure pass-through: forwards the current child's batches unchanged
  /// (and records no batch metrics of its own).
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  std::vector<StreamPtr> children_;
  size_t current_ = 0;
};

/// Distinct over already-sorted input (pairs with ExternalSortOp).
class StreamDistinctOp : public TupleStream {
 public:
  explicit StreamDistinctOp(StreamPtr child) : child_(std::move(child)) {}
  Status Open() override {
    has_prev_ = false;
    return child_->Open();
  }
  /// Compacts the child's batch in place, comparing each tuple with the
  /// last one kept — across batch boundaries, via prev_.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  Tuple prev_;
  bool has_prev_ = false;
};

/// Compare two tuples field-wise (arity must match); total order.
int CompareTuples(const Tuple& a, const Tuple& b);

}  // namespace asterix::hyracks
