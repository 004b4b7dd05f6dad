// Batch-at-a-time (vectorized) execution: the unit of batched dataflow
// through the Hyracks pipeline. The paper's Hyracks layer moves *frames*
// between partitions, not tuples, so synchronization cost amortizes; Batch
// extends the same amortization to intra-partition operator hand-offs —
// one virtual NextBatch call, one Result<bool>, and one profiling clock
// pair cover up to kFrameTuples tuples instead of one each per tuple.
//
// Ownership model (see DESIGN.md "Batch execution model"):
//  * A Batch owns its tuple slots and recycles them: Clear() resets the
//    logical size but keeps the Tuple objects (and their fields vectors'
//    capacity) alive, so a steady-state pipeline stops allocating.
//  * NextBatch(out) overwrites *out wholesale. The producing stream may
//    not retain references into the batch after returning; the consumer
//    owns the contents until its next NextBatch call on the same stream
//    and is free to move tuples out of the slots.
//  * Batches may be partially filled anywhere in the stream, not only at
//    the end (an exchange consumer hands frames over as they arrive).
#pragma once

#include <cstddef>
#include <vector>

#include "hyracks/tuple.h"

namespace asterix::hyracks {

/// Tuples per exchange frame and per execution batch. One constant on
/// purpose: a popped exchange frame becomes a batch without re-chunking.
constexpr size_t kFrameTuples = 256;

/// A reusable, capacity-kFrameTuples vector of tuples with pooled slots.
class Batch {
 public:
  Batch() { slots_.reserve(kFrameTuples); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= kFrameTuples; }

  Tuple& operator[](size_t i) { return slots_[i]; }
  const Tuple& operator[](size_t i) const { return slots_[i]; }

  /// Reset to empty, keeping tuple slots (and their storage) for reuse.
  void Clear() { size_ = 0; }

  /// Append a slot and return it with fields cleared. The slot's fields
  /// vector keeps its capacity from previous use — recycled storage.
  Tuple* Add() {
    if (size_ == slots_.size()) slots_.emplace_back();
    Tuple* t = &slots_[size_++];
    t->fields.clear();
    return t;
  }

  /// Drop the most recently added slot (used when a read into a fresh slot
  /// hits end-of-stream).
  void PopLast() {
    if (size_ > 0) size_--;
  }

  /// Append `n` slots whose fields are swapped with `src[0..n)`. Whatever
  /// the recycled slots still held parks in `src`, so the donor (not this
  /// hot loop) destroys it — a materialized source drains itself into the
  /// batch with three pointer swaps per tuple and no destructor traffic.
  void FillBySwap(Tuple* src, size_t n) {
    if (slots_.size() < size_ + n) slots_.resize(size_ + n);
    Tuple* dst = slots_.data() + size_;
    for (size_t i = 0; i < n; i++) dst[i].fields.swap(src[i].fields);
    size_ += n;
  }

  /// Keep only the first n tuples (SelectOp compaction).
  void Truncate(size_t n) {
    if (n < size_) size_ = n;
  }

  /// Swap the backing vector with `frame` and take its full length as the
  /// batch content. This is how an exchange consumer hands a popped frame
  /// out as a batch with zero copies: the batch's previous slot vector
  /// lands in `frame`, where the queue's free list can recycle it.
  void SwapVector(std::vector<Tuple>* frame) {
    slots_.swap(*frame);
    size_ = slots_.size();
  }

 private:
  std::vector<Tuple> slots_;  // slots_[0..size_) are live; the rest pooled
  size_t size_ = 0;
};

/// hyracks.batch.* counters. NoteBatchEmitted is called by every NextBatch
/// override that produces tuples, once per non-empty batch (one boundary
/// hand-off each); pure pass-throughs (UnionAllOp, the profiler wrapper)
/// record nothing of their own. Average batch fill =
/// hyracks.batch.tuples / hyracks.batch.batches_emitted.
void NoteBatchEmitted(size_t tuples);

}  // namespace asterix::hyracks
