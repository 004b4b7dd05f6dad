// Ordered merge of sorted partition streams: the final stage of the
// parallel sort (paper §VII credits "much-improved parallel sorting" as a
// community contribution). Each partition sorts locally — those sorts run
// concurrently because Open() opens child 0 on the calling thread and the
// others on the worker pool — and this stream then k-way merges the sorted
// results, preserving the global order.
#pragma once

#include <memory>
#include <vector>

#include "hyracks/sort.h"
#include "hyracks/stream.h"
#include "hyracks/worker_pool.h"

namespace asterix::hyracks {

class OrderedMergeStream : public TupleStream {
 public:
  /// `keys` must match the sort keys of the (sorted) children. `pool`
  /// opens children 1..n-1 concurrently and must outlive Open().
  OrderedMergeStream(std::vector<StreamPtr> children, std::vector<SortKey> keys,
                     WorkerPool* pool)
      : children_(std::move(children)), keys_(std::move(keys)), pool_(pool) {}

  Status Open() override;
  /// Pops up to a frame's worth of merged tuples per call, pulling a
  /// child's next batch whenever its cursor runs dry.
  Result<bool> NextBatch(Batch* out) override;
  Status Close() override;

 private:
  /// One child's current batch and the position of its head tuple.
  struct Cursor {
    Batch batch;
    size_t pos = 0;
    const Tuple& head() const { return batch[pos]; }
  };

  Result<int> Compare(const Tuple& a, const Tuple& b) const;
  /// Ensure `child`'s cursor holds a head tuple (pulling its next batch if
  /// needed) and, if it does, insert the child into heads_.
  Status PushFrom(size_t child);

  std::vector<StreamPtr> children_;
  std::vector<SortKey> keys_;
  WorkerPool* pool_;
  std::vector<Cursor> cursors_;
  // Children with a head tuple, kept sorted descending by head so the
  // global minimum sits at the back (comparators can fail, so
  // std::priority_queue's comparator contract doesn't fit; linear
  // insertion is fine for small fan-in).
  std::vector<size_t> heads_;
};

}  // namespace asterix::hyracks
