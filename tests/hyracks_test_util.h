// Test-only stream helpers shared by the Hyracks operator suites.
#pragma once

#include <memory>

#include "hyracks/stream.h"

namespace asterix::hyracks {

/// Re-emits its child's tuples as batches of exactly `k` tuples (the last
/// one may be shorter), regardless of how the child chunked them. Partial
/// batches are legal anywhere mid-stream — an exchange consumer hands over
/// whatever frame arrived — so every operator must give the same answer
/// over Rechunk(1), Rechunk(7) and Rechunk(kFrameTuples).
class Rechunk : public TupleStream {
 public:
  Rechunk(StreamPtr child, size_t k) : child_(std::move(child)), k_(k) {}
  Status Open() override {
    in_.Clear();
    pos_ = 0;
    return child_->Open();
  }
  Result<bool> NextBatch(Batch* out) override {
    out->Clear();
    while (out->size() < k_ && !out->full()) {
      if (pos_ >= in_.size()) {
        AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
        pos_ = 0;
        if (!more) break;
      }
      out->Add()->fields.swap(in_[pos_++].fields);
    }
    return !out->empty();
  }
  Status Close() override { return child_->Close(); }

 private:
  StreamPtr child_;
  size_t k_;
  Batch in_;
  size_t pos_ = 0;
};

inline StreamPtr Rechunked(StreamPtr child, size_t k) {
  return std::make_unique<Rechunk>(std::move(child), k);
}

}  // namespace asterix::hyracks
