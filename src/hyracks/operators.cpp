#include "hyracks/operators.h"

#include <algorithm>

namespace asterix::hyracks {

Result<bool> SelectOp::NextBatch(Batch* out) {
  // Keep pulling child batches until one survives the filter (a fully
  // rejected batch must not be reported as end-of-stream).
  while (true) {
    AX_RETURN_NOT_OK(PollAlive());
    AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    const uint8_t* mask = nullptr;
    if (batch_predicate_) {
      // Vectorized path: one predicate call masks the whole batch.
      if (mask_.size() < out->size()) mask_.resize(kFrameTuples);
      AX_RETURN_NOT_OK(batch_predicate_(*out, mask_.data()));
      mask = mask_.data();
    }
    size_t w = 0;
    for (size_t r = 0; r < out->size(); r++) {
      bool pass;
      if (mask != nullptr) {
        pass = mask[r] != 0;
      } else {
        AX_ASSIGN_OR_RETURN(adm::Value v, predicate_((*out)[r]));
        pass = IsTrue(v);
      }
      if (!pass) continue;
      // Swap, not move-assign: a move would free the rejected tuple's
      // fields buffer per shifted tuple (the dominant cost of this loop);
      // swapping rotates it past the truncation point, where Add() will
      // recycle its capacity on the next fill.
      if (w != r) (*out)[w].fields.swap((*out)[r].fields);
      w++;
    }
    out->Truncate(w);
    if (!out->empty()) {
      NoteBatchEmitted(out->size());
      return true;
    }
  }
}

Result<bool> AssignOp::NextBatch(Batch* out) {
  AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (size_t i = 0; i < out->size(); i++) {
    Tuple& t = (*out)[i];
    for (const auto& eval : evals_) {
      AX_ASSIGN_OR_RETURN(adm::Value v, eval(t));
      t.fields.push_back(std::move(v));
    }
  }
  NoteBatchEmitted(out->size());
  return true;
}

Status ProjectOp::ShiftInPlace(Tuple* t) const {
  if (!keep_.empty() && keep_.back() >= t->arity()) {
    return Status::Internal("project index out of range");
  }
  for (size_t k = 0; k < keep_.size(); k++) {
    // keep_[k] >= k (strictly increasing), so the source slot is always at
    // or right of the destination — never a slot this loop already wrote.
    if (keep_[k] != k) t->fields[k] = std::move(t->fields[keep_[k]]);
  }
  t->fields.resize(keep_.size());
  return Status::OK();
}

Result<bool> ProjectOp::NextBatch(Batch* out) {
  AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  for (size_t i = 0; i < out->size(); i++) {
    Tuple& t = (*out)[i];
    if (monotone_) {
      AX_RETURN_NOT_OK(ShiftInPlace(&t));
      continue;
    }
    scratch_.clear();
    scratch_.reserve(keep_.size());
    for (size_t idx : keep_) {
      if (idx >= t.arity()) {
        return Status::Internal("project index out of range");
      }
      // Copy, not move: a non-monotone keep list may repeat an index, and a
    // second move would read a moved-from husk.
    scratch_.push_back(t.fields[idx]);
    }
    // Swap: the tuple leaves with the projected fields; its old vector
    // becomes the next iteration's scratch (capacity recycled).
    t.fields.swap(scratch_);
  }
  NoteBatchEmitted(out->size());
  return true;
}

Result<bool> LimitOp::NextBatch(Batch* out) {
  out->Clear();
  while (emitted_ < limit_) {
    AX_RETURN_NOT_OK(PollAlive());
    AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    const uint64_t n = out->size();
    const uint64_t skip = std::min(offset_ - skipped_, n);
    skipped_ += skip;
    const uint64_t take = std::min(n - skip, limit_ - emitted_);
    if (take == 0) continue;  // the whole batch fell inside the offset
    if (skip > 0) {
      for (size_t i = 0; i < take; i++) {
        (*out)[i].fields.swap((*out)[skip + i].fields);
      }
    }
    out->Truncate(take);
    emitted_ += take;
    NoteBatchEmitted(take);
    return true;
  }
  return false;
}

Result<bool> UnnestOp::NextBatch(Batch* out) {
  out->Clear();
  while (!out->full()) {
    if (items_.is_collection() && item_pos_ < items_.items().size()) {
      // Emit the next item of the expansion in progress. The last item is
      // the last use of the input tuple: take its fields instead of
      // copying them.
      const auto& items = items_.items();
      Tuple& in = in_[in_pos_ - 1];
      Tuple* t = out->Add();
      if (item_pos_ + 1 == items.size()) {
        t->fields.swap(in.fields);
      } else {
        t->fields = in.fields;
      }
      t->fields.push_back(items[item_pos_++]);
      continue;
    }
    if (in_pos_ >= in_.size()) {
      if (!out->empty()) break;  // hand over what is ready first
      AX_RETURN_NOT_OK(PollAlive());
      AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_));
      if (!more) break;
      in_pos_ = 0;
    }
    Tuple& in = in_[in_pos_++];
    AX_ASSIGN_OR_RETURN(adm::Value coll, collection_(in));
    if (coll.is_collection() && !coll.items().empty()) {
      items_ = std::move(coll);
      item_pos_ = 0;
    } else if (outer_) {
      Tuple* t = out->Add();
      t->fields.swap(in.fields);
      t->fields.push_back(adm::Value::Missing());
    }
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status UnionAllOp::Open() {
  current_ = 0;
  for (auto& c : children_) AX_RETURN_NOT_OK(c->Open());
  return Status::OK();
}

Result<bool> UnionAllOp::NextBatch(Batch* out) {
  while (current_ < children_.size()) {
    AX_RETURN_NOT_OK(PollAlive());
    AX_ASSIGN_OR_RETURN(bool more, children_[current_]->NextBatch(out));
    if (more) return true;
    current_++;
  }
  return false;
}

Status UnionAllOp::Close() {
  Status first = Status::OK();
  for (auto& c : children_) {
    Status st = c->Close();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Result<bool> StreamDistinctOp::NextBatch(Batch* out) {
  while (true) {
    AX_RETURN_NOT_OK(PollAlive());
    AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    size_t w = 0;
    for (size_t r = 0; r < out->size(); r++) {
      const Tuple& last = w > 0 ? (*out)[w - 1] : prev_;
      if ((w > 0 || has_prev_) && CompareTuples((*out)[r], last) == 0) {
        continue;
      }
      if (w != r) (*out)[w].fields.swap((*out)[r].fields);
      w++;
    }
    out->Truncate(w);
    if (w > 0) {
      prev_ = (*out)[w - 1];
      has_prev_ = true;
      NoteBatchEmitted(w);
      return true;
    }
  }
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.arity(), b.arity());
  for (size_t i = 0; i < n; i++) {
    int c = a.fields[i].Compare(b.fields[i]);
    if (c != 0) return c;
  }
  return a.arity() < b.arity() ? -1 : (a.arity() > b.arity() ? 1 : 0);
}

}  // namespace asterix::hyracks
