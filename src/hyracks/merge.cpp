#include "hyracks/merge.h"

#include <algorithm>

namespace asterix::hyracks {

Result<int> OrderedMergeStream::Compare(const Tuple& a, const Tuple& b) const {
  for (const auto& k : keys_) {
    AX_ASSIGN_OR_RETURN(adm::Value va, k.eval(a));
    AX_ASSIGN_OR_RETURN(adm::Value vb, k.eval(b));
    int c = va.Compare(vb);
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

Status OrderedMergeStream::Open() {
  // Open children concurrently: each child's Open() performs its local
  // sort, so this is where the parallel speedup comes from. The calling
  // thread opens child 0 itself.
  std::vector<Status> statuses(children_.size());
  {
    TaskGroup group(pool_);  // waits for every spawned Open on scope exit
    for (size_t i = 1; i < children_.size(); i++) {
      group.Spawn(
          [this, i, &statuses] { statuses[i] = children_[i]->Open(); });
    }
    if (!children_.empty()) statuses[0] = children_[0]->Open();
  }
  for (const auto& st : statuses) AX_RETURN_NOT_OK(st);
  cursors_.clear();
  cursors_.resize(children_.size());
  heads_.clear();
  for (size_t i = 0; i < children_.size(); i++) AX_RETURN_NOT_OK(PushFrom(i));
  return Status::OK();
}

Status OrderedMergeStream::PushFrom(size_t child) {
  Cursor& cur = cursors_[child];
  if (cur.pos >= cur.batch.size()) {
    AX_ASSIGN_OR_RETURN(bool more, children_[child]->NextBatch(&cur.batch));
    cur.pos = 0;
    if (!more) return Status::OK();
  }
  size_t pos = heads_.size();
  heads_.push_back(child);
  while (pos > 0) {
    AX_ASSIGN_OR_RETURN(int c, Compare(cursors_[heads_[pos - 1]].head(),
                                       cur.head()));
    // Keep descending order: previous should be >= current.
    if (c >= 0) break;
    std::swap(heads_[pos - 1], heads_[pos]);
    pos--;
  }
  return Status::OK();
}

Result<bool> OrderedMergeStream::NextBatch(Batch* out) {
  out->Clear();
  while (!heads_.empty() && !out->full()) {
    AX_RETURN_NOT_OK(PollAlive());
    const size_t child = heads_.back();
    heads_.pop_back();
    Cursor& cur = cursors_[child];
    out->Add()->fields.swap(cur.batch[cur.pos++].fields);
    AX_RETURN_NOT_OK(PushFrom(child));
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status OrderedMergeStream::Close() {
  Status first = Status::OK();
  for (auto& c : children_) {
    Status st = c->Close();
    if (!st.ok() && first.ok()) first = st;
  }
  cursors_.clear();
  heads_.clear();
  return first;
}

}  // namespace asterix::hyracks
