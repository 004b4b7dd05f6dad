#include "hyracks/sort.h"

#include <algorithm>
#include <queue>

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
metrics::Counter* SortRunsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.sort.runs_spilled");
  return c;
}
metrics::Counter* SortSpillBytesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.sort.spill_bytes");
  return c;
}
}  // namespace

Status ExternalSortOp::EvalKeys(const Tuple& t, Tuple* out) const {
  out->fields.clear();
  for (const auto& k : keys_) {
    AX_ASSIGN_OR_RETURN(adm::Value v, k.eval(t));
    out->fields.push_back(std::move(v));
  }
  return Status::OK();
}

void ExternalSortOp::AppendFields(Tuple* from, Tuple* to) {
  to->fields.insert(to->fields.end(),
                    std::make_move_iterator(from->fields.begin()),
                    std::make_move_iterator(from->fields.end()));
}

void ExternalSortOp::StripPrefix(Tuple* aug, Tuple* out) const {
  out->fields.assign(
      std::make_move_iterator(aug->fields.begin() +
                              static_cast<ptrdiff_t>(keys_.size())),
      std::make_move_iterator(aug->fields.end()));
}

int ExternalSortOp::CompareAugmented(const Tuple& a, const Tuple& b) const {
  for (size_t i = 0; i < keys_.size(); i++) {
    int c = a.fields[i].Compare(b.fields[i]);
    if (c != 0) return keys_[i].ascending ? c : -c;
  }
  return 0;
}

Status ExternalSortOp::OfferBounded(Tuple* t, std::vector<Tuple>* run,
                                    size_t* run_bytes) {
  AX_RETURN_NOT_OK(EvalKeys(*t, &probe_));
  const uint64_t k = *limit_;
  // Early rejection: a tuple that does not beat the worst of limit_ kept
  // (or spilled) tuples cannot be among the first limit_; its payload is
  // never touched.
  if (k == 0) return Status::OK();
  if (cutoff_ && CompareAugmented(probe_, *cutoff_) >= 0) return Status::OK();
  if (run->size() == k && CompareAugmented(probe_, run->front()) >= 0) {
    return Status::OK();
  }
  stats_.kept++;
  Tuple aug;
  aug.fields.reserve(keys_.size() + t->arity());
  AppendFields(&probe_, &aug);
  AppendFields(t, &aug);
  run->push_back(std::move(aug));
  *run_bytes += run->back().ApproxBytes();
  std::push_heap(run->begin(), run->end(), Before());  // worst at the front
  if (run->size() > k) {
    std::pop_heap(run->begin(), run->end(), Before());
    *run_bytes -= run->back().ApproxBytes();
    run->pop_back();
  }
  return Status::OK();
}

Status ExternalSortOp::SpillRun(std::vector<Tuple>* run) {
  if (limit_ && run->size() == *limit_) {
    // A full top-k run: its worst tuple (the heap's front) bounds every
    // tuple that can still make the cut. Each later full run only holds
    // tuples that beat the previous cutoff, so the newest is the tightest.
    Tuple worst;
    worst.fields.assign(run->front().fields.begin(),
                        run->front().fields.begin() +
                            static_cast<ptrdiff_t>(keys_.size()));
    cutoff_ = std::move(worst);
  }
  std::sort(run->begin(), run->end(), Before());
  AX_ASSIGN_OR_RETURN(auto writer, spills_.Create("sortrun"));
  for (const auto& t : *run) AX_RETURN_NOT_OK(writer->Write(t));
  AX_RETURN_NOT_OK(writer->Finish());
  run_paths_back_.push_back(writer->path());
  run->clear();
  stats_.runs_spilled++;
  stats_.bytes_spilled += writer->bytes_written();
  SortRunsCounter()->Add(1);
  SortSpillBytesCounter()->Add(writer->bytes_written());
  return Status::OK();
}

Status ExternalSortOp::Open() {
  AX_RETURN_NOT_OK(child_->Open());
  std::vector<Tuple> run;
  size_t run_bytes = 0;
  // Drain the input batch-at-a-time: one virtual call per kFrameTuples
  // tuples instead of one per tuple.
  Batch batch;
  while (true) {
    AX_RETURN_NOT_OK(CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&batch));
    if (!more) break;
    for (size_t i = 0; i < batch.size(); i++) {
      stats_.tuples++;
      if (limit_) {
        AX_RETURN_NOT_OK(OfferBounded(&batch[i], &run, &run_bytes));
      } else {
        Tuple aug;
        aug.fields.reserve(keys_.size() + batch[i].arity());
        AX_RETURN_NOT_OK(EvalKeys(batch[i], &aug));
        AppendFields(&batch[i], &aug);
        run_bytes += aug.ApproxBytes();
        run.push_back(std::move(aug));
        stats_.kept++;
      }
      if (run_bytes > grant_.bytes()) {
        AX_RETURN_NOT_OK(SpillRun(&run));
        run_bytes = 0;
      }
    }
  }
  AX_RETURN_NOT_OK(child_->Close());

  if (run_paths_back_.empty()) {
    // Fully in-memory sort.
    std::sort(run.begin(), run.end(), Before());
    memory_ = std::move(run);
    mem_pos_ = 0;
    return Status::OK();
  }
  // Spill the final run too, then merge with bounded fan-in.
  if (!run.empty()) AX_RETURN_NOT_OK(SpillRun(&run));
  std::vector<std::string> runs = std::move(run_paths_back_);
  while (runs.size() > 1) {
    stats_.merge_passes++;
    std::vector<std::string> next;
    for (size_t i = 0; i < runs.size(); i += fanin_) {
      size_t end = std::min(runs.size(), i + fanin_);
      std::vector<std::string> group(runs.begin() + static_cast<ptrdiff_t>(i),
                                     runs.begin() + static_cast<ptrdiff_t>(end));
      if (group.size() == 1) {
        next.push_back(group[0]);
        continue;
      }
      AX_ASSIGN_OR_RETURN(std::string merged, MergeRuns(group));
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
  }
  AX_ASSIGN_OR_RETURN(merged_, RunReader::Open(runs[0]));
  return Status::OK();
}

Result<std::string> ExternalSortOp::MergeRuns(
    const std::vector<std::string>& paths) {
  struct Head {
    Tuple tuple;
    size_t src;
  };
  std::vector<std::unique_ptr<RunReader>> readers;
  for (const auto& p : paths) {
    AX_ASSIGN_OR_RETURN(auto r, RunReader::Open(p));
    readers.push_back(std::move(r));
  }
  auto cmp = [this](const Head& a, const Head& b) {
    int c = CompareAugmented(a.tuple, b.tuple);
    if (c != 0) return c > 0;  // min-heap
    return a.src > b.src;      // stable tiebreak
  };
  std::priority_queue<Head, std::vector<Head>, decltype(cmp)> heap(cmp);
  for (size_t i = 0; i < readers.size(); i++) {
    Tuple t;
    AX_ASSIGN_OR_RETURN(bool more, readers[i]->Read(&t));
    if (more) heap.push(Head{std::move(t), i});
  }
  AX_ASSIGN_OR_RETURN(auto writer, spills_.Create("sortmerge"));
  // A bounded sort's merged run needs only the first limit_ tuples; the
  // unread rest goes with the readers (which delete their files).
  const uint64_t cap = limit_.value_or(UINT64_MAX);
  size_t merged_tuples = 0;
  while (!heap.empty() && merged_tuples < cap) {
    // Merge passes can run for a long time with no batch boundary above
    // them; check cancellation every frame's worth of tuples.
    if (merged_tuples++ % kFrameTuples == 0) AX_RETURN_NOT_OK(CheckAlive());
    Head h = heap.top();
    heap.pop();
    AX_RETURN_NOT_OK(writer->Write(h.tuple));
    Tuple t;
    AX_ASSIGN_OR_RETURN(bool more, readers[h.src]->Read(&t));
    if (more) heap.push(Head{std::move(t), h.src});
  }
  AX_RETURN_NOT_OK(writer->Finish());
  stats_.bytes_spilled += writer->bytes_written();
  SortSpillBytesCounter()->Add(writer->bytes_written());
  return writer->path();
}

Result<bool> ExternalSortOp::NextBatch(Batch* out) {
  AX_RETURN_NOT_OK(CheckAlive());
  out->Clear();
  if (merged_) {
    Tuple aug;
    while (!out->full()) {
      AX_ASSIGN_OR_RETURN(bool more, merged_->Read(&aug));
      if (!more) break;
      StripPrefix(&aug, out->Add());
    }
  } else {
    while (mem_pos_ < memory_.size() && !out->full()) {
      StripPrefix(&memory_[mem_pos_++], out->Add());
    }
  }
  if (out->empty()) return false;
  NoteBatchEmitted(out->size());
  return true;
}

Status ExternalSortOp::Close() {
  memory_.clear();
  merged_.reset();
  spills_.Remove();
  grant_.Release();
  return Status::OK();
}

}  // namespace asterix::hyracks
