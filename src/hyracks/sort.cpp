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

Result<Tuple> ExternalSortOp::Augment(Tuple t) const {
  Tuple out;
  out.fields.reserve(keys_.size() + t.arity());
  for (const auto& k : keys_) {
    AX_ASSIGN_OR_RETURN(adm::Value v, k.eval(t));
    out.fields.push_back(std::move(v));
  }
  out.fields.insert(out.fields.end(),
                    std::make_move_iterator(t.fields.begin()),
                    std::make_move_iterator(t.fields.end()));
  return out;
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

Status ExternalSortOp::SpillRun(std::vector<Tuple>* run) {
  std::sort(run->begin(), run->end(), [this](const Tuple& a, const Tuple& b) {
    return CompareAugmented(a, b) < 0;
  });
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
      AX_ASSIGN_OR_RETURN(Tuple aug, Augment(std::move(batch[i])));
      run_bytes += aug.ApproxBytes();
      run.push_back(std::move(aug));
      stats_.tuples++;
      if (run_bytes > grant_.bytes()) {
        AX_RETURN_NOT_OK(SpillRun(&run));
        run_bytes = 0;
      }
    }
  }
  AX_RETURN_NOT_OK(child_->Close());

  if (run_paths_back_.empty()) {
    // Fully in-memory sort.
    std::sort(run.begin(), run.end(), [this](const Tuple& a, const Tuple& b) {
      return CompareAugmented(a, b) < 0;
    });
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
  size_t merged_tuples = 0;
  while (!heap.empty()) {
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
