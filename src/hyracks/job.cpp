#include "hyracks/job.h"

namespace asterix::hyracks {

Job::~Job() {
  // Detach cancel listeners before the exchanges they capture die. After
  // RemoveCancelListener returns, the listener can never run again, so a
  // late Instance::CancelQuery on a finished query touches nothing stale.
  if (ctx_ != nullptr) {
    for (auto id : listener_ids_) ctx_->RemoveCancelListener(id);
  }
}

void Job::SetContext(resource::QueryContext* ctx) {
  ctx_ = ctx;
  for (auto& ex : exchanges_) AttachExchange(ex.get());
}

void Job::AttachExchange(Exchange* ex) {
  if (ctx_ == nullptr) return;
  ex->SetContext(ctx_);
  listener_ids_.push_back(ctx_->AddCancelListener(
      [ex] { ex->PoisonAll(Status::Cancelled("query cancelled")); }));
}

Exchange* Job::AddExchange(size_t n_producers, size_t n_consumers,
                           size_t queue_capacity) {
  exchanges_.push_back(
      std::make_unique<Exchange>(n_producers, n_consumers, queue_capacity));
  AttachExchange(exchanges_.back().get());
  return exchanges_.back().get();
}

void Job::AddProducerTask(std::function<Status()> task) {
  tasks_.push_back(std::move(task));
}

void Job::NoteStatus(const Status& st) {
  if (st.ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (first_error_.ok()) first_error_ = st;
}

void Job::CollectRoot(TupleStream* root, std::vector<Tuple>* out) {
  auto r = CollectAll(root, ctx_);
  if (r.ok()) {
    *out = std::move(r).value();
    return;
  }
  NoteStatus(r.status());
  // Poison exchanges so producers blocked on full queues unwind.
  for (auto& ex : exchanges_) ex->PoisonAll(r.status());
}

Result<std::vector<std::vector<Tuple>>> Job::RunCollect(
    std::vector<StreamPtr> roots) {
  std::vector<std::vector<Tuple>> results(roots.size());
  {
    TaskGroup group(pool_);  // waits for every spawned task on scope exit
    for (auto& task : tasks_) {
      group.Spawn([this, &task] { NoteStatus(task()); });
    }
    for (size_t i = 1; i < roots.size(); i++) {
      group.Spawn([this, &roots, &results, i] {
        CollectRoot(roots[i].get(), &results[i]);
      });
    }
    if (!roots.empty()) CollectRoot(roots[0].get(), &results[0]);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_.ok()) return first_error_;
  return results;
}

}  // namespace asterix::hyracks
