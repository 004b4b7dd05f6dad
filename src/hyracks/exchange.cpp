#include "hyracks/exchange.h"

#include "adm/serde.h"

namespace asterix::hyracks {

namespace {
// Registry counters for exchange traffic (global totals; per-exchange
// attribution lives in ExchangeStats). Cached pointers: registration locks
// only on first use.
metrics::Counter* FramesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.exchange.frames_sent");
  return c;
}
metrics::Counter* TuplesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.exchange.tuples_sent");
  return c;
}
metrics::Histogram* ProducerWaitHist() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "hyracks.exchange.producer_wait_ns");
  return h;
}
metrics::Histogram* ConsumerWaitHist() {
  static metrics::Histogram* h = metrics::Registry::Global().GetHistogram(
      "hyracks.exchange.consumer_wait_ns");
  return h;
}
}  // namespace

void BoundedTupleQueue::SetProducerCount(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  open_producers_ = n;
}

void BoundedTupleQueue::SetContext(const resource::QueryContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx_ = ctx;
}

void BoundedTupleQueue::PoisonLocked(const Status& st) {
  if (poison_.ok()) poison_ = st;
  cv_pop_.notify_all();
  cv_push_.notify_all();
}

Status BoundedTupleQueue::PushFrame(Frame frame, Frame* recycled) {
  if (frame.empty()) return Status::OK();
  const uint64_t n_tuples = frame.size();
  std::unique_lock<std::mutex> lock(mu_);
  // Explicit wait loop (not a predicate lambda) so thread-safety analysis
  // sees the guarded accesses under the lock.
  if (q_.size() >= capacity_frames_ && poison_.ok()) {
    // Producer is blocked by downstream backpressure: time the wait.
    const uint64_t t0 = metrics::Enabled() ? metrics::NowNs() : 0;
    while (q_.size() >= capacity_frames_ && poison_.ok()) {
      // Cancellation wakes us via Poison (the Job's cancel listener);
      // deadlines have no listener, so bound the sleep by the deadline and
      // self-poison once it passes — that also unblocks the other side.
      if (ctx_ != nullptr) {
        Status alive = ctx_->CheckAlive();
        if (!alive.ok()) {
          PoisonLocked(alive);
          break;
        }
        if (ctx_->has_deadline()) {
          cv_push_.wait_until(lock, ctx_->deadline());
          continue;
        }
      }
      cv_push_.wait(lock);
    }
    if (t0 != 0) {
      const uint64_t waited = metrics::NowNs() - t0;
      ProducerWaitHist()->Record(waited);
      if (stats_) {
        stats_->producer_wait_ns.fetch_add(waited, std::memory_order_relaxed);
      }
    }
  }
  if (!poison_.ok()) return poison_;
  q_.push_back(std::move(frame));
  if (recycled != nullptr && !free_.empty()) {
    *recycled = std::move(free_.back());
    free_.pop_back();
  }
  if (stats_) {
    stats_->frames_sent.fetch_add(1, std::memory_order_relaxed);
    stats_->tuples_sent.fetch_add(n_tuples, std::memory_order_relaxed);
  }
  FramesSentCounter()->Add(1);
  TuplesSentCounter()->Add(n_tuples);
  cv_pop_.notify_one();
  return Status::OK();
}

Result<bool> BoundedTupleQueue::TryPushFrame(Frame* frame) {
  if (frame->empty()) return true;
  const uint64_t n_tuples = frame->size();
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  if (q_.size() >= capacity_frames_) return false;
  q_.push_back(std::move(*frame));
  frame->clear();
  if (!free_.empty()) {
    *frame = std::move(free_.back());
    free_.pop_back();
  }
  if (stats_) {
    stats_->frames_sent.fetch_add(1, std::memory_order_relaxed);
    stats_->tuples_sent.fetch_add(n_tuples, std::memory_order_relaxed);
  }
  FramesSentCounter()->Add(1);
  TuplesSentCounter()->Add(n_tuples);
  cv_pop_.notify_one();
  return true;
}

size_t BoundedTupleQueue::ApproxFrames() {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

Result<bool> BoundedTupleQueue::PopFrame(Frame* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (q_.empty() && open_producers_ != 0 && poison_.ok()) {
    // Consumer is starved waiting for upstream production: time the wait.
    const uint64_t t0 = metrics::Enabled() ? metrics::NowNs() : 0;
    while (q_.empty() && open_producers_ != 0 && poison_.ok()) {
      // Same cancellation/deadline discipline as the producer wait above.
      if (ctx_ != nullptr) {
        Status alive = ctx_->CheckAlive();
        if (!alive.ok()) {
          PoisonLocked(alive);
          break;
        }
        if (ctx_->has_deadline()) {
          cv_pop_.wait_until(lock, ctx_->deadline());
          continue;
        }
      }
      cv_pop_.wait(lock);
    }
    if (t0 != 0) {
      const uint64_t waited = metrics::NowNs() - t0;
      ConsumerWaitHist()->Record(waited);
      if (stats_) {
        stats_->consumer_wait_ns.fetch_add(waited, std::memory_order_relaxed);
      }
    }
  }
  if (!poison_.ok()) return poison_;
  if (q_.empty()) return false;  // all producers done
  // Recycle the drained frame the consumer brought back: its vector keeps
  // its capacity, so a producer refilling it skips the per-frame realloc.
  if (out->capacity() > 0 && free_.size() < kMaxFreeFrames) {
    out->clear();
    free_.push_back(std::move(*out));
  }
  *out = std::move(q_.front());
  q_.pop_front();
  cv_push_.notify_one();
  return true;
}

void BoundedTupleQueue::CloseOneProducer() {
  std::lock_guard<std::mutex> lock(mu_);
  open_producers_--;
  if (open_producers_ <= 0) cv_pop_.notify_all();
}

void BoundedTupleQueue::Poison(const Status& st) {
  std::lock_guard<std::mutex> lock(mu_);
  PoisonLocked(st);
}

Exchange::Exchange(size_t n_producers, size_t n_consumers,
                   size_t queue_capacity)
    : n_producers_(n_producers), stats_(std::make_shared<ExchangeStats>()) {
  for (size_t i = 0; i < n_consumers; i++) {
    auto q = std::make_shared<BoundedTupleQueue>(queue_capacity, stats_);
    q->SetProducerCount(static_cast<int>(n_producers));
    queues_.push_back(std::move(q));
  }
}

namespace {
/// Consumer-side stream over one queue: hands each popped frame straight
/// out as a batch (one vector swap, zero per-tuple work).
class QueueStream : public TupleStream {
 public:
  explicit QueueStream(std::shared_ptr<BoundedTupleQueue> q)
      : q_(std::move(q)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> NextBatch(Batch* out) override {
    out->Clear();
    // Destroy the previous batch's leftovers here, outside the queue lock;
    // PopFrame then parks the empty vector on the queue's free list.
    frame_.clear();
    AX_ASSIGN_OR_RETURN(bool more, q_->PopFrame(&frame_));
    if (!more) return false;
    // Swap the whole frame into the batch; the batch's previous slot
    // vector lands in frame_ and is recycled by the next PopFrame.
    out->SwapVector(&frame_);
    NoteBatchEmitted(out->size());
    return true;
  }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<BoundedTupleQueue> q_;
  Frame frame_;
};
}  // namespace

void Exchange::PoisonAll(const Status& st) {
  for (auto& q : queues_) q->Poison(st);
}

void Exchange::SetContext(const resource::QueryContext* ctx) {
  ctx_ = ctx;
  for (auto& q : queues_) q->SetContext(ctx);
}

StreamPtr Exchange::ConsumerStream(size_t consumer) {
  return std::make_unique<QueueStream>(queues_[consumer]);
}

Status Exchange::RunProducer(TupleStream* upstream, const RoutingFn& route) {
  auto fail = [&](const Status& st) {
    for (auto& q : queues_) q->Poison(st);
    return st;
  };
  // Per-consumer output frames: tuples accumulate locally and ship in
  // batches, amortizing queue synchronization (Hyracks frames). Frames are
  // reserved up front and recycled through the queue's free list, so the
  // steady state allocates no frame vectors.
  std::vector<Frame> pending(queues_.size());
  for (auto& f : pending) f.reserve(kFrameTuples);
  auto flush = [&](size_t c) -> Status {
    if (pending[c].empty()) return Status::OK();
    Frame next;
    Status ps = queues_[c]->PushFrame(std::move(pending[c]), &next);
    pending[c] = std::move(next);  // recycled (or empty) replacement
    if (pending[c].capacity() < kFrameTuples) pending[c].reserve(kFrameTuples);
    return ps;
  };
  Status st = upstream->Open();
  if (!st.ok()) return fail(st);
  // Pull batch-at-a-time and route each batch in one tight pass: the
  // virtual-call + Result overhead and the routing-lambda indirection are
  // paid per batch boundary, not per tuple-by-tuple Next chain.
  Batch batch;
  while (true) {
    if (ctx_ != nullptr) {
      Status alive = ctx_->CheckAlive();
      if (!alive.ok()) return fail(alive);
    }
    auto more = upstream->NextBatch(&batch);
    if (!more.ok()) return fail(more.status());
    if (!more.value()) break;
    for (size_t i = 0; i < batch.size(); i++) {
      Tuple& t = batch[i];
      auto target = route(t);
      if (!target.ok()) return fail(target.status());
      if (target.value() == kBroadcastAll) {
        for (size_t c = 0; c < queues_.size(); c++) {
          pending[c].push_back(t);
          if (pending[c].size() >= kFrameTuples) {
            Status ps = flush(c);
            if (!ps.ok()) return fail(ps);
          }
        }
      } else {
        size_t c = target.value() % queues_.size();
        pending[c].push_back(std::move(t));
        if (pending[c].size() >= kFrameTuples) {
          Status ps = flush(c);
          if (!ps.ok()) return fail(ps);
        }
      }
    }
  }
  st = upstream->Close();
  if (!st.ok()) return fail(st);
  for (size_t c = 0; c < queues_.size(); c++) {
    Status ps = flush(c);
    if (!ps.ok()) return fail(ps);
  }
  for (auto& q : queues_) q->CloseOneProducer();
  return Status::OK();
}

Exchange::RoutingFn Exchange::HashRoute(std::vector<TupleEval> keys,
                                        size_t n_consumers) {
  return [keys = std::move(keys), n_consumers](
             const Tuple& t) -> Result<size_t> {
    uint64_t h = 1469598103934665603ULL;
    for (const auto& k : keys) {
      AX_ASSIGN_OR_RETURN(adm::Value v, k(t));
      h ^= v.Hash();
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h % n_consumers);
  };
}

Exchange::RoutingFn Exchange::SingleRoute() {
  return [](const Tuple&) -> Result<size_t> { return size_t{0}; };
}

Exchange::RoutingFn Exchange::BroadcastRoute() {
  return [](const Tuple&) -> Result<size_t> { return kBroadcastAll; };
}

}  // namespace asterix::hyracks
