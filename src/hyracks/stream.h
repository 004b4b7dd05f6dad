// TupleStream: the pull (Volcano-style) operator interface of the Hyracks
// runtime, plus basic sources/sinks. Physical operators compose into a
// per-partition pipeline tree; exchange operators (exchange.h) bridge
// pipelines across partitions. There is one pull granularity: the batch
// (NextBatch — see batch.h for the execution model).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "hyracks/batch.h"
#include "hyracks/tuple.h"
#include "resource/query_context.h"

namespace asterix::hyracks {

/// Pull interface. Usage: Open(); while (NextBatch(&b) == true) ...;
/// Close(). Streams are single-use and not thread-safe (each lives on one
/// partition).
class TupleStream {
 public:
  virtual ~TupleStream() = default;
  virtual Status Open() = 0;
  /// Produce the next batch into `*out` (overwritten wholesale): up to
  /// kFrameTuples tuples, possibly fewer anywhere mid-stream — consumers
  /// must accept 1-tuple and odd-sized batches. Returns true iff at least
  /// one tuple was produced; false only at end of stream (with *out
  /// empty).
  virtual Result<bool> NextBatch(Batch* out) = 0;
  virtual Status Close() = 0;

  /// Attach the owning query's cancellation/deadline token. The executor
  /// wires every stream it builds; streams that spawn internal sub-streams
  /// (spill run readers, merge fan-ins) forward it themselves. Standalone
  /// streams (tests, DDL plumbing) may leave it unset: CheckAlive and
  /// PollAlive are then no-ops and the stream runs uncancellable.
  void SetQueryContext(const resource::QueryContext* ctx) { query_ctx_ = ctx; }
  const resource::QueryContext* query_context() const { return query_ctx_; }

 protected:
  /// Cancellation check that consults the context on every call, for
  /// loops whose every iteration already costs a batch or more.
  Status CheckAlive() const {
    return query_ctx_ == nullptr ? Status::OK() : query_ctx_->CheckAlive();
  }

  /// Cancellation probe for operator pump loops. Cheap enough to sit in a
  /// per-tuple loop: only every kFrameTuples-th call consults the context,
  /// so a per-tuple loop observes cancellation at batch granularity (the
  /// convention — see resource/query_context.h).
  Status PollAlive() {
    if (query_ctx_ == nullptr || poll_calls_++ % kFrameTuples != 0) {
      return Status::OK();
    }
    return query_ctx_->CheckAlive();
  }

 private:
  const resource::QueryContext* query_ctx_ = nullptr;
  size_t poll_calls_ = 0;
};

using StreamPtr = std::unique_ptr<TupleStream>;

/// Evaluates an expression over a tuple (compiled by Algebricks).
using TupleEval = std::function<Result<adm::Value>(const Tuple&)>;

/// A source over a materialized vector of tuples. Single-use: tuples are
/// *moved* out (re-opening after a drain yields moved-from husks — no
/// caller re-reads a drained source; see stream single-use contract).
class VectorSource : public TupleStream {
 public:
  explicit VectorSource(std::vector<Tuple> tuples)
      : tuples_(std::move(tuples)) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(Batch* out) override {
    out->Clear();
    // Swap-fill, not move-assign: each slot's recycled fields buffer (and
    // any leftover values in it) parks in the drained source tuple instead
    // of being freed per tuple, so the steady-state hot loop does no
    // allocator or destructor traffic at all.
    const size_t take = std::min(kFrameTuples, tuples_.size() - pos_);
    if (take == 0) return false;
    out->FillBySwap(tuples_.data() + pos_, take);
    pos_ += take;
    NoteBatchEmitted(take);
    return true;
  }
  Status Close() override { return Status::OK(); }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// A source driven by callbacks (tests and ad-hoc plumbing). `open` and
/// `close` may be null.
class CallbackSource : public TupleStream {
 public:
  using OpenFn = std::function<Status()>;
  using NextBatchFn = std::function<Result<bool>(Batch*)>;
  using CloseFn = std::function<Status()>;
  CallbackSource(OpenFn open, NextBatchFn next_batch, CloseFn close)
      : open_(std::move(open)), next_batch_(std::move(next_batch)),
        close_(std::move(close)) {}
  Status Open() override { return open_ ? open_() : Status::OK(); }
  Result<bool> NextBatch(Batch* out) override {
    AX_ASSIGN_OR_RETURN(bool more, next_batch_(out));
    if (more) NoteBatchEmitted(out->size());
    return more;
  }
  Status Close() override { return close_ ? close_() : Status::OK(); }

 private:
  OpenFn open_;
  NextBatchFn next_batch_;
  CloseFn close_;
};

/// Drain a stream into a vector (root collector / test helper). With a
/// QueryContext the drain observes cancellation/deadline at batch
/// granularity, like every operator hot loop.
inline Result<std::vector<Tuple>> CollectAll(
    TupleStream* stream, const resource::QueryContext* ctx = nullptr) {
  AX_RETURN_NOT_OK(stream->Open());
  std::vector<Tuple> out;
  Batch batch;
  while (true) {
    if (ctx != nullptr) AX_RETURN_NOT_OK(ctx->CheckAlive());
    AX_ASSIGN_OR_RETURN(bool more, stream->NextBatch(&batch));
    if (!more) break;
    for (size_t i = 0; i < batch.size(); i++) {
      out.push_back(std::move(batch[i]));
    }
  }
  AX_RETURN_NOT_OK(stream->Close());
  return out;
}

/// ADM truthiness for predicates: only boolean true passes (SQL++ 3-valued
/// logic collapses null/missing to "not true").
inline bool IsTrue(const adm::Value& v) {
  return v.is_boolean() && v.AsBool();
}

}  // namespace asterix::hyracks
