// Job executor: runs a partitioned dataflow to completion. A job is a set
// of producer tasks (each drives a pipeline into an exchange) plus root
// streams (one per output partition) whose tuples the caller collects.
// This is the "Hyracks jobs coordinated by the cluster controller" of
// paper Fig. 1. The calling thread collects root 0 itself; every other
// root and every producer task runs on the Instance's persistent
// WorkerPool, standing in for the node controllers' worker threads. A job
// with one root and no producer tasks, such as a pk lookup pruned to one
// partition, therefore runs entirely on the caller's thread.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_annotations.h"
#include "hyracks/exchange.h"
#include "hyracks/stream.h"
#include "hyracks/worker_pool.h"

namespace asterix::hyracks {

class Job {
 public:
  /// `pool` runs the job's producer tasks and roots 1..n-1; it must
  /// outlive RunCollect.
  explicit Job(WorkerPool* pool) : pool_(pool) {}
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;
  ~Job();

  /// Attach the query's cancellation context: every exchange (present and
  /// future) gets deadline-aware queue waits, a cancel listener poisons
  /// them all so blocked producers/consumers wake, and the root collectors
  /// check liveness per batch. Call before RunCollect; the destructor
  /// detaches the listeners (after which the context may outlive the job).
  void SetContext(resource::QueryContext* ctx);

  /// Register an exchange; the job owns it for its lifetime.
  Exchange* AddExchange(size_t n_producers, size_t n_consumers,
                        size_t queue_capacity = 4096);

  /// Register a producer task: a function that drives one upstream
  /// partition into an exchange (typically Exchange::RunProducer).
  void AddProducerTask(std::function<Status()> task);

  /// Run every producer task and every root but the first on the pool,
  /// collect root 0 on the calling thread, wait for all of them, and
  /// return each root's tuples.
  Result<std::vector<std::vector<Tuple>>> RunCollect(
      std::vector<StreamPtr> roots);

 private:
  void NoteStatus(const Status& st) AX_EXCLUDES(mu_);
  /// Wire one exchange to ctx_: queue contexts + a poisoning listener.
  void AttachExchange(Exchange* ex);
  /// Pull `root` to completion into `*out`; on failure record the error
  /// and poison every exchange so blocked producers unwind.
  void CollectRoot(TupleStream* root, std::vector<Tuple>* out);

  WorkerPool* pool_;
  // Populated single-threaded during job construction; read-only while the
  // job's producers and collectors run.
  std::vector<std::unique_ptr<Exchange>> exchanges_;
  std::vector<std::function<Status()>> tasks_;
  resource::QueryContext* ctx_ = nullptr;
  std::vector<resource::QueryContext::ListenerId> listener_ids_;
  std::mutex mu_;
  Status first_error_ AX_GUARDED_BY(mu_);
};

}  // namespace asterix::hyracks
