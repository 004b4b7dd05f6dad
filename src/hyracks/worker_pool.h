// Persistent worker threads for Hyracks jobs: the node-controller threads
// of paper Fig. 1, which exist before a job arrives and outlive it. One
// pool per Instance serves every query's producer tasks, every root
// stream but the first (the caller runs that one, see Job::RunCollect),
// and the parallel children of an ordered merge.
//
// Exchanges block: a producer waits on a full queue until its consumer
// drains it. A fixed-size pool could therefore park every worker on a
// queue whose consumer never got a thread, and a live job would hang. The
// pool is elastic instead: a submitted task starts at once, on a parked
// worker if one is idle, otherwise on a new thread. Workers park when their
// task finishes and are joined by the destructor, so a steady workload
// starts threads only until the pool reaches its peak concurrency. The
// hyracks.pool.tasks and hyracks.pool.threads_started counters show both.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace asterix::hyracks {

class WorkerPool {
 public:
  WorkerPool() = default;
  /// Joins every worker. No task may still be running or queued: callers
  /// wait for their tasks (TaskGroup::Wait) before the pool dies.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Start `task` now on an idle worker, or on a new thread if none is
  /// idle. Never waits for another task. Thread-safe. `on_done` (optional)
  /// runs on the same worker after `task` returns and after the worker is
  /// available again, so a caller that waits for it and then submits more
  /// work reuses the worker instead of starting a thread.
  void Submit(std::function<void()> task,
              std::function<void()> on_done = nullptr) AX_EXCLUDES(mu_);

 private:
  void WorkerLoop() AX_EXCLUDES(mu_);

  struct Task {
    std::function<void()> run, on_done;
  };

  std::mutex mu_;
  std::condition_variable cv_;  // parked workers wait for a task or stop
  std::deque<Task> queue_ AX_GUARDED_BY(mu_);
  // Workers not running a task: parked, about to park, or just started.
  // Submit keeps queue_.size() <= idle_, so every queued task has a worker.
  size_t idle_ AX_GUARDED_BY(mu_) = 0;
  bool stop_ AX_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ AX_GUARDED_BY(mu_);
};

/// A set of tasks on a WorkerPool that the spawning thread waits for. The
/// destructor waits too, so nothing a task captured by reference can die
/// under it.
class TaskGroup {
 public:
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Run `task` on the pool as a member of this group.
  void Spawn(std::function<void()> task) AX_EXCLUDES(mu_);
  /// Block until every spawned task has returned.
  void Wait() AX_EXCLUDES(mu_);

 private:
  WorkerPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ AX_GUARDED_BY(mu_) = 0;
};

}  // namespace asterix::hyracks
