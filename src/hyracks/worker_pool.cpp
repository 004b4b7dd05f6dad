#include "hyracks/worker_pool.h"

#include <utility>

#include "common/metrics.h"

namespace asterix::hyracks {

namespace {
metrics::Counter* PoolThreadsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.pool.threads_started");
  return c;
}
metrics::Counter* PoolTasksCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("hyracks.pool.tasks");
  return c;
}
}  // namespace

WorkerPool::~WorkerPool() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : threads) t.join();
}

void WorkerPool::Submit(std::function<void()> task,
                        std::function<void()> on_done) {
  PoolTasksCounter()->Add(1);
  bool spawned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(task), std::move(on_done)});
    if (queue_.size() > idle_) {
      // Every idle worker already has a queued task to take: this one gets
      // a new thread rather than waiting behind a task that may block.
      idle_++;
      threads_.emplace_back([this] { WorkerLoop(); });
      spawned = true;
    }
  }
  if (spawned) {
    PoolThreadsCounter()->Add(1);
  } else {
    cv_.notify_one();
  }
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Explicit wait loop (not a predicate lambda) so thread-safety
      // analysis sees the guarded accesses under the lock.
      while (queue_.empty() && !stop_) cv_.wait(lock);
      if (queue_.empty()) return;  // stop_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      idle_--;
    }
    task.run();
    task.run = nullptr;  // release the task's captures first
    {
      std::lock_guard<std::mutex> lock(mu_);
      idle_++;  // available again before anyone learns the task finished
    }
    if (task.on_done) task.on_done();
  }
}

void TaskGroup::Spawn(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_++;
  }
  pool_->Submit(std::move(task), [this] {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ > 0) cv_.wait(lock);
}

}  // namespace asterix::hyracks
