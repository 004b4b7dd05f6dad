// Fixture: Tree locks the mu_ it inherits from Core. The lock resolves to
// Core::mu_'s rank entry (a bare `mu_` suffix is ambiguous with Other::mu_),
// so Tree::Bad sleeping under it is a finding, while Tree::Good, which calls
// a Core helper that REQUIRES mu_ and waits on it, is the exempt
// cooperative-drain pattern.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/thread_annotations.h"

class Core {
 protected:
  void WaitLocked(std::unique_lock<std::mutex>& lock) AX_REQUIRES(mu_) {
    while (n_ == 0) cv_.wait(lock);
  }
  std::mutex mu_;
  std::condition_variable cv_;
  int n_ AX_GUARDED_BY(mu_) = 0;
};

class Other {
  std::mutex mu_;
  int m_ AX_GUARDED_BY(mu_) = 0;
};

class Tree : public Core {
 public:
  void Bad() {
    std::lock_guard<std::mutex> l(mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // finding
  }
  void Good() {
    std::unique_lock<std::mutex> lock(mu_);
    WaitLocked(lock);  // exempt: the callee requires the held mutex
  }
};
