#include "resource/governor.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/metrics.h"

namespace asterix::resource {

MemoryGrant& MemoryGrant::operator=(MemoryGrant&& o) noexcept {
  if (this != &o) {
    Release();
    gov_ = o.gov_;
    bytes_ = o.bytes_;
    o.gov_ = nullptr;
    o.bytes_ = 0;
  }
  return *this;
}

void MemoryGrant::Release() {
  if (gov_ != nullptr) gov_->Release(bytes_);
  gov_ = nullptr;
  bytes_ = 0;
}

Result<MemoryGrant> MemoryGovernor::Acquire(size_t want,
                                            const QueryContext* ctx) {
  static metrics::Counter* grants =
      metrics::Registry::Global().GetCounter("resource.grants");
  static metrics::Counter* grant_bytes =
      metrics::Registry::Global().GetCounter("resource.grant_bytes");
  static metrics::Counter* shrinks =
      metrics::Registry::Global().GetCounter("resource.shrinks");

  if (want == 0) want = opts_.defaults.per_operator_bytes;
  if (opts_.pool_bytes == 0) {
    // Ungoverned: exactly the size asked for, with no accounting.
    grants->Add();
    grant_bytes->Add(want);
    return MemoryGrant::Fixed(want);
  }

  want = std::min(want, opts_.pool_bytes);
  size_t floor = std::min(opts_.defaults.floor_bytes(), want);
  if (floor == 0) floor = 1;

  auto give_up_at = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(opts_.grant_timeout_ms);
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    if (ctx != nullptr) AX_RETURN_NOT_OK(ctx->CheckAlive());
    size_t avail = opts_.pool_bytes - used_;
    if (avail >= floor) {
      size_t give = std::min(want, avail);
      used_ += give;
      grants->Add();
      grant_bytes->Add(give);
      if (give < want) shrinks->Add();
      return MemoryGrant(this, give);
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= give_up_at) {
      return Status::ResourceExhausted(
          "memory governor: timed out waiting for " + std::to_string(floor) +
          " bytes (pool " + std::to_string(opts_.pool_bytes) + ", in use " +
          std::to_string(used_) + ")");
    }
    // Releases notify cv_; the short slice only bounds how stale a
    // cancellation/deadline observation can get while nothing releases.
    auto slice = std::min(give_up_at, now + std::chrono::milliseconds(20));
    if (ctx != nullptr && ctx->has_deadline()) {
      slice = std::min(slice, ctx->deadline());
    }
    cv_.wait_until(l, slice);
  }
}

size_t MemoryGovernor::used_bytes() const {
  std::lock_guard<std::mutex> l(mu_);
  return used_;
}

void MemoryGovernor::Release(size_t bytes) {
  {
    std::lock_guard<std::mutex> l(mu_);
    assert(bytes <= used_ && "grant release exceeds outstanding bytes");
    used_ -= bytes;
  }
  cv_.notify_all();
}

}  // namespace asterix::resource
