// MemoryGovernor: the process-wide broker for operator memory grants.
//
// The executor asks the governor for one grant per blocking operator
// (sort/join/group-by) instance, and the grant's bytes are that
// operator's whole budget. With a configured pool (InstanceOptions::
// query_memory_bytes > 0) the governor keeps the sum of outstanding grants
// within the pool, shrinking individual grants toward
// OperatorBudgetDefaults::floor_bytes() under pressure — a shrunk grant
// pushes the operator into its existing spill path instead of failing the
// query. With no pool (the default) every request is satisfied at exactly
// the requested or per-operator size, with no accounting.
//
// Grants are movable RAII handles released at operator Close (or operator
// destruction on error paths), so an aborted query can never strand pool
// bytes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "resource/budgets.h"
#include "resource/query_context.h"

namespace asterix::resource {

class MemoryGovernor;

/// RAII memory grant. Default-constructed grants are empty (bytes() == 0);
/// Fixed grants (an ungoverned governor's, or a standalone operator's)
/// carry bytes but no pool accounting. Release() is idempotent and runs
/// from the destructor.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  /// A grant of `bytes` that no pool accounts for.
  static MemoryGrant Fixed(size_t bytes) { return MemoryGrant(nullptr, bytes); }
  MemoryGrant(MemoryGrant&& o) noexcept : gov_(o.gov_), bytes_(o.bytes_) {
    o.gov_ = nullptr;
    o.bytes_ = 0;
  }
  MemoryGrant& operator=(MemoryGrant&& o) noexcept;
  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;
  ~MemoryGrant() { Release(); }

  /// Granted budget in bytes; 0 only for a default-constructed grant.
  size_t bytes() const { return bytes_; }
  /// Return the bytes to the pool (no-op for empty/ungoverned grants).
  void Release();

 private:
  friend class MemoryGovernor;
  MemoryGrant(MemoryGovernor* gov, size_t bytes) : gov_(gov), bytes_(bytes) {}

  MemoryGovernor* gov_ = nullptr;  // null: no pool accounting to undo
  size_t bytes_ = 0;
};

struct GovernorOptions {
  /// Total bytes the governor may hand out concurrently. 0 = ungoverned:
  /// every Acquire returns a Fixed grant of the requested size.
  size_t pool_bytes = 0;
  OperatorBudgetDefaults defaults;
  /// How long Acquire may wait for the floor to free up before failing
  /// with Status::ResourceExhausted.
  int64_t grant_timeout_ms = 10'000;
};

class MemoryGovernor {
 public:
  explicit MemoryGovernor(GovernorOptions opts) : opts_(opts) {}

  /// Obtain a grant for one operator instance. `want` == 0 means "the
  /// per-operator size". With a pool, the grant is min(want, pool) when
  /// that much is free, shrunk down to the floor under pressure, and the
  /// call blocks (bounded by grant_timeout_ms and `ctx`'s
  /// cancellation/deadline) when even the floor is unavailable.
  Result<MemoryGrant> Acquire(size_t want = 0,
                              const QueryContext* ctx = nullptr)
      AX_EXCLUDES(mu_);

  size_t pool_bytes() const { return opts_.pool_bytes; }
  const OperatorBudgetDefaults& defaults() const { return opts_.defaults; }
  /// Outstanding granted bytes (0 when ungoverned; tests assert this
  /// returns to 0 after queries finish or abort).
  size_t used_bytes() const AX_EXCLUDES(mu_);

 private:
  friend class MemoryGrant;
  void Release(size_t bytes) AX_EXCLUDES(mu_);

  GovernorOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t used_ AX_GUARDED_BY(mu_) = 0;
};

}  // namespace asterix::resource
