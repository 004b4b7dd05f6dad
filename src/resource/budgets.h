// The working-memory size of one blocking operator (sort, hash join, hash
// group-by: paper Fig. 2's working-memory consumers). One knob,
// InstanceOptions::op_memory_budget_bytes, sets it; MemoryGovernor hands
// it out as each operator's grant, and the grant is the operator's only
// budget.
#pragma once

#include <algorithm>
#include <cstddef>

namespace asterix::resource {

/// Default grant size per blocking operator, and the floor the governor
/// will never shrink a grant below. The floor is what keeps a loaded pool
/// making progress: a spilling sort with 1 MiB still terminates, it just
/// writes more runs.
struct OperatorBudgetDefaults {
  static constexpr size_t kFloorBytes = 1u << 20;

  size_t per_operator_bytes = 32u << 20;

  /// Smallest grant the governor hands out under memory pressure: 1 MiB,
  /// or the per-operator size when that is smaller. Grants shrunk toward
  /// it push operators into their spill paths instead of failing the
  /// query.
  size_t floor_bytes() const {
    return std::min(kFloorBytes, per_operator_bytes);
  }
};

}  // namespace asterix::resource
