// Query executor: lowers an optimized Algebricks plan onto partitioned
// Hyracks pipelines and runs them (paper Fig. 1: the cluster controller
// coordinating Hyracks jobs across node partitions; Fig. 5's final arrow).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebricks/compiler.h"
#include "algebricks/logical.h"
#include "asterix/dataset.h"
#include "asterix/metadata.h"
#include "hyracks/job.h"
#include "hyracks/profile.h"
#include "resource/governor.h"

namespace asterix {

/// Execution-time statistics surfaced with query results.
struct ExecStats {
  std::string optimized_plan;
  double elapsed_ms = 0;
  /// Per-operator profiled plan (set only when profiling is enabled on the
  /// Executor); render with profile->Render() or export with
  /// profile->ToChromeTrace().
  std::shared_ptr<hyracks::PlanProfile> profile;
};

/// Runs plans against the dataset partitions of one pinned catalog.
class Executor {
 public:
  /// `catalog` is the statement's pinned catalog: plans are lowered onto
  /// its partitions, which the caller's pin keeps alive through Run.
  /// `pool` runs the job's producer tasks, its roots after the first and
  /// the parallel sorts under an ordered merge.
  /// `governor` grants each blocking operator its memory; the grant is the
  /// operator's whole budget.
  /// `ctx` is the query's cancellation/deadline token, threaded into the
  /// operator tree, the job's exchanges and every grant request.
  Executor(const meta::Catalog* catalog, size_t num_partitions,
           TempFileManager* tmp, const algebricks::FunctionRegistry* fns,
           hyracks::WorkerPool* pool, resource::MemoryGovernor& governor,
           resource::QueryContext& ctx)
      : catalog_(catalog), num_partitions_(num_partitions), tmp_(tmp),
        fns_(fns), pool_(pool), governor_(governor), ctx_(ctx) {}

  /// Execute a plan whose root schema is [result_var]; returns result values.
  Result<std::vector<adm::Value>> Run(const algebricks::LogicalOpPtr& plan,
                                      ExecStats* stats = nullptr);

  /// Collect a per-operator PlanProfile into ExecStats on the next Run.
  /// Off by default: when off, no profiling wrappers are created at all.
  void set_profiling(bool v) { profiling_ = v; }

 private:
  struct Lowered {
    std::vector<hyracks::StreamPtr> streams;  // one per partition, or one
    std::vector<algebricks::VarId> schema;
    int profile_node = -1;  // PlanProfile node id (-1 when not profiling)
    bool partitioned() const { return streams.size() > 1; }
  };

  Result<Lowered> Build(const algebricks::LogicalOpPtr& op, hyracks::Job* job);
  Result<Lowered> BuildScan(const algebricks::LogicalOp& op);
  /// An ORDER BY: one sort, or per-partition sorts and an ordered merge.
  /// With a `limit` (a LIMIT's limit+offset directly above), every sort
  /// keeps and emits only its first `limit` tuples.
  Result<Lowered> BuildOrder(const algebricks::LogicalOp& op,
                             hyracks::Job* job, std::optional<uint64_t> limit);
  /// Index search sources, profiled. A primary-key lookup searches only
  /// the partition that owns the key.
  Result<Lowered> BuildIndexSearch(const algebricks::LogicalOp& op);
  /// Repartition a lowered child to `n` consumers by hashing `key_evals`
  /// (empty = single consumer merge).
  Result<Lowered> Repartition(Lowered in, size_t n,
                              std::vector<hyracks::TupleEval> key_evals,
                              hyracks::Job* job);

  /// When profiling: add a PlanProfile node for `l` and wrap each stream in
  /// a ProfiledStream (harvests, if given, run at Close — one per stream).
  /// No-op (returns -1) when profiling is off.
  int ProfileWrap(Lowered* l, std::string label, std::vector<int> children,
                  std::vector<hyracks::ProfiledStream::Harvest> harvests = {});

  /// Record a bounded sort's limit on its PlanProfile node, if profiling.
  void NoteSortLimit(int node, std::optional<uint64_t> limit);

  /// The grant for one blocking operator instance: the per-operator size,
  /// split evenly when `share` parallel instances make up one operator.
  Result<resource::MemoryGrant> Grant(size_t share = 1);

  Result<hyracks::TupleEval> Compile(const algebricks::ExprPtr& e,
                                     const std::vector<algebricks::VarId>& s) {
    return algebricks::CompileExpr(e, algebricks::PositionsOf(s), *fns_);
  }

  const meta::Catalog* catalog_;
  size_t num_partitions_;
  TempFileManager* tmp_;
  const algebricks::FunctionRegistry* fns_;
  hyracks::WorkerPool* pool_;
  resource::MemoryGovernor& governor_;
  resource::QueryContext& ctx_;
  bool profiling_ = false;
  hyracks::PlanProfile* profile_ = nullptr;  // set for the duration of Run()
};

}  // namespace asterix
