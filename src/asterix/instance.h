// Instance: the embedded "cluster" facade of asterix-lite — the public
// entry point a downstream user adopts. One Instance simulates the paper's
// Fig. 1 deployment: a cluster controller plus N node partitions, each
// with LSM storage, a WAL, and worker threads, all within one process.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebricks/optimizer.h"
#include "asterix/dataset.h"
#include "asterix/executor.h"
#include "asterix/metadata.h"
#include "common/thread_annotations.h"
#include "feeds/sink.h"
#include "resource/admission.h"
#include "sqlpp/ast.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"

namespace asterix {

namespace feeds {
class FeedManager;
}

struct InstanceOptions {
  std::string base_dir;
  size_t num_partitions = 2;
  size_t buffer_cache_pages = 4096;      // Fig. 2's disk buffer cache
  size_t lsm_mem_budget_bytes = 4u << 20;  // per-LSM memory component budget
  size_t op_memory_budget_bytes = 32u << 20;  // Fig. 2's working memory
  txn::SyncMode wal_sync = txn::SyncMode::kNoSync;
  storage::MergePolicy merge_policy;
  /// Worker threads of the shared storage::MaintenanceScheduler that runs
  /// LSM flushes and merges off the write path (paper §VII). 0 reverts to
  /// inline (synchronous) maintenance on the writing thread.
  size_t maintenance_threads = 2;
  /// Backpressure bound: per tree, how many immutable memory components
  /// may be pending flush before a write blocks (async maintenance only).
  size_t max_pending_immutables = 2;
  algebricks::OptimizerOptions optimizer;
  /// Collect a per-operator PlanProfile for every query (see
  /// hyracks/profile.h). Zero cost when off; a few percent when on.
  bool profile_queries = false;
  /// Process-wide query-memory pool brokered by resource::MemoryGovernor.
  /// Blocking operators (sort/join/group-by) draw per-operator grants from
  /// it, shrinking toward the per-operator floor (and spilling) under
  /// pressure. 0 = ungoverned: every operator gets
  /// op_memory_budget_bytes exactly, as before.
  size_t query_memory_bytes = 0;
  /// Queries allowed to run concurrently; later arrivals queue FIFO behind
  /// them. 0 = unlimited (admission control disabled).
  size_t max_concurrent_queries = 0;
  /// FIFO admission waiters allowed beyond the running set; the next
  /// arrival is rejected with ResourceExhausted (load shedding).
  size_t admission_queue_limit = 64;
  /// Longest a query waits in the admission queue before being rejected.
  int64_t admission_timeout_ms = 10'000;
  /// Default per-query deadline applied when QueryRunOptions.deadline_ms
  /// is 0. 0 = no deadline.
  int64_t query_deadline_ms = 0;
};

/// Per-call execution options for Query/QueryAql.
struct QueryRunOptions {
  /// Client-chosen id for Instance::CancelQuery; "" auto-generates one.
  std::string client_context_id;
  /// Abort the query with Status::DeadlineExceeded after this long
  /// (includes admission-queue time). 0 = InstanceOptions default.
  int64_t deadline_ms = 0;
};

struct QueryResult {
  std::vector<adm::Value> rows;
  std::string plan;        // optimized logical plan (EXPLAIN-ish)
  double elapsed_ms = 0;
  int64_t mutated = 0;     // rows inserted/deleted for DML
  /// Set when InstanceOptions.profile_queries: the rendered profiled plan
  /// tree and the full profile (ToChromeTrace() exports a trace).
  std::string profiled_plan;
  std::shared_ptr<hyracks::PlanProfile> profile;
};

/// The embedded BDMS. Thread-safe: each statement pins one immutable
/// catalog snapshot and reads only it. DDL publishes new snapshots; readers
/// never wait for it, and writers wait only while CREATE INDEX backfills
/// their dataset (DESIGN.md §4j). Implements
/// feeds::FeedSink so the feed pipeline can apply records without a
/// dependency on this facade (layering: feeds must not include asterix).
class Instance : public feeds::FeedSink {
 public:
  static Result<std::unique_ptr<Instance>> Open(const InstanceOptions& options);
  ~Instance();

  /// Execute one SQL++ statement (DDL, DML or query).
  Result<QueryResult> Execute(const std::string& statement);
  /// Execute a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(const std::string& script);
  /// Execute an already parsed statement (the AQL front end reuses this).
  Result<QueryResult> ExecuteParsed(const sqlpp::ast::Statement& st);
  /// Run a query with custom optimizer settings (benchmark ablations).
  Result<QueryResult> QueryWithOptions(
      const std::string& query, const algebricks::OptimizerOptions& opts);

  /// Run a SELECT query with workload-management options: a cancellation
  /// id and/or a deadline. Subject to admission control like Execute.
  Result<QueryResult> Query(const std::string& query,
                            const QueryRunOptions& run);

  /// Cooperatively cancel a running (or admission-queued) query by its
  /// client_context_id. The query unwinds at its next batch boundary with
  /// Status::Cancelled, releasing memory grants, its admission slot and
  /// spill files. NotFound if no such query is active.
  Status CancelQuery(const std::string& client_context_id)
      AX_EXCLUDES(queries_mu_);

  /// Run a classic AQL (FLWOR) query — the second language front end that
  /// shares Algebricks and Hyracks with SQL++ (paper Fig. 4, §IV-A).
  Result<QueryResult> QueryAql(const std::string& query,
                               const QueryRunOptions& run = {});

  // ---- direct (non-SQL) API -------------------------------------------------
  // UpsertValue/DeleteByKey are the feeds::FeedSink surface.
  Status UpsertValue(const std::string& dataset,
                     const adm::Value& record) override;
  Status InsertValue(const std::string& dataset, const adm::Value& record);
  Result<bool> DeleteByKey(const std::string& dataset,
                           const adm::Value& pk) override;
  Result<bool> GetByKey(const std::string& dataset, const adm::Value& pk,
                        adm::Value* record);

  /// Flush every dataset partition and truncate the WALs.
  Status Checkpoint();

  meta::MetadataManager* metadata() { return metadata_.get(); }
  storage::BufferCache* buffer_cache() { return cache_.get(); }
  /// Shared background LSM maintenance pool (null when
  /// maintenance_threads == 0 — inline maintenance).
  storage::MaintenanceScheduler* maintenance() { return maintenance_.get(); }
  size_t num_partitions() const { return options_.num_partitions; }
  txn::LockManager* lock_manager() { return &locks_; }
  /// Data-feed connections (CREATE FEED / CONNECT FEED live here).
  feeds::FeedManager* feeds() { return feeds_.get(); }
  /// Process-wide memory broker (always present; ungoverned when
  /// query_memory_bytes == 0).
  resource::MemoryGovernor* governor() { return governor_.get(); }
  /// Admission controller; null when max_concurrent_queries == 0.
  resource::AdmissionController* admission() { return admission_.get(); }

  /// Non-fatal conditions noticed during Open (e.g. a torn WAL tail that
  /// recovery dropped). Also printed to stderr at recovery time.
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

  /// Cumulative primary-storage stats across partitions of one dataset.
  Result<storage::LsmStats> DatasetStats(const std::string& dataset) const;

 private:
  // Out of line: inline member-cleanup instantiation would require the
  // forward-declared FeedManager to be complete in every includer.
  explicit Instance(InstanceOptions options);
  /// Open the partitions of internal dataset `ds`; with `create`, from
  /// empty storage.
  Status OpenPartitions(meta::Catalog::Dataset* ds, bool create) const;
  /// Remove from each partition directory every tree the catalog does not
  /// name: drops and CREATEs that a crash interrupted leave them behind.
  Status SweepDroppedStorage(const meta::Catalog& catalog);
  Status RecoverFromWal();
  /// Find the partition of internal dataset `ds` that owns the key and
  /// lock `dataset/<key>` in `mode` for `scope`'s lifetime. One encoding of
  /// the key serves both. `value` is the key, or with `is_record` a whole
  /// record: it is then validated against the dataset's type and keyed by
  /// its primary-key field.
  Result<DatasetPartition*> RouteAndLock(const meta::Catalog::Dataset& ds,
                                         const adm::Value& value,
                                         bool is_record, txn::LockMode mode,
                                         txn::TxnScope* scope);
  /// The prologue of every keyed write: pin the catalog, pass the
  /// dataset's write gate, route and lock exclusively, then run `write` on
  /// the owning partition. NotFound for unknown and external datasets, and
  /// when `dataset_id` is not 0 and the dataset now named `dataset` has
  /// another id (the one that had it was dropped).
  template <typename Write>
  auto KeyedWrite(const std::string& dataset, uint64_t dataset_id,
                  const adm::Value& value, bool is_record, const Write& write)
      -> decltype(write(static_cast<DatasetPartition*>(nullptr)));
  /// Produces a query's logical plan from the query's pinned catalog.
  /// RunQuery calls it after admission, so a shed or queued query costs no
  /// translation.
  using PlanProducer = std::function<Result<algebricks::LogicalOpPtr>(
      const meta::Catalog&)>;
  /// The one query path for both languages: register the query, admit it,
  /// pin the catalog, translate, optimize and execute.
  Result<QueryResult> RunQuery(const PlanProducer& translate,
                               const algebricks::OptimizerOptions& opts,
                               const QueryRunOptions& run = {});
  /// The SQL++ plan producer for a parsed SELECT (`q` must outlive it).
  static PlanProducer SqlppPlan(const sqlpp::ast::SelectQuery& q);
  /// Make the query visible to CancelQuery. `*out_id` is the registered id
  /// (generated when `wanted_id` is empty); AlreadyExists on a duplicate.
  Status RegisterQuery(const std::string& wanted_id,
                       std::shared_ptr<resource::QueryContext> ctx,
                       std::string* out_id) AX_EXCLUDES(queries_mu_);
  void UnregisterQuery(const std::string& id) AX_EXCLUDES(queries_mu_);
  Result<QueryResult> RunDml(const sqlpp::ast::Statement& st);
  Status RunDdl(const sqlpp::ast::Statement& st);
  /// CREATE INDEX: keep the dataset's writers out, build partitions with
  /// the new index, backfill and flush it, then commit and publish.
  Status CreateIndex(const sqlpp::ast::Statement& st);

  InstanceOptions options_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<storage::MaintenanceScheduler> maintenance_;
  std::unique_ptr<TempFileManager> tmp_;
  std::vector<std::unique_ptr<txn::LogManager>> wals_;  // one per partition
  // The catalog, which owns the dataset partitions. Declared after the
  // buffer cache, maintenance pool and WALs, so it is destroyed before
  // them: each LSM tree's destructor waits for its in-flight maintenance
  // tasks, which run on maintenance_ (null for inline maintenance).
  std::unique_ptr<meta::MetadataManager> metadata_;
  txn::LockManager locks_;
  std::unique_ptr<resource::MemoryGovernor> governor_;
  std::unique_ptr<resource::AdmissionController> admission_;
  // Persistent query workers (Hyracks node-controller threads); parked
  // workers are joined when the Instance is destroyed.
  hyracks::WorkerPool workers_;
  // Active-query registry for CancelQuery. Queries register BEFORE
  // admission so a queued query is cancellable too. shared_ptr: CancelQuery
  // may hold the context briefly after the query thread deregisters.
  std::mutex queries_mu_;
  std::map<std::string, std::shared_ptr<resource::QueryContext>> queries_
      AX_GUARDED_BY(queries_mu_);
  uint64_t next_query_id_ AX_GUARDED_BY(queries_mu_) = 1;
  std::vector<std::string> recovery_warnings_;  // written only during Open
  // Declared last: feed pipelines upsert through this Instance, so the
  // manager (which joins those threads) must be destroyed before any of
  // the members above.
  std::unique_ptr<feeds::FeedManager> feeds_;
};

}  // namespace asterix
