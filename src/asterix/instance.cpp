#include "asterix/instance.h"

#include <chrono>
#include <cstdio>
#include <functional>

#include "adm/key_encoder.h"
#include "aql/aql.h"
#include "adm/serde.h"
#include "asterix/feed_manager.h"
#include "sqlpp/parser.h"
#include "sqlpp/translator.h"
#include "storage/maintenance.h"

namespace asterix {

using adm::Value;
using sqlpp::ast::Statement;

namespace {
Result<adm::TypePtr> ResolveTypeSpec(const sqlpp::ast::TypeSpec& spec,
                                     const meta::MetadataManager& metadata) {
  using sqlpp::ast::TypeSpec;
  switch (spec.kind) {
    case TypeSpec::kArray: {
      AX_ASSIGN_OR_RETURN(auto item, ResolveTypeSpec(*spec.item, metadata));
      return adm::Type::MakeArray(item);
    }
    case TypeSpec::kMultiset: {
      AX_ASSIGN_OR_RETURN(auto item, ResolveTypeSpec(*spec.item, metadata));
      return adm::Type::MakeMultiset(item);
    }
    case TypeSpec::kNamed: {
      auto primitive = adm::PrimitiveTagFromName(spec.name);
      if (primitive.ok()) return adm::Type::Primitive(primitive.value());
      return metadata.GetType(spec.name);
    }
  }
  return Status::Internal("bad type spec");
}
}  // namespace

Result<std::unique_ptr<Instance>> Instance::Open(
    const InstanceOptions& options) {
  if (options.base_dir.empty() || options.num_partitions == 0) {
    return Status::InvalidArgument("base_dir and num_partitions are required");
  }
  auto inst = std::unique_ptr<Instance>(new Instance(options));
  AX_RETURN_NOT_OK(fs::CreateDirs(options.base_dir));
  AX_RETURN_NOT_OK(fs::CreateDirs(options.base_dir + "/tmp"));
  inst->cache_ =
      std::make_unique<storage::BufferCache>(options.buffer_cache_pages);
  if (options.maintenance_threads > 0) {
    inst->maintenance_ = std::make_unique<storage::MaintenanceScheduler>(
        options.maintenance_threads);
  }
  inst->tmp_ = std::make_unique<TempFileManager>(options.base_dir + "/tmp");
  resource::GovernorOptions gov;
  gov.pool_bytes = options.query_memory_bytes;
  gov.defaults =
      resource::OperatorBudgetDefaults::Uniform(options.op_memory_budget_bytes);
  inst->governor_ = std::make_unique<resource::MemoryGovernor>(gov);
  if (options.max_concurrent_queries > 0) {
    resource::AdmissionOptions adm;
    adm.max_concurrent = options.max_concurrent_queries;
    adm.queue_limit = options.admission_queue_limit;
    adm.queue_timeout_ms = options.admission_timeout_ms;
    inst->admission_ = std::make_unique<resource::AdmissionController>(adm);
  }
  AX_ASSIGN_OR_RETURN(inst->metadata_, meta::MetadataManager::Open(
                                           options.base_dir + "/metadata.adm"));
  for (size_t p = 0; p < options.num_partitions; p++) {
    std::string pdir = options.base_dir + "/p" + std::to_string(p);
    AX_RETURN_NOT_OK(fs::CreateDirs(pdir));
    AX_ASSIGN_OR_RETURN(
        auto wal, txn::LogManager::Open(pdir + "/wal.log", options.wal_sync));
    inst->wals_.push_back(std::move(wal));
  }
  // Reopen existing datasets, then replay WALs.
  for (const auto& def : inst->metadata_->AllDatasets()) {
    if (!def.external) AX_RETURN_NOT_OK(inst->OpenDatasetPartitions(def));
  }
  AX_RETURN_NOT_OK(inst->RecoverFromWal());
  inst->feeds_ = std::make_unique<feeds::FeedManager>(
      inst.get(), inst->metadata_.get(), options.base_dir + "/feeds");
  return inst;
}

Instance::Instance(InstanceOptions options) : options_(std::move(options)) {}

Instance::~Instance() = default;

Status Instance::OpenDatasetPartitions(const meta::DatasetDef& def) {
  auto& parts = datasets_[def.name];
  parts.clear();
  for (size_t p = 0; p < options_.num_partitions; p++) {
    PartitionOptions po;
    po.dir = options_.base_dir + "/p" + std::to_string(p) + "/" + def.name;
    po.cache = cache_.get();
    po.mem_budget_bytes = options_.lsm_mem_budget_bytes;
    po.merge_policy = options_.merge_policy;
    po.wal = wals_[p].get();
    po.partition_id = static_cast<uint32_t>(p);
    po.scheduler = maintenance_.get();
    po.max_pending_immutables = options_.max_pending_immutables;
    po.storage_format = def.storage_format == "columnar"
                            ? storage::StorageFormat::kColumnar
                            : storage::StorageFormat::kRow;
    AX_ASSIGN_OR_RETURN(auto part, DatasetPartition::Open(def, po));
    parts.push_back(std::move(part));
  }
  return Status::OK();
}

Status Instance::RecoverFromWal() {
  for (size_t p = 0; p < wals_.size(); p++) {
    txn::ReplayStats stats;
    AX_RETURN_NOT_OK(wals_[p]->Replay(
        [&](const txn::LogRecord& rec) -> Status {
          auto it = datasets_.find(rec.dataset);
          if (it == datasets_.end()) return Status::OK();  // dataset dropped
          DatasetPartition* part = it->second[rec.partition].get();
          if (rec.type == txn::LogRecordType::kUpsert) {
            AX_ASSIGN_OR_RETURN(Value record, adm::Deserialize(rec.value));
            return part->Upsert(record, /*log=*/false);
          }
          AX_ASSIGN_OR_RETURN(auto key_parts, adm::DecodeKey(rec.key));
          if (key_parts.empty()) return Status::Corruption("empty WAL key");
          AX_ASSIGN_OR_RETURN(bool existed,
                              part->DeleteByKey(key_parts[0], /*log=*/false));
          (void)existed;
          return Status::OK();
        },
        &stats));
    if (stats.torn_tail_records > 0) {
      std::string warning =
          "partition " + std::to_string(p) + ": dropped " +
          std::to_string(stats.torn_tail_records) + " torn record(s) (" +
          std::to_string(stats.torn_tail_bytes) + " bytes) at WAL tail";
      std::fprintf(stderr, "[asterix] recovery warning: %s\n",
                   warning.c_str());
      recovery_warnings_.push_back(std::move(warning));
    }
  }
  return Status::OK();
}

Executor Instance::MakeExecutor(resource::QueryContext* ctx) {
  Executor::PartitionMap map;
  for (auto& [name, parts] : datasets_) {
    for (auto& p : parts) map[name].push_back(p.get());
  }
  return Executor(metadata_.get(), std::move(map), options_.num_partitions,
                  tmp_.get(), options_.op_memory_budget_bytes,
                  &algebricks::FunctionRegistry::Instance(), &workers_,
                  governor_.get(), ctx);
}

// ---------------------------------------------------------------------------
// Workload management: query registry, admission, cancellation
// ---------------------------------------------------------------------------

Status Instance::RegisterQuery(const std::string& wanted_id,
                               std::shared_ptr<resource::QueryContext> ctx,
                               std::string* out_id) {
  std::lock_guard<std::mutex> lock(queries_mu_);
  std::string id = wanted_id;
  if (id.empty()) id = "q" + std::to_string(next_query_id_++);
  auto [it, inserted] = queries_.emplace(id, std::move(ctx));
  if (!inserted) {
    return Status::AlreadyExists("query id '" + id + "' is already active");
  }
  *out_id = std::move(id);
  return Status::OK();
}

void Instance::UnregisterQuery(const std::string& id) {
  std::lock_guard<std::mutex> lock(queries_mu_);
  queries_.erase(id);
}

Status Instance::CancelQuery(const std::string& client_context_id) {
  std::shared_ptr<resource::QueryContext> ctx;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(client_context_id);
    if (it == queries_.end()) {
      return Status::NotFound("no active query '" + client_context_id + "'");
    }
    ctx = it->second;
  }
  // Outside queries_mu_: cancel listeners poison exchange queues, whose
  // locks rank above queries_mu_ in DESIGN.md §4a.
  ctx->Cancel();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

Result<QueryResult> Instance::Execute(const std::string& statement) {
  AX_ASSIGN_OR_RETURN(Statement st, sqlpp::ParseStatement(statement));
  return ExecuteParsed(st);
}

Result<QueryResult> Instance::ExecuteScript(const std::string& script) {
  AX_ASSIGN_OR_RETURN(auto statements, sqlpp::ParseScript(script));
  QueryResult last;
  for (const auto& st : statements) {
    AX_ASSIGN_OR_RETURN(last, ExecuteParsed(st));
  }
  return last;
}

Result<QueryResult> Instance::ExecuteParsed(const Statement& st) {
  switch (st.kind) {
    case Statement::kQuery:
      return RunQuery(SqlppPlan(*st.query), options_.optimizer);
    case Statement::kInsert:
    case Statement::kUpsert:
    case Statement::kDelete:
      return RunDml(st);
    default:
      return RunDdl(st);
  }
}

Result<QueryResult> Instance::QueryWithOptions(
    const std::string& query, const algebricks::OptimizerOptions& opts) {
  AX_ASSIGN_OR_RETURN(Statement st, sqlpp::ParseStatement(query));
  if (st.kind != Statement::kQuery) {
    return Status::InvalidArgument("QueryWithOptions expects a SELECT query");
  }
  return RunQuery(SqlppPlan(*st.query), opts);
}

Result<QueryResult> Instance::Query(const std::string& query,
                                    const QueryRunOptions& run) {
  AX_ASSIGN_OR_RETURN(Statement st, sqlpp::ParseStatement(query));
  if (st.kind != Statement::kQuery) {
    return Status::InvalidArgument("Query expects a SELECT query");
  }
  return RunQuery(SqlppPlan(*st.query), options_.optimizer, run);
}

Result<QueryResult> Instance::QueryAql(const std::string& query,
                                       const QueryRunOptions& run) {
  auto translate = [&]() -> Result<algebricks::LogicalOpPtr> {
    AX_ASSIGN_OR_RETURN(auto translated, aql::TranslateAql(query, *metadata_));
    return translated.plan;
  };
  return RunQuery(translate, options_.optimizer, run);
}

Instance::PlanProducer Instance::SqlppPlan(
    const sqlpp::ast::SelectQuery& q) const {
  return [this, &q]() -> Result<algebricks::LogicalOpPtr> {
    sqlpp::Translator translator(metadata_.get());
    AX_ASSIGN_OR_RETURN(auto translated, translator.TranslateQuery(q));
    return translated.plan;
  };
}

Result<QueryResult> Instance::RunQuery(const PlanProducer& translate,
                                       const algebricks::OptimizerOptions& opts,
                                       const QueryRunOptions& run) {
  auto ctx = std::make_shared<resource::QueryContext>();
  int64_t deadline_ms =
      run.deadline_ms > 0 ? run.deadline_ms : options_.query_deadline_ms;
  if (deadline_ms > 0) {
    ctx->SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
  }
  std::string id;
  AX_RETURN_NOT_OK(RegisterQuery(run.client_context_id, ctx, &id));
  auto result = [&]() -> Result<QueryResult> {
    // Registered before admission so a queued query is cancellable; the
    // slot and all grants release via RAII on every path out of here.
    resource::AdmissionSlot slot;
    if (admission_ != nullptr) {
      AX_ASSIGN_OR_RETURN(slot, admission_->Admit(ctx.get()));
    }
    AX_ASSIGN_OR_RETURN(algebricks::LogicalOpPtr plan, translate());
    AX_ASSIGN_OR_RETURN(
        auto optimized,
        algebricks::Optimize(std::move(plan), *metadata_, opts,
                             algebricks::FunctionRegistry::Instance()));
    Executor ex = MakeExecutor(ctx.get());
    ex.set_profiling(options_.profile_queries);
    ExecStats stats;
    AX_ASSIGN_OR_RETURN(auto rows, ex.Run(optimized, &stats));
    QueryResult out;
    out.rows = std::move(rows);
    out.plan = stats.optimized_plan;
    out.elapsed_ms = stats.elapsed_ms;
    out.profile = std::move(stats.profile);
    if (out.profile) out.profiled_plan = out.profile->Render();
    return out;
  }();
  UnregisterQuery(id);
  return result;
}

Result<QueryResult> Instance::RunDml(const Statement& st) {
  QueryResult out;
  if (st.kind == Statement::kInsert || st.kind == Statement::kUpsert) {
    sqlpp::Translator translator(metadata_.get());
    AX_ASSIGN_OR_RETURN(auto expr, translator.TranslateScalar(st.payload));
    AX_ASSIGN_OR_RETURN(
        Value payload,
        algebricks::EvaluateConst(expr,
                                  algebricks::FunctionRegistry::Instance()));
    std::vector<Value> records;
    if (payload.is_array()) {
      records = payload.items();
    } else {
      records.push_back(std::move(payload));
    }
    for (const auto& rec : records) {
      Status s = st.kind == Statement::kUpsert ? UpsertValue(st.target, rec)
                                               : InsertValue(st.target, rec);
      AX_RETURN_NOT_OK(s);
      out.mutated++;
    }
    return out;
  }
  // DELETE is a query for the primary keys of the doomed records, then the
  // keyed, pk-locked delete that feeds and the direct API use.
  AX_ASSIGN_OR_RETURN(auto def, metadata_->GetDataset(st.target));
  if (def.external) {
    return Status::InvalidArgument("cannot DELETE from external dataset");
  }
  sqlpp::ast::SelectQuery keys = *st.query;
  keys.select_value = true;
  keys.value_expr = sqlpp::ast::ExprNode::Field(
      sqlpp::ast::ExprNode::Ident(keys.froms[0].alias), def.primary_key);
  AX_ASSIGN_OR_RETURN(out, RunQuery(SqlppPlan(keys), options_.optimizer));
  std::vector<Value> pks = std::move(out.rows);
  out.rows.clear();
  for (const auto& pk : pks) {
    AX_ASSIGN_OR_RETURN(bool existed, DeleteByKey(st.target, pk));
    if (existed) out.mutated++;
  }
  return out;
}

Result<QueryResult> Instance::RunDdl(const Statement& st) {
  std::lock_guard<std::mutex> lock(ddl_mu_);
  QueryResult out;
  switch (st.kind) {
    case Statement::kCreateType: {
      std::vector<adm::FieldDef> fields;
      for (const auto& f : st.type_fields) {
        adm::FieldDef fd;
        fd.name = f.name;
        fd.optional = f.optional;
        AX_ASSIGN_OR_RETURN(fd.type, ResolveTypeSpec(f.type, *metadata_));
        fields.push_back(std::move(fd));
      }
      auto type = adm::Type::MakeObject(st.type_name, std::move(fields),
                                        /*open=*/!st.closed);
      AX_RETURN_NOT_OK(metadata_->CreateType(st.type_name, type));
      return out;
    }
    case Statement::kDropType:
      AX_RETURN_NOT_OK(metadata_->DropType(st.type_name));
      return out;
    case Statement::kCreateDataset: {
      meta::DatasetDef def;
      def.name = st.dataset_name;
      def.type_name = st.dataset_type;
      def.primary_key = st.primary_key;
      for (const auto& [k, v] : st.with_props) {
        if (k != "storage-format") {
          return Status::InvalidArgument("unknown WITH property '" + k + "'");
        }
        if (v != "row" && v != "columnar") {
          return Status::InvalidArgument(
              "storage-format must be 'row' or 'columnar', got '" + v + "'");
        }
        def.storage_format = v;
      }
      AX_RETURN_NOT_OK(metadata_->CreateDataset(def));
      AX_RETURN_NOT_OK(OpenDatasetPartitions(def));
      return out;
    }
    case Statement::kCreateExternalDataset: {
      meta::DatasetDef def;
      def.name = st.dataset_name;
      def.type_name = st.dataset_type;
      def.external = true;
      def.external_props = st.external_props;
      AX_RETURN_NOT_OK(metadata_->CreateDataset(def));
      return out;
    }
    case Statement::kDropDataset: {
      AX_RETURN_NOT_OK(metadata_->DropDataset(st.dataset_name));
      datasets_.erase(st.dataset_name);
      return out;
    }
    case Statement::kCreateIndex: {
      meta::IndexDef ix;
      ix.name = st.index_name;
      ix.field = st.on_field;
      ix.kind = st.index_type == "RTREE"     ? meta::IndexKind::kRTree
                : st.index_type == "KEYWORD" ? meta::IndexKind::kKeyword
                                             : meta::IndexKind::kBTree;
      AX_RETURN_NOT_OK(metadata_->CreateIndex(st.on_dataset, ix));
      // Rebuild partitions with the new index, backfilling existing data.
      AX_ASSIGN_OR_RETURN(auto def, metadata_->GetDataset(st.on_dataset));
      // Collect current records before reopening.
      std::vector<std::vector<Value>> existing(options_.num_partitions);
      auto dit = datasets_.find(st.on_dataset);
      if (dit != datasets_.end()) {
        for (size_t p = 0; p < dit->second.size(); p++) {
          AX_ASSIGN_OR_RETURN(auto scan, dit->second[p]->ScanIterator());
          AX_RETURN_NOT_OK(scan.SeekToFirst());
          while (scan.Valid()) {
            AX_ASSIGN_OR_RETURN(Value rec, adm::Deserialize(scan.value()));
            existing[p].push_back(std::move(rec));
            AX_RETURN_NOT_OK(scan.Next());
          }
        }
      }
      AX_RETURN_NOT_OK(OpenDatasetPartitions(def));
      auto& parts = datasets_[st.on_dataset];
      for (size_t p = 0; p < parts.size(); p++) {
        for (const auto& rec : existing[p]) {
          // axlint: allow(blocking-under-lock): DDL quiesces under ddl_mu_
          // by design — the index backfill must not race concurrent DDL,
          // and queries never take ddl_mu_.
          AX_RETURN_NOT_OK(parts[p]->Upsert(rec, /*log=*/false));
        }
      }
      return out;
    }
    case Statement::kDropIndex: {
      AX_RETURN_NOT_OK(metadata_->DropIndex(st.on_dataset, st.index_name));
      AX_ASSIGN_OR_RETURN(auto def, metadata_->GetDataset(st.on_dataset));
      AX_RETURN_NOT_OK(OpenDatasetPartitions(def));
      return out;
    }
    case Statement::kCreateFeed:
      AX_RETURN_NOT_OK(feeds_->CreateFeed(st.feed_name, st.feed_adapter,
                                          st.external_props));
      return out;
    case Statement::kDropFeed:
      AX_RETURN_NOT_OK(feeds_->DropFeed(st.feed_name));
      return out;
    case Statement::kConnectFeed:
      // Safe under ddl_mu_: the feed pipeline's storage stage goes through
      // UpsertValue/DeleteByKey, which never take the DDL latch.
      AX_RETURN_NOT_OK(
          feeds_->ConnectFeed(st.feed_name, st.dataset_name, st.feed_policy));
      return out;
    case Statement::kDisconnectFeed:
      AX_RETURN_NOT_OK(feeds_->DisconnectFeed(st.feed_name));
      return out;
    default:
      return Status::Internal("unhandled DDL statement");
  }
}

// ---------------------------------------------------------------------------
// Direct API
// ---------------------------------------------------------------------------

Result<DatasetPartition*> Instance::RouteAndLock(const std::string& dataset,
                                                 const Value& value,
                                                 bool is_record,
                                                 txn::LockMode mode,
                                                 txn::TxnScope* scope) {
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no internal dataset '" + dataset + "'");
  }
  const auto& parts = it->second;
  const meta::DatasetDef& def = parts.front()->def();
  const Value* pk = &value;
  if (is_record) {
    AX_ASSIGN_OR_RETURN(auto type, metadata_->GetType(def.type_name));
    AX_RETURN_NOT_OK(type->Validate(value));
    pk = &value.GetField(def.primary_key);
  }
  AX_ASSIGN_OR_RETURN(std::string key, DatasetPartition::EncodePk(*pk));
  AX_RETURN_NOT_OK(scope->Lock(dataset + "/" + key, mode));
  return parts[DatasetPartition::PartitionOf(key, parts.size())].get();
}

Status Instance::UpsertValue(const std::string& dataset, const Value& record) {
  txn::TxnScope scope(&locks_);
  AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                      RouteAndLock(dataset, record, /*is_record=*/true,
                                   txn::LockMode::kExclusive, &scope));
  return part->Upsert(record);
}

Status Instance::InsertValue(const std::string& dataset, const Value& record) {
  txn::TxnScope scope(&locks_);
  AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                      RouteAndLock(dataset, record, /*is_record=*/true,
                                   txn::LockMode::kExclusive, &scope));
  return part->Insert(record);
}

Result<bool> Instance::DeleteByKey(const std::string& dataset, const Value& pk) {
  txn::TxnScope scope(&locks_);
  AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                      RouteAndLock(dataset, pk, /*is_record=*/false,
                                   txn::LockMode::kExclusive, &scope));
  return part->DeleteByKey(pk);
}

Result<bool> Instance::GetByKey(const std::string& dataset, const Value& pk,
                                Value* record) {
  txn::TxnScope scope(&locks_);
  AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                      RouteAndLock(dataset, pk, /*is_record=*/false,
                                   txn::LockMode::kShared, &scope));
  return part->Get(pk, record);
}

Status Instance::Checkpoint() {
  std::lock_guard<std::mutex> lock(ddl_mu_);
  // Persist feed watermarks BEFORE flushing/truncating: a watermark read
  // here only covers records already applied (and thus WAL'd), so whether
  // the crash lands before or after the truncate below, every record at or
  // below the persisted watermark is recoverable.
  if (feeds_ != nullptr) AX_RETURN_NOT_OK(feeds_->PersistProgress());
  if (maintenance_ != nullptr) {
    // Fan the per-partition flushes out to the maintenance pool instead of
    // draining them serially. Each Flush() is a cooperative barrier (the
    // running task does the component builds itself), so the bounded pool
    // cannot deadlock on this batch.
    std::vector<std::function<Status()>> jobs;
    for (auto& [name, parts] : datasets_) {
      for (auto& p : parts) {
        DatasetPartition* part = p.get();
        jobs.push_back([part] { return part->Flush(); });
      }
    }
    // axlint: allow(blocking-under-lock): checkpoint quiesces DDL under
    // ddl_mu_ by design while flushes drain; only other DDL waits on it.
    AX_RETURN_NOT_OK(maintenance_->RunBatch(std::move(jobs)));
  } else {
    for (auto& [name, parts] : datasets_) {
      for (auto& p : parts) AX_RETURN_NOT_OK(p->Flush());
    }
  }
  for (auto& wal : wals_) AX_RETURN_NOT_OK(wal->Truncate());
  return Status::OK();
}

Result<storage::LsmStats> Instance::DatasetStats(
    const std::string& dataset) const {
  auto it = datasets_.find(dataset);
  if (it == datasets_.end()) {
    return Status::NotFound("no dataset '" + dataset + "'");
  }
  storage::LsmStats total;
  for (const auto& p : it->second) {
    auto s = p->primary_stats();
    total.mem_entries += s.mem_entries;
    total.mem_bytes += s.mem_bytes;
    total.disk_components += s.disk_components;
    total.columnar_components += s.columnar_components;
    total.disk_entries += s.disk_entries;
    total.disk_bytes += s.disk_bytes;
    total.flushes += s.flushes;
    total.merges += s.merges;
  }
  return total;
}

}  // namespace asterix
