#include "asterix/instance.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <set>

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
                                     const meta::Catalog& catalog) {
  using sqlpp::ast::TypeSpec;
  switch (spec.kind) {
    case TypeSpec::kArray: {
      AX_ASSIGN_OR_RETURN(auto item, ResolveTypeSpec(*spec.item, catalog));
      return adm::Type::MakeArray(item);
    }
    case TypeSpec::kMultiset: {
      AX_ASSIGN_OR_RETURN(auto item, ResolveTypeSpec(*spec.item, catalog));
      return adm::Type::MakeMultiset(item);
    }
    case TypeSpec::kNamed: {
      auto primitive = adm::PrimitiveTagFromName(spec.name);
      if (primitive.ok()) return adm::Type::Primitive(primitive.value());
      return catalog.GetType(spec.name);
    }
  }
  return Status::Internal("bad type spec");
}

Result<const meta::Catalog::Dataset*> InternalDataset(
    const meta::Catalog& catalog, const std::string& name) {
  auto ds = catalog.GetDataset(name);
  if (!ds.ok() || ds.value()->def.external) {
    return Status::NotFound("no internal dataset '" + name + "'");
  }
  return ds;
}

// Leaves a write gate when the keyed write ends.
class GateExit {
 public:
  explicit GateExit(meta::WriteGate* gate) : gate_(gate) {}
  ~GateExit() { gate_->Exit(); }
  GateExit(const GateExit&) = delete;
  GateExit& operator=(const GateExit&) = delete;

 private:
  meta::WriteGate* gate_;
};

// Closes every dataset's write gate, waiting for the writers inside to
// leave, and reopens them at the catalog's version when it goes.
class WritersHeld {
 public:
  explicit WritersHeld(const meta::Catalog& catalog) : catalog_(catalog) {
    for (const auto& [name, ds] : catalog_.datasets) ds->gate->Close();
  }
  ~WritersHeld() {
    for (const auto& [name, ds] : catalog_.datasets) {
      ds->gate->Open(catalog_.version);
    }
  }
  WritersHeld(const WritersHeld&) = delete;
  WritersHeld& operator=(const WritersHeld&) = delete;

 private:
  const meta::Catalog& catalog_;
};

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
  gov.defaults.per_operator_bytes = options.op_memory_budget_bytes;
  inst->governor_ = std::make_unique<resource::MemoryGovernor>(gov);
  if (options.max_concurrent_queries > 0) {
    resource::AdmissionOptions adm;
    adm.max_concurrent = options.max_concurrent_queries;
    adm.queue_limit = options.admission_queue_limit;
    adm.queue_timeout_ms = options.admission_timeout_ms;
    inst->admission_ = std::make_unique<resource::AdmissionController>(adm);
  }
  // Reopen existing datasets before the first catalog is published, then
  // replay the WALs into them. Records were routed by the partition count
  // the catalog recorded, so no other count may open them.
  auto attach = [&inst, &options](meta::Catalog* c) -> Status {
    if (c->num_partitions != 0 && c->num_partitions != options.num_partitions) {
      return Status::InvalidArgument(
          "instance at '" + options.base_dir + "' has " +
          std::to_string(c->num_partitions) + " partitions, not " +
          std::to_string(options.num_partitions));
    }
    c->num_partitions = options.num_partitions;
    for (size_t p = 0; p < options.num_partitions; p++) {
      std::string pdir = options.base_dir + "/p" + std::to_string(p);
      AX_RETURN_NOT_OK(fs::CreateDirs(pdir));
      AX_ASSIGN_OR_RETURN(auto wal, txn::LogManager::Open(pdir + "/wal.log",
                                                          options.wal_sync));
      inst->wals_.push_back(std::move(wal));
    }
    AX_RETURN_NOT_OK(inst->SweepDroppedStorage(*c));
    for (auto& [name, entry] : c->datasets) {
      if (entry->def.external) continue;
      auto ds = std::make_shared<meta::Catalog::Dataset>(*entry);
      AX_RETURN_NOT_OK(inst->OpenPartitions(ds.get(), /*create=*/false));
      entry = std::move(ds);
    }
    return Status::OK();
  };
  AX_ASSIGN_OR_RETURN(inst->metadata_,
                      meta::MetadataManager::Open(
                          options.base_dir + "/metadata.adm", attach));
  AX_RETURN_NOT_OK(inst->RecoverFromWal());
  inst->feeds_ = std::make_unique<feeds::FeedManager>(
      inst.get(), inst->metadata_.get(), options.base_dir + "/feeds");
  return inst;
}

Instance::Instance(InstanceOptions options) : options_(std::move(options)) {}

Instance::~Instance() = default;

Status Instance::OpenPartitions(meta::Catalog::Dataset* ds,
                                bool create) const {
  for (size_t p = 0; p < options_.num_partitions; p++) {
    PartitionOptions po;
    po.dir = options_.base_dir + "/p" + std::to_string(p);
    po.cache = cache_.get();
    po.mem_budget_bytes = options_.lsm_mem_budget_bytes;
    po.merge_policy = options_.merge_policy;
    po.wal = wals_[p].get();
    po.partition_id = static_cast<uint32_t>(p);
    po.scheduler = maintenance_.get();
    po.max_pending_immutables = options_.max_pending_immutables;
    po.storage_format = ds->def.storage_format == "columnar"
                            ? storage::StorageFormat::kColumnar
                            : storage::StorageFormat::kRow;
    AX_ASSIGN_OR_RETURN(auto part, DatasetPartition::Open(ds->def, po, create));
    ds->partitions.push_back(std::move(part));
  }
  return Status::OK();
}

Status Instance::SweepDroppedStorage(const meta::Catalog& catalog) {
  std::set<std::string> live;
  for (const auto& [name, ds] : catalog.datasets) {
    if (ds->def.external) continue;
    live.insert(DatasetPartition::TreeDir(ds->def.id, /*index=*/false));
    for (const auto& ix : ds->def.indexes) {
      live.insert(DatasetPartition::TreeDir(ix.id, /*index=*/true));
    }
  }
  for (size_t p = 0; p < options_.num_partitions; p++) {
    const std::string pdir = options_.base_dir + "/p" + std::to_string(p) + "/";
    AX_ASSIGN_OR_RETURN(auto names, fs::ListDir(pdir));
    for (const auto& n : names) {
      if (n != "wal.log" && live.count(n) == 0) {
        AX_RETURN_NOT_OK(fs::RemoveAll(pdir + n));
      }
    }
  }
  return Status::OK();
}

Status Instance::RecoverFromWal() {
  meta::CatalogPtr catalog = metadata_->Snapshot();
  // WAL records name datasets by id: a record of a dropped dataset, or of
  // an earlier dataset of the same name, matches nothing and is skipped.
  std::map<uint64_t, const meta::Catalog::Dataset*> by_id;
  for (const auto& [name, ds] : catalog->datasets) by_id[ds->def.id] = ds.get();
  for (size_t p = 0; p < wals_.size(); p++) {
    txn::ReplayStats stats;
    AX_RETURN_NOT_OK(wals_[p]->Replay(
        [&](const txn::LogRecord& rec) -> Status {
          auto it = by_id.find(rec.dataset_id);
          if (it == by_id.end() || it->second->def.external) {
            return Status::OK();
          }
          const auto& parts = it->second->partitions;
          if (rec.partition >= parts.size()) {
            return Status::Corruption(
                "WAL record for partition " + std::to_string(rec.partition) +
                " of " + std::to_string(parts.size()));
          }
          DatasetPartition* part = parts[rec.partition].get();
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
      AX_RETURN_NOT_OK(RunDdl(st));
      return QueryResult{};
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
  auto translate =
      [&](const meta::Catalog& catalog) -> Result<algebricks::LogicalOpPtr> {
    AX_ASSIGN_OR_RETURN(auto translated, aql::TranslateAql(query, catalog));
    return translated.plan;
  };
  return RunQuery(translate, options_.optimizer, run);
}

Instance::PlanProducer Instance::SqlppPlan(const sqlpp::ast::SelectQuery& q) {
  return [&q](const meta::Catalog& catalog)
             -> Result<algebricks::LogicalOpPtr> {
    sqlpp::Translator translator(&catalog);
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
    // The query's one catalog version: translation, optimization and the
    // executor all read it, and it keeps the partitions alive until the
    // job is done.
    meta::CatalogPtr catalog = metadata_->Snapshot();
    AX_ASSIGN_OR_RETURN(algebricks::LogicalOpPtr plan, translate(*catalog));
    AX_ASSIGN_OR_RETURN(
        auto optimized,
        algebricks::Optimize(std::move(plan), *catalog, opts,
                             algebricks::FunctionRegistry::Instance()));
    Executor ex(catalog.get(), options_.num_partitions, tmp_.get(),
                &algebricks::FunctionRegistry::Instance(), &workers_,
                *governor_, *ctx);
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
    meta::CatalogPtr catalog = metadata_->Snapshot();
    sqlpp::Translator translator(catalog.get());
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
  uint64_t target_id = 0;
  auto keys = [&st, &target_id](const meta::Catalog& catalog)
      -> Result<algebricks::LogicalOpPtr> {
    AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                        catalog.GetDataset(st.target));
    if (ds->def.external) {
      return Status::InvalidArgument("cannot DELETE from external dataset");
    }
    target_id = ds->def.id;
    sqlpp::ast::SelectQuery q = *st.query;
    q.select_value = true;
    q.value_expr = sqlpp::ast::ExprNode::Field(
        sqlpp::ast::ExprNode::Ident(q.froms[0].alias), ds->def.primary_key);
    return SqlppPlan(q)(catalog);
  };
  AX_ASSIGN_OR_RETURN(out, RunQuery(keys, options_.optimizer));
  std::vector<Value> pks = std::move(out.rows);
  out.rows.clear();
  // The keys belong to the dataset the key query pinned. If it has been
  // dropped since, the drop removed the rest of them; a dataset re-created
  // under its name must not lose records with the same keys.
  for (const auto& pk : pks) {
    auto existed = KeyedWrite(
        st.target, target_id, pk, /*is_record=*/false,
        [&](DatasetPartition* p) { return p->DeleteByKey(pk); });
    if (existed.status().IsNotFound()) break;
    AX_RETURN_NOT_OK(existed.status());
    if (existed.value()) out.mutated++;
  }
  return out;
}

Status Instance::RunDdl(const Statement& st) {
  switch (st.kind) {
    case Statement::kCreateType:
      return metadata_->Update([&](meta::Catalog* c) -> Status {
        std::vector<adm::FieldDef> fields;
        for (const auto& f : st.type_fields) {
          adm::FieldDef fd;
          fd.name = f.name;
          fd.optional = f.optional;
          AX_ASSIGN_OR_RETURN(fd.type, ResolveTypeSpec(f.type, *c));
          fields.push_back(std::move(fd));
        }
        return c->AddType(st.type_name,
                          adm::Type::MakeObject(st.type_name, std::move(fields),
                                                /*open=*/!st.closed));
      });
    case Statement::kDropType:
      return metadata_->Update(
          [&](meta::Catalog* c) { return c->RemoveType(st.type_name); });
    case Statement::kCreateDataset:
    case Statement::kCreateExternalDataset: {
      meta::DatasetDef def;
      def.name = st.dataset_name;
      def.type_name = st.dataset_type;
      if (st.kind == Statement::kCreateExternalDataset) {
        def.external = true;
        def.external_props = st.external_props;
      } else {
        def.primary_key = st.primary_key;
      }
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
      return metadata_->Update([&](meta::Catalog* c) -> Status {
        AX_ASSIGN_OR_RETURN(meta::Catalog::Dataset* ds, c->AddDataset(def));
        if (def.external) return Status::OK();
        return OpenPartitions(ds, /*create=*/true);
      });
    }
    case Statement::kDropDataset: {
      std::shared_ptr<const meta::Catalog::Dataset> dropped;
      // Refused while a feed is connected to the dataset.
      AX_RETURN_NOT_OK(feeds_->RunUnlessFed(st.dataset_name, [&] {
        return metadata_->Update([&](meta::Catalog* c) -> Status {
          AX_ASSIGN_OR_RETURN(dropped, c->RemoveDataset(st.dataset_name));
          return Status::OK();
        });
      }));
      // Committed: each tree's files go when the last statement pinning an
      // older catalog lets go of it.
      for (const auto& part : dropped->partitions) part->MarkDropped();
      return Status::OK();
    }
    case Statement::kCreateIndex:
      return CreateIndex(st);
    case Statement::kDropIndex: {
      std::vector<std::shared_ptr<DatasetPartition>> before;
      AX_RETURN_NOT_OK(metadata_->Update([&](meta::Catalog* c) -> Status {
        AX_ASSIGN_OR_RETURN(meta::Catalog::Dataset* ds,
                            c->RemoveIndex(st.on_dataset, st.index_name));
        before = ds->partitions;
        for (auto& part : ds->partitions) {
          AX_ASSIGN_OR_RETURN(part, part->Reshape(ds->def));
        }
        return Status::OK();
      }));
      for (const auto& part : before) part->MarkIndexDropped(st.index_name);
      return Status::OK();
    }
    case Statement::kCreateFeed:
      return feeds_->CreateFeed(st.feed_name, st.feed_adapter,
                                st.external_props);
    case Statement::kDropFeed:
      return feeds_->DropFeed(st.feed_name);
    case Statement::kConnectFeed:
      // The feed pipeline's storage stage writes through UpsertValue and
      // DeleteByKey, like any other writer.
      return feeds_->ConnectFeed(st.feed_name, st.dataset_name,
                                 st.feed_policy);
    case Statement::kDisconnectFeed:
      return feeds_->DisconnectFeed(st.feed_name);
    default:
      return Status::Internal("unhandled DDL statement");
  }
}

Status Instance::CreateIndex(const Statement& st) {
  meta::IndexDef ix;
  ix.name = st.index_name;
  ix.field = st.on_field;
  ix.kind = st.index_type == "RTREE"     ? meta::IndexKind::kRTree
            : st.index_type == "KEYWORD" ? meta::IndexKind::kKeyword
                                         : meta::IndexKind::kBTree;
  std::shared_ptr<meta::WriteGate> gate;
  std::vector<std::shared_ptr<DatasetPartition>> built;
  auto build = [&](meta::Catalog* c) -> Status {
    AX_ASSIGN_OR_RETURN(meta::Catalog::Dataset* ds,
                        c->AddIndex(st.on_dataset, ix));
    // From here until the catalog naming the index is published, the
    // dataset's writers wait, so none writes a record the backfill misses.
    gate = ds->gate;
    gate->Close();
    for (auto& part : ds->partitions) {
      AX_ASSIGN_OR_RETURN(part, part->Reshape(ds->def));
      built.push_back(part);
      // Backfill flushes the new index, so it is durable before the
      // persist that commits its definition.
      AX_RETURN_NOT_OK(part->Backfill(ix));
    }
    return Status::OK();
  };
  // Reopened before the update ends, so the next index DDL on the dataset
  // closes a gate this one has finished with. Writers holding an older
  // catalog re-pin the new one.
  auto reopen = [&](const meta::Catalog& published) {
    if (gate != nullptr) gate->Open(published.version);
  };
  Status s = metadata_->Update(build, reopen);
  if (!s.ok()) {
    for (const auto& part : built) part->MarkIndexDropped(ix.name);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Direct API
// ---------------------------------------------------------------------------

Result<DatasetPartition*> Instance::RouteAndLock(
    const meta::Catalog::Dataset& ds, const Value& value, bool is_record,
    txn::LockMode mode, txn::TxnScope* scope) {
  const Value* pk = &value;
  if (is_record) {
    if (!adm::WithinDepth(value, adm::kMaxInputDepth)) {
      return Status::InvalidArgument(
          "record nested more than " + std::to_string(adm::kMaxInputDepth) +
          " deep");
    }
    AX_RETURN_NOT_OK(ds.type->Validate(value));
    pk = &value.GetField(ds.def.primary_key);
  }
  AX_ASSIGN_OR_RETURN(std::string key, DatasetPartition::EncodePk(*pk));
  AX_RETURN_NOT_OK(scope->Lock(ds.def.name + "/" + key, mode));
  return ds.partitions[DatasetPartition::PartitionOf(key, ds.partitions.size())]
      .get();
}

template <typename Write>
auto Instance::KeyedWrite(const std::string& dataset, uint64_t dataset_id,
                          const Value& value, bool is_record,
                          const Write& write)
    -> decltype(write(static_cast<DatasetPartition*>(nullptr))) {
  for (;;) {
    meta::CatalogPtr catalog = metadata_->Snapshot();
    AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                        InternalDataset(*catalog, dataset));
    if (dataset_id != 0 && ds->def.id != dataset_id) {
      return Status::NotFound("dataset '" + dataset + "' was dropped");
    }
    // False: index DDL published a newer catalog while this one was held.
    if (!ds->gate->Enter(catalog->version)) continue;
    GateExit leave(ds->gate.get());
    txn::TxnScope scope(&locks_);
    AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                        RouteAndLock(*ds, value, is_record,
                                     txn::LockMode::kExclusive, &scope));
    return write(part);
  }
}

Status Instance::UpsertValue(const std::string& dataset, const Value& record) {
  return KeyedWrite(dataset, /*dataset_id=*/0, record, /*is_record=*/true,
                    [&](DatasetPartition* p) { return p->Upsert(record); });
}

Status Instance::InsertValue(const std::string& dataset, const Value& record) {
  return KeyedWrite(dataset, /*dataset_id=*/0, record, /*is_record=*/true,
                    [&](DatasetPartition* p) { return p->Insert(record); });
}

Result<bool> Instance::DeleteByKey(const std::string& dataset, const Value& pk) {
  return KeyedWrite(dataset, /*dataset_id=*/0, pk, /*is_record=*/false,
                    [&](DatasetPartition* p) { return p->DeleteByKey(pk); });
}

Result<bool> Instance::GetByKey(const std::string& dataset, const Value& pk,
                                Value* record) {
  meta::CatalogPtr catalog = metadata_->Snapshot();
  AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                      InternalDataset(*catalog, dataset));
  txn::TxnScope scope(&locks_);
  AX_ASSIGN_OR_RETURN(DatasetPartition* part,
                      RouteAndLock(*ds, pk, /*is_record=*/false,
                                   txn::LockMode::kShared, &scope));
  return part->Get(pk, record);
}

Status Instance::Checkpoint() {
  // Persist feed watermarks BEFORE flushing/truncating: a watermark read
  // here only covers records already applied (and thus WAL'd), so whether
  // the crash lands before or after the truncate below, every record at or
  // below the persisted watermark is recoverable.
  if (feeds_ != nullptr) AX_RETURN_NOT_OK(feeds_->PersistProgress());
  // With DDL held off: a dataset created after the flushes could have
  // records in the WALs that the truncate drops. With writers held off
  // too: a record logged after its partition's flush would be dropped
  // unflushed.
  return metadata_->WithUpdatesBlocked([&](const meta::Catalog& catalog) {
    WritersHeld held(catalog);
    if (maintenance_ != nullptr) {
      // Fan the per-partition flushes out to the maintenance pool instead
      // of draining them serially. Each Flush() is a cooperative barrier
      // (the running task does the component builds itself), so the
      // bounded pool cannot deadlock on this batch.
      std::vector<std::function<Status()>> jobs;
      for (const auto& [name, ds] : catalog.datasets) {
        for (const auto& p : ds->partitions) {
          DatasetPartition* part = p.get();
          jobs.push_back([part] { return part->Flush(); });
        }
      }
      AX_RETURN_NOT_OK(maintenance_->RunBatch(std::move(jobs)));
    } else {
      for (const auto& [name, ds] : catalog.datasets) {
        for (const auto& p : ds->partitions) AX_RETURN_NOT_OK(p->Flush());
      }
    }
    for (auto& wal : wals_) AX_RETURN_NOT_OK(wal->Truncate());
    return Status::OK();
  });
}

Result<storage::LsmStats> Instance::DatasetStats(
    const std::string& dataset) const {
  meta::CatalogPtr catalog = metadata_->Snapshot();
  AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                      InternalDataset(*catalog, dataset));
  storage::LsmStats total;
  for (const auto& p : ds->partitions) {
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
