#include "asterix/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "adm/key_encoder.h"
#include "adm/serde.h"
#include "asterix/external.h"
#include "hyracks/groupby.h"
#include "hyracks/join.h"
#include "hyracks/merge.h"
#include "hyracks/operators.h"
#include "hyracks/scan.h"
#include "hyracks/sort.h"

namespace asterix {

using algebricks::AccessPathKind;
using algebricks::Expr;
using algebricks::ExprKind;
using algebricks::ExprPtr;
using algebricks::LogicalOp;
using algebricks::LogicalOpKind;
using algebricks::LogicalOpPtr;
using algebricks::VarId;
using hyracks::StreamPtr;
using hyracks::Tuple;
using hyracks::TupleEval;

namespace {

/// Index-search source over one partition, with bounds already evaluated:
/// a primary-key lookup or a secondary-index search. It collects only
/// encoded primary keys at Open and fetches one frame of records per
/// NextBatch, so it never holds its whole result. (A primary range is a
/// bounded ScanSource.)
class IndexSearchSource : public hyracks::TupleStream {
 public:
  IndexSearchSource(const DatasetPartition* part, const LogicalOp* op,
                    adm::Value lo, adm::Value hi)
      : part_(part), op_(op), lo_(std::move(lo)), hi_(std::move(hi)) {}

  Status Open() override {
    pks_.clear();
    pos_ = 0;
    switch (op_->access_path) {
      case AccessPathKind::kPrimaryLookup: {
        AX_ASSIGN_OR_RETURN(std::string pk, DatasetPartition::EncodePk(lo_));
        pks_.push_back(std::move(pk));
        return Status::OK();
      }
      case AccessPathKind::kSecondaryBTree: {
        AX_ASSIGN_OR_RETURN(pks_,
                            part_->BTreeSearch(op_->index_name, lo_, hi_));
        break;
      }
      case AccessPathKind::kRTree: {
        if (!lo_.is_point() && !lo_.is_rectangle()) {
          return Status::InvalidArgument("R-tree search needs a spatial key");
        }
        AX_ASSIGN_OR_RETURN(pks_,
                            part_->RTreeSearch(op_->index_name, lo_.Mbr()));
        break;
      }
      case AccessPathKind::kKeyword: {
        if (!lo_.is_string()) {
          return Status::InvalidArgument("keyword search needs a string key");
        }
        AX_ASSIGN_OR_RETURN(
            pks_, part_->KeywordSearch(op_->index_name, lo_.AsString()));
        break;
      }
      case AccessPathKind::kPrimaryRange:
        return Status::Internal("a primary range lowers onto ScanSource");
    }
    // The [26] trick: sort PKs so the primary fetch sweeps the B+tree in
    // key order instead of random-probing it.
    if (op_->sort_pks_before_fetch) std::sort(pks_.begin(), pks_.end());
    return Status::OK();
  }

  Result<bool> NextBatch(hyracks::Batch* out) override {
    out->Clear();
    while (pos_ < pks_.size() && !out->full()) {
      AX_RETURN_NOT_OK(PollAlive());
      adm::Value record;
      AX_ASSIGN_OR_RETURN(bool found,
                          part_->GetByEncodedPk(pks_[pos_++], &record));
      if (!found) continue;  // racing delete
      out->Add()->fields.push_back(std::move(record));
    }
    if (out->empty()) return false;
    hyracks::NoteBatchEmitted(out->size());
    return true;
  }
  Status Close() override {
    pks_.clear();
    return Status::OK();
  }

 private:
  const DatasetPartition* part_;
  const LogicalOp* op_;
  adm::Value lo_, hi_;
  std::vector<std::string> pks_;  // encoded pks still to fetch, from pos_ on
  size_t pos_ = 0;
};

/// Split a join condition into positionally paired equi keys + residual.
struct JoinKeys {
  std::vector<ExprPtr> left, right;
  std::vector<ExprPtr> residual;
};

JoinKeys ExtractJoinKeys(const ExprPtr& condition,
                         const std::vector<VarId>& left_schema,
                         const std::vector<VarId>& right_schema) {
  JoinKeys out;
  if (!condition) return out;
  std::vector<ExprPtr> conjuncts;
  algebricks::SplitConjuncts(condition, &conjuncts);
  for (const auto& cj : conjuncts) {
    bool handled = false;
    if (cj->kind == ExprKind::kCall && cj->fn == "eq" && cj->args.size() == 2) {
      const auto& a = cj->args[0];
      const auto& b = cj->args[1];
      if (a->UsesOnly(left_schema) && b->UsesOnly(right_schema)) {
        out.left.push_back(a);
        out.right.push_back(b);
        handled = true;
      } else if (b->UsesOnly(left_schema) && a->UsesOnly(right_schema)) {
        out.left.push_back(b);
        out.right.push_back(a);
        handled = true;
      }
    }
    if (!handled) out.residual.push_back(cj);
  }
  return out;
}

/// Harvest hooks: pull operator-specific stats into the profiled plan at
/// Close (on the partition's own thread — see profile.h's contract).
hyracks::ProfiledStream::Harvest SortHarvest(const hyracks::ExternalSortOp* op) {
  return [op](hyracks::OpStats* s) {
    const auto& st = op->stats();
    s->extra["sort_tuples"] = st.tuples;
    if (op->limit()) s->extra["sort_kept"] = st.kept;
    if (st.runs_spilled > 0) {
      s->extra["runs_spilled"] = st.runs_spilled;
      s->extra["merge_passes"] = st.merge_passes;
      s->extra["spill_bytes"] = st.bytes_spilled;
    }
  };
}

hyracks::ProfiledStream::Harvest JoinHarvest(const hyracks::HashJoinOp* op) {
  return [op](hyracks::OpStats* s) {
    const auto& st = op->stats();
    if (st.partitions_spilled > 0) {
      s->extra["partitions_spilled"] = st.partitions_spilled;
      s->extra["recursion_depth"] = st.recursion_depth;
    }
    if (st.bytes_spilled > 0) s->extra["spill_bytes"] = st.bytes_spilled;
  };
}

hyracks::ProfiledStream::Harvest GroupHarvest(const hyracks::HashGroupByOp* op) {
  return [op](hyracks::OpStats* s) {
    if (op->spill_partitions_used() > 0) {
      s->extra["spill_partitions"] = op->spill_partitions_used();
      s->extra["spill_bytes"] = op->bytes_spilled();
    }
  };
}

}  // namespace

int Executor::ProfileWrap(
    Lowered* l, std::string label, std::vector<int> children,
    std::vector<hyracks::ProfiledStream::Harvest> harvests) {
  // Profiling or not, every lowered level passes through here: wire the
  // query's cancellation token before any wrapper hides the operator, so
  // each pump loop in the tree observes Cancel()/deadline at batch
  // granularity.
  for (auto& s : l->streams) {
    if (s) s->SetQueryContext(&ctx_);
  }
  if (profile_ == nullptr) return -1;
  // Drop -1 child ids (subtrees lowered while profiling was off — only
  // possible for empty sources today, but keep the tree well formed).
  children.erase(std::remove(children.begin(), children.end(), -1),
                 children.end());
  int id = profile_->AddNode(std::move(label), std::move(children),
                             l->streams.size());
  for (size_t p = 0; p < l->streams.size(); p++) {
    l->streams[p] = std::make_unique<hyracks::ProfiledStream>(
        std::move(l->streams[p]), profile_->StatsFor(id, p),
        harvests.empty() ? nullptr : std::move(harvests[p]));
  }
  l->profile_node = id;
  return id;
}

Result<Executor::Lowered> Executor::BuildScan(const LogicalOp& op) {
  Lowered out;
  out.schema = {op.scan_var};
  AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                      catalog_->GetDataset(op.dataset));
  if (ds->def.external) {
    AX_ASSIGN_OR_RETURN(auto records,
                        external::ReadExternalDataset(ds->def, ds->type));
    // Round-robin external rows across partitions for parallel processing.
    std::vector<std::vector<Tuple>> split(num_partitions_);
    for (size_t i = 0; i < records.size(); i++) {
      Tuple t;
      t.fields.push_back(std::move(records[i]));
      split[i % num_partitions_].push_back(std::move(t));
    }
    for (auto& part : split) {
      out.streams.push_back(
          std::make_unique<hyracks::VectorSource>(std::move(part)));
    }
    return out;
  }
  for (const auto& part : ds->partitions) {
    out.streams.push_back(std::make_unique<hyracks::ScanSource>(
        part->primary(), op.scan_fields, op.scan_fields_pushed,
        op.scan_predicates));
  }
  return out;
}

Result<Executor::Lowered> Executor::BuildIndexSearch(const LogicalOp& op) {
  Lowered out;
  out.schema = {op.scan_var};
  AX_ASSIGN_OR_RETURN(const meta::Catalog::Dataset* ds,
                      catalog_->GetDataset(op.dataset));
  const auto& parts = ds->partitions;
  adm::Value lo = adm::Value::Missing(), hi = adm::Value::Missing();
  if (op.search_lo) {
    AX_ASSIGN_OR_RETURN(lo, algebricks::EvaluateConst(op.search_lo, *fns_));
  }
  if (op.search_hi) {
    AX_ASSIGN_OR_RETURN(hi, algebricks::EvaluateConst(op.search_hi, *fns_));
  }
  std::string label = "INDEX-SEARCH " + op.dataset;
  if (!op.index_name.empty()) label += "." + op.index_name;
  if (op.access_path == AccessPathKind::kPrimaryLookup) {
    // Pk equality: only the partition that writes route the key to can
    // hold it, so search that one alone.
    AX_ASSIGN_OR_RETURN(std::string pk, DatasetPartition::EncodePk(lo));
    size_t p = DatasetPartition::PartitionOf(pk, parts.size());
    out.streams.push_back(
        std::make_unique<IndexSearchSource>(parts[p].get(), &op, lo, hi));
    label += " (partition " + std::to_string(p) + ")";
  } else if (op.access_path == AccessPathKind::kPrimaryRange) {
    // A pk range is a bounded scan of every partition (an unknown bound is
    // open; the residual Select keeps the predicate exact).
    std::optional<std::string> lo_key, hi_key;
    if (!lo.is_unknown()) {
      AX_ASSIGN_OR_RETURN(lo_key, adm::EncodeKey(lo));
    }
    if (!hi.is_unknown()) {
      AX_ASSIGN_OR_RETURN(hi_key, adm::EncodeKey(hi));
    }
    for (const auto& part : parts) {
      out.streams.push_back(std::make_unique<hyracks::ScanSource>(
          part->primary(), std::vector<std::string>{}, false,
          std::vector<hyracks::ScanPredicate>{}, lo_key, hi_key));
    }
  } else {
    for (const auto& part : parts) {
      out.streams.push_back(
          std::make_unique<IndexSearchSource>(part.get(), &op, lo, hi));
    }
  }
  ProfileWrap(&out, std::move(label), {});
  return out;
}

Result<Executor::Lowered> Executor::Repartition(
    Lowered in, size_t n, std::vector<TupleEval> key_evals,
    hyracks::Job* job) {
  hyracks::Exchange* ex = job->AddExchange(in.streams.size(), n);
  const bool hash = !key_evals.empty();
  hyracks::Exchange::RoutingFn route =
      hash ? hyracks::Exchange::HashRoute(std::move(key_evals), n)
           : hyracks::Exchange::SingleRoute();
  for (auto& stream : in.streams) {
    job->AddProducerTask(
        [ex, route, s = std::shared_ptr<hyracks::TupleStream>(
                 std::move(stream))]() { return ex->RunProducer(s.get(), route); });
  }
  Lowered out;
  out.schema = in.schema;
  for (size_t c = 0; c < n; c++) out.streams.push_back(ex->ConsumerStream(c));
  for (auto& s : out.streams) {
    if (s) s->SetQueryContext(&ctx_);  // ProfileWrap is conditional here
  }
  if (profile_ != nullptr) {
    char label[48];
    std::snprintf(label, sizeof(label), "EXCHANGE(%s %zu->%zu)",
                  hash ? "hash" : "merge", ex->n_producers(), n);
    int id = ProfileWrap(&out, label, {in.profile_node});
    // Traffic counters are written by producer/consumer threads; harvest
    // them after the job joins every thread (Executor::Run finalizes).
    hyracks::PlanProfile::Node* node = profile_->mutable_node(id);
    profile_->AddFinalizer([ex, node]() {
      const auto& st = ex->stats();
      node->extra["frames"] = st.frames_sent.load(std::memory_order_relaxed);
      node->extra["exch_tuples"] =
          st.tuples_sent.load(std::memory_order_relaxed);
      node->extra["producer_wait_ns"] =
          st.producer_wait_ns.load(std::memory_order_relaxed);
      node->extra["consumer_wait_ns"] =
          st.consumer_wait_ns.load(std::memory_order_relaxed);
    });
  }
  return out;
}

void Executor::NoteSortLimit(int node, std::optional<uint64_t> limit) {
  // A node-level extra, so it is reported once, not summed per partition.
  if (profile_ != nullptr && node >= 0 && limit) {
    profile_->mutable_node(node)->extra["sort_limit"] = *limit;
  }
}

Result<Executor::Lowered> Executor::BuildOrder(const LogicalOp& op,
                                               hyracks::Job* job,
                                               std::optional<uint64_t> limit) {
  AX_ASSIGN_OR_RETURN(Lowered in, Build(op.children[0], job));
  std::vector<hyracks::SortKey> keys;
  for (const auto& k : op.order_keys) {
    AX_ASSIGN_OR_RETURN(auto eval, Compile(k.expr, in.schema));
    keys.push_back({std::move(eval), k.ascending});
  }
  constexpr size_t kFanin = hyracks::ExternalSortOp::kDefaultMergeFanin;
  if (!in.partitioned()) {
    AX_ASSIGN_OR_RETURN(auto grant, Grant());
    auto sort = std::make_unique<hyracks::ExternalSortOp>(
        std::move(in.streams[0]), std::move(keys), std::move(grant), tmp_,
        kFanin, limit);
    auto* raw = sort.get();
    in.streams[0] = std::move(sort);
    NoteSortLimit(
        ProfileWrap(&in, "SORT", {in.profile_node}, {SortHarvest(raw)}),
        limit);
    return in;
  }
  // Parallel sort: each partition sorts locally (concurrently), then a
  // single ordered merge produces the global order (§VII's
  // "much-improved parallel sorting"). Under a limit each local sort keeps
  // only its first k: the global first k lie in the union of those.
  Lowered locals;
  locals.schema = in.schema;
  std::vector<hyracks::ProfiledStream::Harvest> sort_harvests;
  for (auto& s : in.streams) {
    std::vector<hyracks::SortKey> local_keys;
    for (const auto& k : op.order_keys) {
      AX_ASSIGN_OR_RETURN(auto eval, Compile(k.expr, in.schema));
      local_keys.push_back({std::move(eval), k.ascending});
    }
    AX_ASSIGN_OR_RETURN(auto grant, Grant(in.streams.size()));
    auto sort = std::make_unique<hyracks::ExternalSortOp>(
        std::move(s), std::move(local_keys), std::move(grant), tmp_, kFanin,
        limit);
    sort_harvests.push_back(SortHarvest(sort.get()));
    locals.streams.push_back(std::move(sort));
  }
  NoteSortLimit(ProfileWrap(&locals, "SORT(local)", {in.profile_node},
                            std::move(sort_harvests)),
                limit);
  Lowered out;
  out.schema = in.schema;
  out.streams.push_back(std::make_unique<hyracks::OrderedMergeStream>(
      std::move(locals.streams), std::move(keys), pool_));
  ProfileWrap(&out, "MERGE", {locals.profile_node});
  return out;
}

Result<Executor::Lowered> Executor::Build(const LogicalOpPtr& op,
                                          hyracks::Job* job) {
  switch (op->kind) {
    case LogicalOpKind::kEmptySource: {
      Lowered out;
      out.streams.push_back(std::make_unique<hyracks::VectorSource>(
          std::vector<Tuple>{Tuple{}}));
      ProfileWrap(&out, "EMPTY", {});
      return out;
    }
    case LogicalOpKind::kDataScan: {
      AX_ASSIGN_OR_RETURN(Lowered out, BuildScan(*op));
      ProfileWrap(&out, "SCAN " + op->dataset, {});
      return out;
    }
    case LogicalOpKind::kIndexSearch:
      return BuildIndexSearch(*op);

    case LogicalOpKind::kSelect: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      AX_ASSIGN_OR_RETURN(auto pred, Compile(op->condition, in.schema));
      // Vectorized form of the same condition, when it has one: SelectOp
      // then masks whole batches instead of interpreting per tuple.
      hyracks::BatchPredicate batch_pred = algebricks::TryCompileBatchPredicate(
          op->condition, algebricks::PositionsOf(in.schema));
      for (auto& s : in.streams) {
        s = std::make_unique<hyracks::SelectOp>(std::move(s), pred, batch_pred);
      }
      ProfileWrap(&in, "SELECT", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kAssign: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      std::vector<TupleEval> evals;
      // Assigns may reference earlier assigns in the same op: extend the
      // schema incrementally.
      std::vector<VarId> schema = in.schema;
      for (const auto& [v, e] : op->assigns) {
        AX_ASSIGN_OR_RETURN(auto eval, Compile(e, schema));
        evals.push_back(std::move(eval));
        schema.push_back(v);
      }
      // Note: AssignOp evaluates each eval against the growing tuple, so
      // later assigns see earlier results — matches the schema extension.
      for (auto& s : in.streams) {
        s = std::make_unique<hyracks::AssignOp>(std::move(s), evals);
      }
      in.schema = std::move(schema);
      ProfileWrap(&in, "ASSIGN", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kProject: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      auto positions = algebricks::PositionsOf(in.schema);
      std::vector<size_t> keep;
      for (VarId v : op->project_vars) {
        auto it = positions.find(v);
        if (it == positions.end()) {
          return Status::Internal("project of unbound variable $" +
                                  std::to_string(v));
        }
        keep.push_back(it->second);
      }
      for (auto& s : in.streams) {
        s = std::make_unique<hyracks::ProjectOp>(std::move(s), keep);
      }
      in.schema = op->project_vars;
      ProfileWrap(&in, "PROJECT", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kUnnest: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      AX_ASSIGN_OR_RETURN(auto coll, Compile(op->unnest_expr, in.schema));
      for (auto& s : in.streams) {
        s = std::make_unique<hyracks::UnnestOp>(std::move(s), coll,
                                                op->unnest_outer);
      }
      in.schema.push_back(op->unnest_var);
      ProfileWrap(&in, "UNNEST", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kLimit: {
      // Every partition needs at most limit+offset tuples (saturating: both
      // may be near INT64_MAX). A LIMIT directly on an ORDER BY hands that
      // bound to the sort, so each sort keeps only its first k tuples.
      // Both are non-negative: the parsers accept only such literals.
      const auto limit = static_cast<uint64_t>(op->limit);
      const auto offset = static_cast<uint64_t>(op->offset);
      const uint64_t k =
          limit > UINT64_MAX - offset ? UINT64_MAX : limit + offset;
      const LogicalOpPtr& child = op->children[0];
      AX_ASSIGN_OR_RETURN(Lowered in, child->kind == LogicalOpKind::kOrder
                                          ? BuildOrder(*child, job, k)
                                          : Build(child, job));
      if (in.partitioned()) {
        // Local pre-limit (limit+offset suffices), then global limit.
        for (auto& s : in.streams) {
          s = std::make_unique<hyracks::LimitOp>(std::move(s), k, 0);
        }
        ProfileWrap(&in, "LIMIT(local)", {in.profile_node});
        AX_ASSIGN_OR_RETURN(in, Repartition(std::move(in), 1, {}, job));
      }
      in.streams[0] = std::make_unique<hyracks::LimitOp>(
          std::move(in.streams[0]), limit, offset);
      ProfileWrap(&in, "LIMIT", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kOrder:
      return BuildOrder(*op, job, std::nullopt);
    case LogicalOpKind::kDistinct: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      if (in.partitioned()) {
        AX_ASSIGN_OR_RETURN(in, Repartition(std::move(in), 1, {}, job));
      }
      // Sort on the full tuple, then stream-distinct.
      std::vector<hyracks::SortKey> keys;
      for (size_t i = 0; i < in.schema.size(); i++) {
        keys.push_back({[i](const Tuple& t) -> Result<adm::Value> {
                          return t.at(i);
                        },
                        true});
      }
      AX_ASSIGN_OR_RETURN(auto grant, Grant());
      auto sort = std::make_unique<hyracks::ExternalSortOp>(
          std::move(in.streams[0]), std::move(keys), std::move(grant), tmp_);
      auto* sort_raw = sort.get();
      in.streams[0] = std::move(sort);
      ProfileWrap(&in, "SORT", {in.profile_node}, {SortHarvest(sort_raw)});
      in.streams[0] = std::make_unique<hyracks::StreamDistinctOp>(
          std::move(in.streams[0]));
      ProfileWrap(&in, "DISTINCT", {in.profile_node});
      return in;
    }
    case LogicalOpKind::kJoin: {
      AX_ASSIGN_OR_RETURN(Lowered left, Build(op->children[0], job));
      AX_ASSIGN_OR_RETURN(Lowered right, Build(op->children[1], job));
      std::vector<VarId> left_schema = left.schema;
      std::vector<VarId> right_schema = right.schema;
      JoinKeys keys = ExtractJoinKeys(op->condition, left_schema, right_schema);

      std::vector<VarId> out_schema = left_schema;
      if (op->join_kind != algebricks::JoinKind::kLeftSemi) {
        out_schema.insert(out_schema.end(), right_schema.begin(),
                          right_schema.end());
      }
      // Residual evaluates over the concatenated layout in all cases
      // (for semi joins HashJoinOp applies it pre-projection).
      std::vector<VarId> concat_schema = left_schema;
      concat_schema.insert(concat_schema.end(), right_schema.begin(),
                           right_schema.end());
      TupleEval residual;
      if (!keys.residual.empty()) {
        AX_ASSIGN_OR_RETURN(
            residual, Compile(algebricks::AndAll(keys.residual), concat_schema));
      }

      hyracks::JoinType jt =
          op->join_kind == algebricks::JoinKind::kInner ? hyracks::JoinType::kInner
          : op->join_kind == algebricks::JoinKind::kLeftOuter
              ? hyracks::JoinType::kLeftOuter
              : hyracks::JoinType::kLeftSemi;

      size_t target = keys.left.empty() ? 1 : num_partitions_;
      std::vector<TupleEval> left_routes, right_routes;
      for (size_t i = 0; i < keys.left.size(); i++) {
        AX_ASSIGN_OR_RETURN(auto le, Compile(keys.left[i], left_schema));
        AX_ASSIGN_OR_RETURN(auto re, Compile(keys.right[i], right_schema));
        left_routes.push_back(std::move(le));
        right_routes.push_back(std::move(re));
      }
      if (left.streams.size() != target || !keys.left.empty()) {
        AX_ASSIGN_OR_RETURN(
            left, Repartition(std::move(left), target, left_routes, job));
      }
      if (right.streams.size() != target || !keys.right.empty()) {
        AX_ASSIGN_OR_RETURN(
            right, Repartition(std::move(right), target, right_routes, job));
      }
      // Compile key evals once more for the join operator itself.
      Lowered out;
      out.schema = out_schema;
      std::vector<hyracks::ProfiledStream::Harvest> join_harvests;
      for (size_t p = 0; p < target; p++) {
        std::vector<TupleEval> lk, rk;
        for (size_t i = 0; i < keys.left.size(); i++) {
          AX_ASSIGN_OR_RETURN(auto le, Compile(keys.left[i], left_schema));
          AX_ASSIGN_OR_RETURN(auto re, Compile(keys.right[i], right_schema));
          lk.push_back(std::move(le));
          rk.push_back(std::move(re));
        }
        AX_ASSIGN_OR_RETURN(auto grant, Grant());
        auto join = std::make_unique<hyracks::HashJoinOp>(
            std::move(left.streams[p]), std::move(right.streams[p]),
            std::move(lk), std::move(rk), jt, std::move(grant), tmp_, residual,
            right_schema.size());
        join_harvests.push_back(JoinHarvest(join.get()));
        out.streams.push_back(std::move(join));
      }
      ProfileWrap(&out, "JOIN(hash)",
                  {left.profile_node, right.profile_node},
                  std::move(join_harvests));
      return out;
    }
    case LogicalOpKind::kGroupBy: {
      AX_ASSIGN_OR_RETURN(Lowered in, Build(op->children[0], job));
      std::vector<TupleEval> key_evals;
      for (const auto& [v, e] : op->group_keys) {
        AX_ASSIGN_OR_RETURN(auto eval, Compile(e, in.schema));
        key_evals.push_back(std::move(eval));
      }
      std::vector<hyracks::AggSpec> aggs;
      for (const auto& a : op->aggs) {
        hyracks::AggSpec spec;
        spec.kind = a.kind;
        if (a.arg) {
          AX_ASSIGN_OR_RETURN(spec.arg, Compile(a.arg, in.schema));
        }
        aggs.push_back(std::move(spec));
      }
      std::vector<VarId> out_schema;
      for (const auto& [v, e] : op->group_keys) out_schema.push_back(v);
      for (const auto& a : op->aggs) out_schema.push_back(a.var);

      if (!in.partitioned()) {
        AX_ASSIGN_OR_RETURN(auto grant, Grant());
        auto gb = std::make_unique<hyracks::HashGroupByOp>(
            std::move(in.streams[0]), key_evals, aggs,
            hyracks::AggPhase::kComplete, std::move(grant), tmp_);
        auto* gb_raw = gb.get();
        in.streams[0] = std::move(gb);
        in.schema = out_schema;
        ProfileWrap(&in, "GROUPBY", {in.profile_node}, {GroupHarvest(gb_raw)});
        return in;
      }
      // Two-phase: local partial, hash-exchange on key positions, final.
      size_t num_keys = op->group_keys.size();
      std::vector<hyracks::ProfiledStream::Harvest> partial_harvests;
      for (auto& s : in.streams) {
        AX_ASSIGN_OR_RETURN(auto grant, Grant());
        auto gb = std::make_unique<hyracks::HashGroupByOp>(
            std::move(s), key_evals, aggs, hyracks::AggPhase::kPartial,
            std::move(grant), tmp_);
        partial_harvests.push_back(GroupHarvest(gb.get()));
        s = std::move(gb);
      }
      ProfileWrap(&in, "GROUPBY(partial)", {in.profile_node},
                  std::move(partial_harvests));
      // Partial rows: keys at positions 0..K-1.
      std::vector<TupleEval> route;
      for (size_t i = 0; i < num_keys; i++) {
        route.push_back(
            [i](const Tuple& t) -> Result<adm::Value> { return t.at(i); });
      }
      size_t target = num_keys == 0 ? 1 : num_partitions_;
      Lowered mid;
      mid.schema = in.schema;  // placeholder; layout is partial rows
      AX_ASSIGN_OR_RETURN(mid,
                          Repartition(std::move(in), target, route, job));
      std::vector<TupleEval> final_keys;
      for (size_t i = 0; i < num_keys; i++) {
        final_keys.push_back(
            [i](const Tuple& t) -> Result<adm::Value> { return t.at(i); });
      }
      std::vector<hyracks::ProfiledStream::Harvest> final_harvests;
      for (auto& s : mid.streams) {
        AX_ASSIGN_OR_RETURN(auto grant, Grant());
        auto gb = std::make_unique<hyracks::HashGroupByOp>(
            std::move(s), final_keys, aggs, hyracks::AggPhase::kFinal,
            std::move(grant), tmp_);
        final_harvests.push_back(GroupHarvest(gb.get()));
        s = std::move(gb);
      }
      ProfileWrap(&mid, "GROUPBY(final)", {mid.profile_node},
                  std::move(final_harvests));
      mid.schema = out_schema;
      return mid;
    }
  }
  return Status::Internal("unhandled logical operator");
}

Result<resource::MemoryGrant> Executor::Grant(size_t share) {
  return governor_.Acquire(governor_.defaults().per_operator_bytes / share,
                           &ctx_);
}

Result<std::vector<adm::Value>> Executor::Run(const LogicalOpPtr& plan,
                                              ExecStats* stats) {
  auto start = std::chrono::steady_clock::now();
  hyracks::Job job(pool_);
  job.SetContext(&ctx_);
  std::shared_ptr<hyracks::PlanProfile> profile;
  if (profiling_) profile = std::make_shared<hyracks::PlanProfile>();
  profile_ = profile.get();  // Build/Repartition add nodes while set
  AX_ASSIGN_OR_RETURN(Lowered lowered, Build(plan, &job));
  if (profile_ != nullptr && lowered.profile_node >= 0) {
    profile_->set_root(lowered.profile_node);
  }
  AX_ASSIGN_OR_RETURN(auto collected, job.RunCollect(std::move(lowered.streams)));
  if (profile_ != nullptr) {
    // All job threads joined: safe to harvest exchange traffic.
    profile_->Finalize();
    profile_ = nullptr;
  }
  std::vector<adm::Value> out;
  for (auto& part : collected) {
    for (auto& t : part) {
      if (t.arity() == 0) continue;
      out.push_back(std::move(t.fields[0]));
    }
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (profile) profile->set_elapsed_ms(elapsed_ms);
  if (stats) {
    stats->optimized_plan = plan->ToString();
    stats->elapsed_ms = elapsed_ms;
    stats->profile = std::move(profile);
  }
  return out;
}

}  // namespace asterix
