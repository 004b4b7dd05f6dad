#include "algebricks/logical.h"

#include <sstream>

namespace asterix::algebricks {

std::vector<VarId> LogicalOp::schema() const {
  switch (kind) {
    case LogicalOpKind::kEmptySource:
      return {};
    case LogicalOpKind::kDataScan:
      return {scan_var};
    case LogicalOpKind::kIndexSearch:
      return {scan_var};
    case LogicalOpKind::kUnnest: {
      auto s = children[0]->schema();
      s.push_back(unnest_var);
      return s;
    }
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kDistinct:
    case LogicalOpKind::kOrder:
      return children[0]->schema();
    case LogicalOpKind::kAssign: {
      auto s = children[0]->schema();
      for (const auto& [v, e] : assigns) s.push_back(v);
      return s;
    }
    case LogicalOpKind::kJoin: {
      auto s = children[0]->schema();
      if (join_kind != JoinKind::kLeftSemi) {
        auto r = children[1]->schema();
        s.insert(s.end(), r.begin(), r.end());
      }
      return s;
    }
    case LogicalOpKind::kGroupBy: {
      std::vector<VarId> s;
      for (const auto& [v, e] : group_keys) s.push_back(v);
      for (const auto& a : aggs) s.push_back(a.var);
      return s;
    }
    case LogicalOpKind::kProject:
      return project_vars;
  }
  return {};
}

std::string LogicalOp::ToString(int indent) const {
  std::ostringstream out;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out << pad;
  switch (kind) {
    case LogicalOpKind::kEmptySource:
      out << "empty-source";
      break;
    case LogicalOpKind::kDataScan:
      out << "data-scan " << dataset << " -> $" << scan_var;
      if (scan_fields_pushed) {
        out << " project:[";
        for (size_t i = 0; i < scan_fields.size(); i++) {
          if (i) out << ",";
          out << scan_fields[i];
        }
        out << "]";
      }
      for (const auto& p : scan_predicates) {
        out << " where:" << p.field << " " << adm::CmpOpName(p.cmp)
            << " " << p.constant.ToString();
      }
      break;
    case LogicalOpKind::kIndexSearch: {
      const char* path = access_path == AccessPathKind::kPrimaryLookup ? "primary-lookup"
                         : access_path == AccessPathKind::kPrimaryRange ? "primary-range"
                         : access_path == AccessPathKind::kSecondaryBTree ? "btree-search"
                         : access_path == AccessPathKind::kRTree ? "rtree-search"
                                                                 : "keyword-search";
      out << "index-search[" << path << "] " << dataset;
      if (!index_name.empty()) out << "." << index_name;
      out << " -> $" << scan_var;
      if (search_lo) out << " lo=" << search_lo->ToString();
      if (search_hi) out << " hi=" << search_hi->ToString();
      if (!sort_pks_before_fetch) out << " (unsorted-fetch)";
      if (residual) out << " residual=" << residual->ToString();
      break;
    }
    case LogicalOpKind::kUnnest:
      out << "unnest $" << unnest_var << " <- " << unnest_expr->ToString()
          << (unnest_outer ? " (outer)" : "");
      break;
    case LogicalOpKind::kSelect:
      out << "select " << condition->ToString();
      break;
    case LogicalOpKind::kAssign: {
      out << "assign";
      for (const auto& [v, e] : assigns) {
        out << " $" << v << " := " << e->ToString() << ";";
      }
      break;
    }
    case LogicalOpKind::kJoin: {
      const char* jk = join_kind == JoinKind::kInner ? "inner"
                       : join_kind == JoinKind::kLeftOuter ? "left-outer"
                                                           : "left-semi";
      out << "join[" << jk << "] " << (condition ? condition->ToString() : "true");
      break;
    }
    case LogicalOpKind::kGroupBy: {
      out << "group-by keys:";
      for (const auto& [v, e] : group_keys) {
        out << " $" << v << "=" << e->ToString();
      }
      out << " aggs:";
      for (const auto& a : aggs) {
        const char* k = a.kind == hyracks::AggKind::kCount ? "count"
                        : a.kind == hyracks::AggKind::kSum ? "sum"
                        : a.kind == hyracks::AggKind::kMin ? "min"
                        : a.kind == hyracks::AggKind::kMax ? "max"
                        : a.kind == hyracks::AggKind::kAvg ? "avg"
                                                           : "collect";
        out << " $" << a.var << "=" << k << "("
            << (a.arg ? a.arg->ToString() : "*") << ")";
      }
      break;
    }
    case LogicalOpKind::kOrder: {
      out << "order-by";
      for (const auto& k : order_keys) {
        out << " " << k.expr->ToString() << (k.ascending ? " asc" : " desc");
      }
      break;
    }
    case LogicalOpKind::kLimit:
      out << "limit " << limit << " offset " << offset;
      break;
    case LogicalOpKind::kDistinct:
      out << "distinct";
      break;
    case LogicalOpKind::kProject: {
      out << "project";
      for (VarId v : project_vars) out << " $" << v;
      break;
    }
  }
  out << "\n";
  for (const auto& c : children) out << c->ToString(indent + 1);
  return out.str();
}

}  // namespace asterix::algebricks
