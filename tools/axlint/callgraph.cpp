#include "axlint/callgraph.h"

#include <algorithm>
#include <functional>

namespace axlint {

namespace {

/// Last `::` component of a qualified name ("Outer::Inner" -> "Inner").
std::string SimpleName(const std::string& qualified) {
  size_t cut = qualified.rfind("::");
  return cut == std::string::npos ? qualified : qualified.substr(cut + 2);
}

/// Candidate sets larger than this are dispatch noise, not a virtual call
/// set; they are dropped rather than fed to must-all coverage.
constexpr size_t kMaxCandidates = 24;

}  // namespace

int CallGraph::ResolveMutexRank(const std::map<std::string, int>& ranks,
                                const std::string& class_ctx,
                                const std::string& expr, std::string* resolved,
                                const CallGraph* graph) {
  // A mutex inherited from a base class resolves to the base's entry.
  std::vector<std::string> scopes{class_ctx};
  if (graph != nullptr && !class_ctx.empty()) {
    for (const std::string& b : graph->BasesOf(class_ctx)) scopes.push_back(b);
  }
  for (const std::string& scope : scopes) {
    std::string ctx = scope;
    while (true) {
      std::string key = ctx.empty() ? expr : ctx + "::" + expr;
      auto it = ranks.find(key);
      if (it != ranks.end()) {
        *resolved = key;
        return it->second;
      }
      if (ctx.empty()) break;
      size_t cut = ctx.rfind("::");
      ctx = (cut == std::string::npos) ? "" : ctx.substr(0, cut);
    }
  }
  std::string match;
  int rank = -1;
  for (const auto& [name, r] : ranks) {
    if (name.size() > expr.size() + 2 &&
        name.compare(name.size() - expr.size() - 2, 2, "::") == 0 &&
        name.compare(name.size() - expr.size(), expr.size(), expr) == 0) {
      if (!match.empty()) return -1;  // ambiguous suffix
      match = name;
      rank = r;
    }
  }
  if (!match.empty()) {
    *resolved = match;
    return rank;
  }
  return -1;
}

CallGraph CallGraph::Build(
    const std::vector<FileModel>& files,
    const std::map<std::string, int>& lock_ranks,
    const std::map<std::string, std::vector<std::string>>&
        requires_by_qualified) {
  CallGraph g;
  g.lock_ranks_ = &lock_ranks;
  for (const FileModel& f : files) {
    if (f.module.empty()) continue;  // tests/bench are not graph nodes
    for (const ClassModel& c : f.classes) {
      g.classes_.emplace(c.name, &c);
      if (c.name != c.qualified) g.classes_.emplace(c.qualified, &c);
      for (const std::string& b : c.bases) {
        g.derived_of_[b].insert(c.name);
      }
    }
    for (const FunctionModel& fn : f.functions) {
      int id = static_cast<int>(g.nodes_.size());
      Node n;
      n.file = &f;
      n.fn = &fn;
      g.nodes_.push_back(std::move(n));
      g.index_[&fn] = id;
      g.by_name_[fn.name].push_back(id);
      if (fn.class_ctx.empty()) {
        g.free_by_name_[fn.name].push_back(id);
      } else {
        g.by_qualified_[fn.class_ctx + "::" + fn.name].push_back(id);
        std::string simple = SimpleName(fn.class_ctx);
        if (simple != fn.class_ctx) {
          g.by_qualified_[simple + "::" + fn.name].push_back(id);
        }
      }
    }
  }
  // Resolved AX_REQUIRES sets (definition-site plus declaration-site).
  for (Node& n : g.nodes_) {
    auto add = [&](const std::vector<std::string>& exprs) {
      for (const std::string& e : exprs) {
        std::string resolved;
        if (ResolveMutexRank(lock_ranks, n.fn->class_ctx, e, &resolved,
                             &g) >= 0) {
          n.requires_q.insert(resolved);
        }
      }
    };
    add(n.fn->requires_args);
    auto it = requires_by_qualified.find(n.fn->qualified);
    if (it != requires_by_qualified.end()) add(it->second);
  }
  g.ResolveCalls();
  g.ComputeScc();
  g.ComputeSummaries();
  return g;
}

int CallGraph::IndexOf(const FunctionModel* fn) const {
  auto it = index_.find(fn);
  return it == index_.end() ? -1 : it->second;
}

bool CallGraph::DerivesFrom(const std::string& derived,
                            const std::string& base) const {
  std::set<std::string> seen;
  std::vector<std::string> work{derived};
  while (!work.empty()) {
    std::string cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = classes_.find(cur);
    if (it == classes_.end()) continue;
    for (const std::string& b : it->second->bases) {
      if (b == base) return true;
      work.push_back(b);
    }
  }
  return false;
}

std::vector<std::string> CallGraph::BasesOf(const std::string& cls) const {
  std::vector<std::string> out;
  std::set<std::string> seen{cls, SimpleName(cls)};
  std::vector<std::string> frontier{cls};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& cur : frontier) {
      auto it = classes_.find(cur);
      if (it == classes_.end()) continue;
      for (const std::string& b : it->second->bases) {
        if (seen.insert(b).second) {
          out.push_back(b);
          next.push_back(b);
        }
      }
    }
    frontier = std::move(next);
  }
  return out;
}

void CallGraph::ResolveCalls() {
  // Methods named `name` on class `cls` or any of its bases (nearest class
  // first).
  auto hierarchy_methods = [&](const std::string& cls,
                               const std::string& name) {
    std::vector<int> out;
    std::set<std::string> seen;
    std::vector<std::string> work{cls};
    while (!work.empty()) {
      std::string cur = work.front();
      work.erase(work.begin());
      if (!seen.insert(cur).second) continue;
      auto it = by_qualified_.find(cur + "::" + name);
      if (it != by_qualified_.end()) {
        for (int id : it->second) {
          if (std::find(out.begin(), out.end(), id) == out.end())
            out.push_back(id);
        }
      }
      auto cit = classes_.find(cur);
      if (cit != classes_.end()) {
        for (const std::string& b : cit->second->bases) work.push_back(b);
      }
    }
    return out;
  };
  // Methods named `name` on classes transitively derived from `cls`
  // (virtual-dispatch overrides).
  auto derived_methods = [&](const std::string& cls, const std::string& name) {
    std::vector<int> out;
    std::set<std::string> seen;
    std::vector<std::string> work{cls};
    while (!work.empty()) {
      std::string cur = work.back();
      work.pop_back();
      if (!seen.insert(cur).second) continue;
      auto dit = derived_of_.find(cur);
      if (dit == derived_of_.end()) continue;
      for (const std::string& d : dit->second) {
        auto it = by_qualified_.find(d + "::" + name);
        if (it != by_qualified_.end()) {
          for (int id : it->second) {
            if (std::find(out.begin(), out.end(), id) == out.end())
              out.push_back(id);
          }
        }
        work.push_back(d);
      }
    }
    return out;
  };
  // Declared type of `recv` as a member of `cls` or its bases, "" if unknown.
  auto member_type = [&](const std::string& cls, const std::string& recv) {
    std::set<std::string> seen;
    std::vector<std::string> work{cls, SimpleName(cls)};
    while (!work.empty()) {
      std::string cur = work.back();
      work.pop_back();
      if (cur.empty() || !seen.insert(cur).second) continue;
      auto cit = classes_.find(cur);
      if (cit == classes_.end()) continue;
      auto mit = cit->second->member_types.find(recv);
      if (mit != cit->second->member_types.end()) return mit->second;
      for (const std::string& b : cit->second->bases) work.push_back(b);
    }
    return std::string();
  };
  auto arity_filter = [&](std::vector<int> ids, int arity) {
    std::vector<int> exact;
    for (int id : ids) {
      if (nodes_[id].fn->param_arity == arity) exact.push_back(id);
    }
    return exact.empty() ? ids : exact;
  };

  for (Node& n : nodes_) {
    const FunctionModel& fn = *n.fn;
    n.confident.assign(fn.calls.size(), -1);
    n.candidates.assign(fn.calls.size(), {});
    for (size_t ci = 0; ci < fn.calls.size(); ci++) {
      const CallSite& cs = fn.calls[ci];
      std::vector<int> ids;
      bool allow_fallback = true;  // name+arity candidates when unresolved
      if (!cs.qual.empty()) {
        // Explicit qualifier: Class::Name / Outer::Inner::Name / ns::Name.
        auto it = by_qualified_.find(cs.qual + "::" + cs.name);
        if (it == by_qualified_.end()) {
          it = by_qualified_.find(SimpleName(cs.qual) + "::" + cs.name);
        }
        if (it != by_qualified_.end()) {
          ids = it->second;
        } else if (!classes_.count(cs.qual) &&
                   !classes_.count(SimpleName(cs.qual))) {
          // Namespace qualifier (e.g. storage::FormatKey): free function.
          auto fit = free_by_name_.find(cs.name);
          if (fit != free_by_name_.end()) ids = fit->second;
          // A qualifier pointing outside the project (std::, chrono::)
          // must not degrade into name candidates.
          allow_fallback = false;
        } else {
          allow_fallback = false;  // known class, method not in project
        }
      } else if (!cs.recv.empty() && cs.recv != "this") {
        std::string type = member_type(fn.class_ctx, cs.recv);
        if (!type.empty()) {
          ids = hierarchy_methods(type, cs.name);
          std::vector<int> overrides = derived_methods(type, cs.name);
          for (int id : overrides) {
            if (std::find(ids.begin(), ids.end(), id) == ids.end())
              ids.push_back(id);
          }
          allow_fallback = false;  // typed receiver: stay in the hierarchy
        }
      } else {
        // Unqualified / this->: own class and bases first, then a unique
        // free function.
        if (!fn.class_ctx.empty()) {
          ids = hierarchy_methods(fn.class_ctx, cs.name);
          if (ids.empty()) {
            ids = hierarchy_methods(SimpleName(fn.class_ctx), cs.name);
          }
        }
        if (ids.empty()) {
          auto fit = free_by_name_.find(cs.name);
          if (fit != free_by_name_.end()) ids = fit->second;
        }
      }
      if (ids.empty() && allow_fallback) {
        auto it = by_name_.find(cs.name);
        if (it != by_name_.end()) ids = it->second;
      }
      if (ids.empty()) continue;
      ids = arity_filter(std::move(ids), cs.arity);
      if (ids.size() == 1) {
        n.confident[ci] = ids[0];
      } else if (ids.size() <= kMaxCandidates) {
        n.candidates[ci] = std::move(ids);
      }
    }
  }
}

void CallGraph::ComputeScc() {
  // Tarjan over confident edges. Emission order is bottom-up: when a
  // component is emitted, every component it can reach is already emitted,
  // so summaries can be computed in scc_order_ directly.
  size_t n = nodes_.size();
  std::vector<int> low(n, -1), num(n, -1), comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int counter = 0, comps = 0;
  std::function<void(int)> dfs = [&](int v) {
    low[v] = num[v] = counter++;
    stack.push_back(v);
    on_stack[v] = true;
    for (int w : nodes_[v].confident) {
      if (w < 0) continue;
      if (num[w] < 0) {
        dfs(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], num[w]);
      }
    }
    if (low[v] == num[v]) {
      while (true) {
        int w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp[w] = comps;
        scc_order_.push_back(w);
        if (w == v) break;
      }
      comps++;
    }
  };
  for (size_t v = 0; v < n; v++) {
    if (num[v] < 0) dfs(static_cast<int>(v));
  }
  for (size_t v = 0; v < n; v++) nodes_[v].scc = comp[v];
  scc_count_ = static_cast<size_t>(comps);
}

void CallGraph::ComputeSummaries() {
  auto chain = [](std::string why) {
    if (why.size() > 160) why = why.substr(0, 157) + "...";
    return why;
  };
  // blocks + acquires: bottom-up over the condensation, iterating each
  // component until its members stabilize (mutual recursion).
  size_t at = 0;
  while (at < scc_order_.size()) {
    size_t end = at;
    int comp = nodes_[scc_order_[at]].scc;
    while (end < scc_order_.size() && nodes_[scc_order_[end]].scc == comp)
      end++;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t k = at; k < end; k++) {
        Node& nd = nodes_[scc_order_[k]];
        const FunctionModel& fn = *nd.fn;
        for (const BodyEvent& e : fn.events) {
          if (e.in_lambda) continue;  // runs on another thread
          const char* prim = nullptr;
          if (e.kind == BodyEvent::kWait) prim = "waits on a condition variable";
          if (e.kind == BodyEvent::kSleep) prim = "sleeps";
          if (e.kind == BodyEvent::kFsync) prim = "fsyncs";
          if (e.kind == BodyEvent::kJoin) prim = "joins a thread";
          if (prim != nullptr && !nd.blocks) {
            nd.blocks = true;
            nd.blocks_why = std::string(prim) + " at " + nd.file->path + ":" +
                            std::to_string(e.line);
            changed = true;
          }
          if (e.kind == BodyEvent::kAcquire) {
            std::string expr = e.what;
            auto gv = fn.guard_vars.find(expr);
            if (gv != fn.guard_vars.end()) expr = gv->second;
            std::string resolved;
            if (ResolveMutexRank(*lock_ranks_, fn.class_ctx, expr,
                                 &resolved, this) >= 0 &&
                !nd.acquires.count(resolved)) {
              nd.acquires[resolved] = "in " + fn.qualified;
              changed = true;
            }
          }
          if (e.kind == BodyEvent::kCall) {
            if (!nd.pumps &&
                (e.what == "Next" || e.what == "NextBatch")) {
              nd.pumps = true;
              changed = true;
            }
            int target = nd.confident[e.index];
            if (target < 0) continue;
            const Node& callee = nodes_[target];
            if (callee.pumps && !nd.pumps) {
              nd.pumps = true;
              changed = true;
            }
            if (callee.blocks && !nd.blocks) {
              nd.blocks = true;
              nd.blocks_why = chain("calls " + callee.fn->qualified +
                                    ", which " + callee.blocks_why);
              changed = true;
            }
            for (const auto& [m, why] : callee.acquires) {
              if (!nd.acquires.count(m)) {
                nd.acquires[m] =
                    chain("via " + callee.fn->qualified +
                          (why.rfind("in ", 0) == 0 ? "" : " " + why));
                changed = true;
              }
            }
          }
        }
      }
    }
    at = end;
  }
  // covered: global monotone fixed point, because must-all candidate edges
  // do not respect the confident-edge condensation.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Node& nd : nodes_) {
      if (nd.covered) continue;
      bool now = false;
      for (const BodyEvent& e : nd.fn->events) {
        if (e.kind == BodyEvent::kProbe) {
          now = true;
          break;
        }
        if (e.kind != BodyEvent::kCall) continue;
        int target = nd.confident[e.index];
        if (target >= 0) {
          if (nodes_[target].covered) {
            now = true;
            break;
          }
          continue;
        }
        const std::vector<int>& cand = nd.candidates[e.index];
        if (cand.empty()) continue;
        bool all = true;
        for (int id : cand) {
          if (!nodes_[id].covered) {
            all = false;
            break;
          }
        }
        if (all) {
          now = true;
          break;
        }
      }
      if (now) {
        nd.covered = true;
        changed = true;
      }
    }
  }
}

}  // namespace axlint
