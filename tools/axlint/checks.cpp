#include "axlint/checks.h"

#include <algorithm>
#include <functional>

#include "axlint/callgraph.h"

namespace axlint {

namespace {

// ---------------------------------------------------------------------------
// layering: the module include DAG. Edges point at what a module MAY include.
// common → {adm} → {txn, storage} → hyracks → algebricks → sqlpp → aql →
// asterix; feeds sits beside the language layers: it may use the runtime
// stack but never the compilers, and resource (workload management) sits
// just above common so both hyracks operators and the asterix facade can
// thread QueryContext/MemoryGrant without cycles. Violations are
// per-include findings; a cycle in the *actual* include graph is a hard
// error that no baseline or suppression can hide.
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"adm", {"common"}},
      {"resource", {"common"}},
      {"txn", {"common", "adm"}},
      {"storage", {"common", "adm"}},
      {"hyracks", {"common", "adm", "resource", "txn", "storage"}},
      {"algebricks",
       {"common", "adm", "resource", "txn", "storage", "hyracks"}},
      {"sqlpp",
       {"common", "adm", "resource", "txn", "storage", "hyracks",
        "algebricks"}},
      {"aql",
       {"common", "adm", "resource", "txn", "storage", "hyracks", "algebricks",
        "sqlpp"}},
      {"feeds", {"common", "adm", "txn", "storage", "hyracks"}},
      {"asterix",
       {"common", "adm", "resource", "txn", "storage", "hyracks", "algebricks",
        "sqlpp", "aql", "feeds"}},
  };
  return kAllowed;
}

std::string IncludeModule(const std::string& inc_path) {
  size_t slash = inc_path.find('/');
  if (slash == std::string::npos) return "";
  std::string head = inc_path.substr(0, slash);
  return AllowedDeps().count(head) ? head : "";
}

void CheckLayering(const Project& p, std::vector<Finding>* out) {
  // module -> included module -> one example (file, line) for reporting.
  std::map<std::string, std::map<std::string, std::pair<std::string, int>>>
      edges;
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;  // tests/bench may include anything
    auto allowed_it = AllowedDeps().find(f.module);
    const std::set<std::string>& allowed = allowed_it->second;
    for (const IncludeLine& inc : f.lexed.includes) {
      if (inc.angled) continue;
      std::string target = IncludeModule(inc.path);
      if (target.empty() || target == f.module) continue;
      if (!edges[f.module].count(target)) {
        edges[f.module][target] = {f.path, inc.line};
      }
      if (allowed.count(target)) continue;
      if (f.lexed.IsSuppressed("layering", inc.line)) continue;
      out->push_back({"layering", f.path, inc.line,
                      "module '" + f.module + "' must not include '" +
                          inc.path + "' (layer '" + target +
                          "' is not below '" + f.module + "' in the DAG)"});
    }
  }
  // Cycle detection over the actual include graph (DFS, deterministic order).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& m) {
    color[m] = 1;
    stack.push_back(m);
    auto it = edges.find(m);
    if (it != edges.end()) {
      for (const auto& [to, example] : it->second) {
        if (color[to] == 2) continue;
        if (color[to] == 1) {
          // Reconstruct the cycle m -> ... -> to -> m.
          std::string desc;
          auto at = std::find(stack.begin(), stack.end(), to);
          for (auto s = at; s != stack.end(); ++s) desc += *s + " -> ";
          desc += to;
          out->push_back({"layering", example.first, example.second,
                          "include cycle between modules: " + desc +
                              " (hard error; cycles cannot be baselined)",
                          /*hard=*/true});
          continue;
        }
        dfs(to);
      }
    }
    stack.pop_back();
    color[m] = 2;
  };
  for (const auto& [m, _] : edges) {
    if (color[m] == 0) dfs(m);
  }
}

// ---------------------------------------------------------------------------
// lock-order: every std::mutex/shared_mutex member must (a) appear in the
// DESIGN.md §4a rank table and (b) have at least one AX_GUARDED_BY neighbor
// in its class. Function bodies are then simulated: acquiring a mutex whose
// rank is LOWER than one already held inverts the hierarchy.
// ---------------------------------------------------------------------------

/// Resolve a mutex expression seen in `class_ctx` against the rank table
/// (see CallGraph::ResolveMutexRank).
int ResolveRank(const Project& p, const std::string& class_ctx,
                const std::string& expr, std::string* resolved) {
  return CallGraph::ResolveMutexRank(p.lock_ranks, class_ctx, expr, resolved,
                                     p.graph);
}

void CheckLockOrder(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    // (a)+(b): mutex-member hygiene, headers only (where members live).
    for (const ClassModel& c : f.classes) {
      for (const MutexMember& m : c.mutexes) {
        if (f.lexed.IsSuppressed("lock-order", m.line)) continue;
        if (!p.lock_ranks.count(m.qualified)) {
          out->push_back({"lock-order", f.path, m.line,
                          "mutex '" + m.qualified +
                              "' has no entry in the axlint-lock-ranks table "
                              "in DESIGN.md §4a"});
        }
        if (!c.guarded_by_args.count(m.name)) {
          out->push_back({"lock-order", f.path, m.line,
                          "mutex '" + m.qualified +
                              "' guards no member: add AX_GUARDED_BY(" +
                              m.name + ") to the data it protects"});
        }
      }
    }
    // (c): acquisition-order simulation per function.
    for (const FunctionModel& fn : f.functions) {
      struct Held {
        std::string name;
        int rank;
        int depth;
        bool scoped;
      };
      std::vector<Held> held;
      auto seed = [&](const std::vector<std::string>& exprs) {
        for (const std::string& e : exprs) {
          std::string resolved;
          int r = ResolveRank(p, fn.class_ctx, e, &resolved);
          if (r >= 0) held.push_back({resolved, r, 0, false});
        }
      };
      seed(fn.requires_args);
      auto decl_it = p.requires_by_qualified.find(fn.qualified);
      if (decl_it != p.requires_by_qualified.end()) seed(decl_it->second);
      for (const Acquisition& a : fn.acquisitions) {
        // Scoped guards from deeper (already closed) blocks are released.
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const Held& h) {
                                    return h.scoped && h.depth > a.depth;
                                  }),
                   held.end());
        std::string resolved;
        int rank = ResolveRank(p, fn.class_ctx, a.mutex_expr, &resolved);
        if (rank < 0) continue;  // local/test mutex or ambiguous: skip
        for (const Held& h : held) {
          if (h.name == resolved) continue;
          if (rank < h.rank &&
              !f.lexed.IsSuppressed("lock-order", a.line)) {
            out->push_back(
                {"lock-order", f.path, a.line,
                 fn.qualified + " acquires '" + resolved + "' (rank " +
                     std::to_string(rank) + ") while holding '" + h.name +
                     "' (rank " + std::to_string(h.rank) +
                     "): lock-order inversion against DESIGN.md §4a"});
          }
        }
        held.push_back({resolved, rank, a.depth, a.scoped});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// must-check: Status/Result class declarations must carry [[nodiscard]]
// (mechanically fixable), and no statement may discard a call to a function
// declared to return Status/Result — including explicit `(void)` casts,
// which need an `// axlint: allow(must-check): why` justification.
// ---------------------------------------------------------------------------

void CheckMustCheck(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const ClassModel& c : f.classes) {
      if ((c.name == "Status" || c.name == "Result") && !c.nodiscard &&
          !f.lexed.IsSuppressed("must-check", c.line)) {
        Finding fd{"must-check", f.path, c.line,
                   "class '" + c.name +
                       "' must be declared [[nodiscard]] so dropped return "
                       "values fail the build (axlint --fix inserts it)"};
        fd.fix_offset = c.keyword_offset;
        fd.fix_insert = "[[nodiscard]] ";
        out->push_back(std::move(fd));
      }
    }
    for (const FunctionModel& fn : f.functions) {
      for (const DiscardedCall& d : fn.discarded_calls) {
        bool statusish = (p.status_names.count(d.callee) ||
                          p.result_names.count(d.callee)) &&
                         !p.mixed_names.count(d.callee);
        if (!statusish) continue;
        if (f.lexed.IsSuppressed("must-check", d.line)) continue;
        if (d.void_cast) {
          out->push_back(
              {"must-check", f.path, d.line,
               fn.qualified + " discards the Status/Result of '" + d.callee +
                   "' via (void): add `// axlint: allow(must-check): "
                   "<reason>` if this is genuinely fire-and-forget"});
        } else {
          out->push_back({"must-check", f.path, d.line,
                          fn.qualified + " ignores the Status/Result of '" +
                              d.callee +
                              "': handle it, AX_RETURN_NOT_OK it, or justify "
                              "a (void) cast"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: src/feeds/ and src/txn/ replay and recover, src/storage/
// runs background maintenance whose flush/merge decisions must be
// reproducible from inputs alone, and src/resource/ makes admission and
// grant decisions that tests replay deterministically; wall-clock and
// ambient randomness in any of them break reproducibility. Time must come
// through an injectable clock (std::chrono::steady_clock for durations
// only) and randomness through common/rng.h.
// ---------------------------------------------------------------------------

void CheckDeterminism(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files) {
    if (f.module != "feeds" && f.module != "txn" && f.module != "storage" &&
        f.module != "resource") {
      continue;
    }
    for (const DeterminismUse& u : f.determinism) {
      if (f.lexed.IsSuppressed("determinism", u.line)) continue;
      std::string hint =
          (u.what == "rand" || u.what == "srand" || u.what == "random_device")
              ? "use the seeded generator in common/rng.h"
              : "inject the clock (steady_clock is fine for durations)";
      out->push_back({"determinism", f.path, u.line,
                      "non-deterministic API '" + u.what + "' in src/" +
                          f.module + "/: " + hint});
    }
  }
}

// ---------------------------------------------------------------------------
// metrics-sync: every GetCounter/GetHistogram literal in src/ must be
// documented in docs/METRICS.md, and every documented metric must still
// exist in code. Subsumes tools/check_metrics_docs.sh.
// ---------------------------------------------------------------------------

void CheckMetricsSync(const Project& p, std::vector<Finding>* out) {
  std::set<std::string> in_code;
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const MetricLiteral& m : f.metrics) {
      in_code.insert(m.name);
      if (p.doc_metrics.count(m.name)) continue;
      if (f.lexed.IsSuppressed("metrics-sync", m.line)) continue;
      out->push_back({"metrics-sync", f.path, m.line,
                      "metric '" + m.name +
                          "' is registered in code but not documented in "
                          "docs/METRICS.md"});
    }
  }
  for (const auto& [name, line] : p.doc_metrics) {
    if (in_code.count(name)) continue;
    out->push_back({"metrics-sync", "docs/METRICS.md", line,
                    "metric '" + name +
                        "' is documented but no GetCounter/GetHistogram "
                        "call registers it"});
  }
}

// ---------------------------------------------------------------------------
// The v2 interprocedural checks. All four run over the call graph built by
// the driver (Project::graph) — resolution policy and summary semantics are
// in callgraph.h and DESIGN.md §4e "v2: interprocedural analysis".
// ---------------------------------------------------------------------------

/// Shared held-lock simulation state. Seeds are the function's resolved
/// AX_REQUIRES set (depth 0, never released by scope); scoped guards are
/// released when an event at a shallower brace depth is reached, explicit
/// .lock() only by a matching kUnlock.
struct HeldLock {
  std::string name;  // qualified ranked mutex
  int rank = 0;
  int depth = 0;
  bool scoped = false;
};

std::string SimpleClassName(const std::string& qualified) {
  size_t cut = qualified.rfind("::");
  return cut == std::string::npos ? qualified : qualified.substr(cut + 2);
}

/// Resolve the mutex behind an event's `what` (mapping guard variables
/// first) to a qualified ranked name. Returns rank, -1 when unranked.
int EventMutexRank(const Project& p, const FunctionModel& fn,
                   const std::string& what, std::string* resolved) {
  std::string expr = what;
  auto gv = fn.guard_vars.find(expr);
  if (gv != fn.guard_vars.end()) expr = gv->second;
  return CallGraph::ResolveMutexRank(p.lock_ranks, fn.class_ctx, expr,
                                     resolved, p.graph);
}

void ReleaseByDepth(std::vector<HeldLock>* held, int depth) {
  held->erase(std::remove_if(held->begin(), held->end(),
                             [&](const HeldLock& h) {
                               return h.scoped && h.depth > depth;
                             }),
              held->end());
}

std::vector<HeldLock> SeedRequires(const Project& p,
                                   const CallGraph::Node& node) {
  std::vector<HeldLock> held;
  for (const std::string& m : node.requires_q) {
    auto it = p.lock_ranks.find(m);
    if (it != p.lock_ranks.end()) {
      held.push_back({m, it->second, 0, /*scoped=*/false});
    }
  }
  return held;
}

// ---------------------------------------------------------------------------
// blocking-under-lock: no path may hold a ranked mutex across a blocking
// primitive or a call whose summary says it may block. A cv-wait is exempt
// for the mutex its lock argument wraps (the wait releases it); a blocking
// callee's AX_REQUIRES mutexes are exempt at the call site (the callee
// blocks *via* them — the cooperative-drain pattern — and findings inside
// the callee itself still fire from its own seeded simulation).
// ---------------------------------------------------------------------------

void CheckBlockingUnderLock(const Project& p, std::vector<Finding>* out) {
  const CallGraph& g = *p.graph;
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const FunctionModel& fn : f.functions) {
      int id = g.IndexOf(&fn);
      if (id < 0) continue;
      const CallGraph::Node& node = g.nodes()[id];
      std::vector<HeldLock> held = SeedRequires(p, node);
      for (const BodyEvent& e : fn.events) {
        if (e.in_lambda) continue;  // runs on another thread
        ReleaseByDepth(&held, e.depth);
        std::string resolved;
        switch (e.kind) {
          case BodyEvent::kAcquire: {
            int r = EventMutexRank(p, fn, e.what, &resolved);
            if (r >= 0) held.push_back({resolved, r, e.depth, e.scoped});
            break;
          }
          case BodyEvent::kUnlock: {
            if (EventMutexRank(p, fn, e.what, &resolved) >= 0) {
              held.erase(std::remove_if(held.begin(), held.end(),
                                        [&](const HeldLock& h) {
                                          return h.name == resolved;
                                        }),
                         held.end());
            }
            break;
          }
          case BodyEvent::kWait: {
            // The wait releases the mutex its lock argument wraps; if the
            // argument is opaque (a parameter), assume it wraps the most
            // recently acquired mutex.
            std::vector<HeldLock> rest = held;
            if (EventMutexRank(p, fn, e.what, &resolved) >= 0) {
              rest.erase(std::remove_if(rest.begin(), rest.end(),
                                        [&](const HeldLock& h) {
                                          return h.name == resolved;
                                        }),
                         rest.end());
            } else if (!rest.empty()) {
              rest.pop_back();
            }
            if (!rest.empty() &&
                !f.lexed.IsSuppressed("blocking-under-lock", e.line)) {
              out->push_back(
                  {"blocking-under-lock", f.path, e.line,
                   fn.qualified + " waits on a condition variable while '" +
                       rest.front().name + "' (rank " +
                       std::to_string(rest.front().rank) +
                       ") stays held: the wait releases only its own lock"});
            }
            break;
          }
          case BodyEvent::kSleep:
          case BodyEvent::kFsync:
          case BodyEvent::kJoin: {
            if (held.empty()) break;
            if (f.lexed.IsSuppressed("blocking-under-lock", e.line)) break;
            const char* what = e.kind == BodyEvent::kSleep
                                   ? "sleeps"
                                   : e.kind == BodyEvent::kFsync
                                         ? "fsyncs"
                                         : "joins a thread";
            out->push_back({"blocking-under-lock", f.path, e.line,
                            fn.qualified + " " + what + " while holding '" +
                                held.front().name + "' (rank " +
                                std::to_string(held.front().rank) + ")"});
            break;
          }
          case BodyEvent::kCall: {
            int target = node.confident[e.index];
            if (target < 0) break;
            const CallGraph::Node& callee = g.nodes()[target];
            if (!callee.blocks) break;
            std::vector<HeldLock> effective;
            for (const HeldLock& h : held) {
              if (!callee.requires_q.count(h.name)) effective.push_back(h);
            }
            if (effective.empty()) break;
            if (f.lexed.IsSuppressed("blocking-under-lock", e.line)) break;
            out->push_back({"blocking-under-lock", f.path, e.line,
                            fn.qualified + " calls " + callee.fn->qualified +
                                ", which " + callee.blocks_why +
                                ", while holding '" + effective.front().name +
                                "' (rank " +
                                std::to_string(effective.front().rank) + ")"});
            break;
          }
          default:
            break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// xfn-lock-order: propagate held-lock sets through confident calls so rank
// inversions (and re-acquisitions of an already-held mutex) that span
// function boundaries are caught. Same-body inversions are the v1
// lock-order check's job and are not re-reported here.
// ---------------------------------------------------------------------------

void CheckXfnLockOrder(const Project& p, std::vector<Finding>* out) {
  const CallGraph& g = *p.graph;
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const FunctionModel& fn : f.functions) {
      int id = g.IndexOf(&fn);
      if (id < 0) continue;
      const CallGraph::Node& node = g.nodes()[id];
      std::vector<HeldLock> held = SeedRequires(p, node);
      for (const BodyEvent& e : fn.events) {
        if (e.in_lambda) continue;
        ReleaseByDepth(&held, e.depth);
        std::string resolved;
        if (e.kind == BodyEvent::kAcquire) {
          int r = EventMutexRank(p, fn, e.what, &resolved);
          if (r >= 0) held.push_back({resolved, r, e.depth, e.scoped});
          continue;
        }
        if (e.kind == BodyEvent::kUnlock) {
          if (EventMutexRank(p, fn, e.what, &resolved) >= 0) {
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const HeldLock& h) {
                                        return h.name == resolved;
                                      }),
                       held.end());
          }
          continue;
        }
        if (e.kind != BodyEvent::kCall || held.empty()) continue;
        int target = node.confident[e.index];
        if (target < 0) continue;
        const CallGraph::Node& callee = g.nodes()[target];
        for (const auto& [m, where] : callee.acquires) {
          auto rit = p.lock_ranks.find(m);
          if (rit == p.lock_ranks.end()) continue;
          int mrank = rit->second;
          for (const HeldLock& h : held) {
            if (h.name == m) {
              if (!f.lexed.IsSuppressed("xfn-lock-order", e.line)) {
                out->push_back({"xfn-lock-order", f.path, e.line,
                                fn.qualified + " calls " +
                                    callee.fn->qualified +
                                    ", which may re-acquire '" + m +
                                    "' (already held: self-deadlock), " +
                                    where});
              }
              break;
            }
            if (mrank < h.rank) {
              if (!f.lexed.IsSuppressed("xfn-lock-order", e.line)) {
                out->push_back(
                    {"xfn-lock-order", f.path, e.line,
                     fn.qualified + " calls " + callee.fn->qualified +
                         ", which acquires '" + m + "' (rank " +
                         std::to_string(mrank) + ", " + where +
                         ") while holding '" + h.name + "' (rank " +
                         std::to_string(h.rank) +
                         "): interprocedural lock-order inversion"});
              }
              break;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cancellation-coverage: every TupleStream::Next/NextBatch override that
// pumps an input in a loop, and every feed-stage function with an infinite
// loop, must transitively reach a cancellation probe (CheckAlive / a stop
// flag) from inside the loop. A call through an unknown receiver counts
// only if EVERY bodied candidate is covered (must-all virtual semantics).
// ---------------------------------------------------------------------------

void CheckCancellationCoverage(const Project& p, std::vector<Finding>* out) {
  const CallGraph& g = *p.graph;
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const FunctionModel& fn : f.functions) {
      int id = g.IndexOf(&fn);
      if (id < 0) continue;
      const CallGraph::Node& node = g.nodes()[id];
      bool pump_loop = false;
      for (const BodyEvent& e : fn.events) {
        if (e.kind != BodyEvent::kCall || e.loop_depth < 1) continue;
        int t = node.confident[e.index];
        if (e.what == "Next" || e.what == "NextBatch" ||
            (t >= 0 && g.nodes()[t].pumps)) {
          pump_loop = true;
          break;
        }
      }
      bool stream_subject =
          (fn.name == "Next" || fn.name == "NextBatch") &&
          !fn.class_ctx.empty() &&
          g.DerivesFrom(SimpleClassName(fn.class_ctx), "TupleStream") &&
          (pump_loop || fn.has_infinite_loop);
      bool feed_subject = f.module == "feeds" && fn.has_infinite_loop;
      if (!stream_subject && !feed_subject) continue;

      bool covered = false;
      for (const BodyEvent& e : fn.events) {
        if (e.loop_depth < 1) continue;
        if (e.kind == BodyEvent::kProbe) {
          covered = true;
          break;
        }
        if (e.kind != BodyEvent::kCall) continue;
        int target = node.confident[e.index];
        if (target >= 0) {
          if (g.nodes()[target].covered) {
            covered = true;
            break;
          }
          continue;
        }
        const std::vector<int>& cand = node.candidates[e.index];
        if (cand.empty()) continue;
        bool all = true;
        for (int cid : cand) {
          if (!g.nodes()[cid].covered) {
            all = false;
            break;
          }
        }
        if (all) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      if (f.lexed.IsSuppressed("cancellation-coverage", fn.line)) continue;
      std::string why =
          stream_subject
              ? " pumps its input in a loop but never reaches "
                "QueryContext::CheckAlive or a stop probe: a cancelled query "
                "keeps running until the operator drains"
              : " runs an infinite feed-stage loop that never polls a stop "
                "probe: the feed cannot be cancelled";
      out->push_back(
          {"cancellation-coverage", f.path, fn.line, fn.qualified + why});
    }
  }
}

// ---------------------------------------------------------------------------
// raii-leak: a guard object (lock guards, MemoryGrant, AdmissionSlot,
// TxnScope, PageHandle) constructed as an unnamed temporary dies before the
// next statement — it protects nothing; constructed with `new` it leaks on
// every early-return path. Both are flagged unconditionally: name the
// local, or keep the guard on the stack.
// ---------------------------------------------------------------------------

void CheckRaiiLeak(const Project& p, std::vector<Finding>* out) {
  for (const FileModel& f : p.files) {
    if (f.module.empty()) continue;
    for (const FunctionModel& fn : f.functions) {
      for (const BodyEvent& e : fn.events) {
        if (e.kind == BodyEvent::kRaiiTemp) {
          if (f.lexed.IsSuppressed("raii-leak", e.line)) continue;
          out->push_back({"raii-leak", f.path, e.line,
                          fn.qualified + " constructs an unnamed '" + e.what +
                              "' temporary that is destroyed immediately: "
                              "bind it to a named local or it guards "
                              "nothing"});
        }
        if (e.kind == BodyEvent::kRaiiNew) {
          if (f.lexed.IsSuppressed("raii-leak", e.line)) continue;
          out->push_back({"raii-leak", f.path, e.line,
                          fn.qualified + " heap-allocates a '" + e.what +
                              "' guard: early-return paths leak it and its "
                              "resource — construct it on the stack"});
        }
      }
    }
  }
}

}  // namespace

const std::vector<CheckInfo>& Checks() {
  static const std::vector<CheckInfo> kChecks = {
      {"layering",
       "module include DAG: common -> {adm,resource} -> {txn,storage} -> "
       "hyracks -> algebricks -> sqlpp -> aql -> asterix; feeds beside the "
       "compilers",
       CheckLayering},
      {"lock-order",
       "mutexes must be ranked in DESIGN.md 4a and acquired outer-to-inner",
       CheckLockOrder},
      {"must-check",
       "Status/Result must be [[nodiscard]] and never silently dropped",
       CheckMustCheck},
      {"determinism",
       "no ambient randomness or wall-clock in src/feeds/, src/txn/, "
       "src/storage/ and src/resource/",
       CheckDeterminism},
      {"metrics-sync",
       "metric literals and docs/METRICS.md must agree in both directions",
       CheckMetricsSync},
      {"blocking-under-lock",
       "no ranked mutex may be held across a transitively-blocking call "
       "(cv-wait, sleep, fsync, thread-join)",
       CheckBlockingUnderLock},
      {"xfn-lock-order",
       "held-lock sets propagate through calls: rank inversions and "
       "re-acquisitions spanning function boundaries",
       CheckXfnLockOrder},
      {"cancellation-coverage",
       "TupleStream pump loops and feed-stage loops must transitively reach "
       "CheckAlive or a stop probe",
       CheckCancellationCoverage},
      {"raii-leak",
       "grant/slot/scope/lock guards must not be unnamed temporaries or "
       "heap-allocated",
       CheckRaiiLeak},
  };
  return kChecks;
}

}  // namespace axlint
