// axlint call graph: resolves the per-function call sites recorded by the
// scanner into a project-wide graph and computes fixed-point function
// summaries (may-block, transitively-acquired ranked mutexes, cancellation
// coverage). Resolution is conservative and name-based — see DESIGN.md §4e
// "v2: interprocedural analysis" for the exact policy and its deliberate
// imprecision.
//
// Edge classes:
//   confident  — explicit `A::B::Name(...)` qualifiers, receivers whose
//                member type is known, same-class/base unqualified calls,
//                and project-unique names. Used by the lock checks, where a
//                wrong edge would fabricate findings.
//   candidates — name(+arity) matches when no confident target exists,
//                i.e. virtual dispatch through an unknown receiver. Used
//                only by cancellation-coverage, with must-ALL semantics: a
//                candidate call provides coverage only if every bodied
//                candidate is itself covered.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "axlint/scanner.h"

namespace axlint {

class CallGraph {
 public:
  struct Node {
    const FileModel* file = nullptr;
    const FunctionModel* fn = nullptr;
    // Parallel to fn->calls: resolved confident target, or -1.
    std::vector<int> confident;
    // Parallel to fn->calls: candidate targets when confident == -1.
    std::vector<std::vector<int>> candidates;
    // AX_REQUIRES mutexes (definition + declaration), resolved against the
    // rank table to qualified names. The caller holds these across the call.
    std::set<std::string> requires_q;
    int scc = -1;  // condensation component id (confident edges)

    // ---- summaries (fixed point over the SCC condensation) ----
    bool blocks = false;     // may execute a blocking primitive
    std::string blocks_why;  // first reason found, chained through callees
    // Qualified ranked mutex -> where it is (transitively) acquired.
    std::map<std::string, std::string> acquires;
    bool covered = false;  // transitively reaches a cancellation probe
    bool pumps = false;    // transitively calls a Next/NextBatch
  };

  static CallGraph Build(
      const std::vector<FileModel>& files,
      const std::map<std::string, int>& lock_ranks,
      const std::map<std::string, std::vector<std::string>>&
          requires_by_qualified);

  const std::vector<Node>& nodes() const { return nodes_; }
  /// Node id for a scanned function, -1 if the function is not in the graph.
  int IndexOf(const FunctionModel* fn) const;
  /// True when class `derived` (simple name) transitively lists `base` among
  /// its bases. Not reflexive.
  bool DerivesFrom(const std::string& derived, const std::string& base) const;
  /// Transitive bases of class `cls` (simple or qualified name), nearest
  /// first.
  std::vector<std::string> BasesOf(const std::string& cls) const;
  size_t scc_count() const { return scc_count_; }

  /// Resolve a mutex expression seen inside `class_ctx` against the rank
  /// table: exact Class::expr first, then enclosing classes, then (given a
  /// graph) the classes `class_ctx` derives from, then a unique `::expr`
  /// suffix. Returns the rank, -1 if unranked/ambiguous.
  static int ResolveMutexRank(const std::map<std::string, int>& ranks,
                              const std::string& class_ctx,
                              const std::string& expr, std::string* resolved,
                              const CallGraph* graph = nullptr);

 private:
  void ResolveCalls();
  void ComputeScc();
  void ComputeSummaries();

  const std::map<std::string, int>* lock_ranks_ = nullptr;

  std::vector<Node> nodes_;
  std::map<const FunctionModel*, int> index_;
  // Simple class name -> model (first definition wins).
  std::map<std::string, const ClassModel*> classes_;
  // Simple class name -> direct derived classes.
  std::map<std::string, std::set<std::string>> derived_of_;
  // "Class::Method" (full class_ctx and simple-name forms) -> node ids.
  std::map<std::string, std::vector<int>> by_qualified_;
  // Function name -> node ids (all), and free functions only.
  std::map<std::string, std::vector<int>> by_name_;
  std::map<std::string, std::vector<int>> free_by_name_;
  std::vector<int> scc_order_;  // node ids in SCC emission (bottom-up) order
  size_t scc_count_ = 0;
};

}  // namespace axlint
