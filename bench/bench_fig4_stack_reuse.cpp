// FIG4: the layered software stack of paper Fig. 4 and the §IV-A claim
// that SQL++ was implemented "fairly quickly as a peer of AQL, sharing the
// Algebricks query algebra and many optimizer rules as well as the
// associated Hyracks runtime operators and connectors". Demonstrated by:
//   1. semantically equivalent AQL and SQL++ queries producing identical
//      results with comparable latency (same engine underneath),
//   2. both languages' plans containing the same shared algebraic
//      operators and index access paths (rule reuse),
//   3. Hyracks being usable directly as a dataflow library (the "other
//      uses of the stack" across the top of Fig. 4).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "asterix/gleambook.h"
#include "asterix/instance.h"
#include "hyracks/groupby.h"
#include "hyracks/job.h"
#include "hyracks/operators.h"

using namespace asterix;

namespace {
double TimeMs(const std::function<void()>& fn, int reps = 3) {
  fn();  // warm-up
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; i++) fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}
}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string dir = std::filesystem::temp_directory_path() / "ax_bench_fig4";
  std::filesystem::remove_all(dir);
  InstanceOptions options;
  options.base_dir = dir;
  options.num_partitions = 2;
  auto instance = Instance::Open(options).value();

  gleambook::GeneratorOptions gen_opts;
  gen_opts.num_users = 5000;
  gen_opts.num_messages = 20000;
  gleambook::Generator gen(gen_opts);
  if (!instance->ExecuteScript(gleambook::Generator::Ddl(true)).ok()) return 1;
  for (const auto& u : gen.Users()) {
    if (!instance->UpsertValue("GleambookUsers", u).ok()) return 1;
  }
  for (const auto& m : gen.Messages()) {
    if (!instance->UpsertValue("GleambookMessages", m).ok()) return 1;
  }

  std::printf("FIG4: one algebra, one runtime, two languages\n\n");

  struct Pair {
    const char* label;
    const char* sqlpp;
    const char* aql;
  };
  Pair pairs[] = {
      {"filter+project",
       "SELECT VALUE m.messageId FROM GleambookMessages m "
       "WHERE m.authorId = 7",
       "for $m in dataset GleambookMessages where $m.authorId = 7 "
       "return $m.messageId"},
      {"group+aggregate",
       "SELECT g AS author, COUNT(m.messageId) AS n "
       "FROM GleambookMessages m GROUP BY m.authorId AS g",
       "for $m in dataset GleambookMessages "
       "group by $a := $m.authorId with $m "
       "return {\"author\": $a, \"n\": count($m)}"},
      {"sort+limit",
       "SELECT VALUE u.id FROM GleambookUsers u "
       "ORDER BY COLL_COUNT(u.friendIds) DESC, u.id LIMIT 10",
       "for $u in dataset GleambookUsers "
       "order by coll_count($u.friendIds) desc, $u.id limit 10 "
       "return $u.id"},
  };

  std::printf("%-18s %12s %12s %10s %8s %14s\n", "query", "sqlpp ms", "aql ms",
              "rows", "equal?", "shared plan ops");
  for (const auto& p : pairs) {
    QueryResult sql_res, aql_res;
    double sql_ms = TimeMs([&] { sql_res = instance->Execute(p.sqlpp).value(); });
    double aql_ms = TimeMs([&] { aql_res = instance->QueryAql(p.aql).value(); });
    // Results must be identical as multisets.
    auto canon = [](std::vector<adm::Value> rows) {
      std::sort(rows.begin(), rows.end(),
                [](const adm::Value& a, const adm::Value& b) {
                  return a.Compare(b) < 0;
                });
      return rows;
    };
    auto s = canon(sql_res.rows);
    auto a = canon(aql_res.rows);
    bool equal = s.size() == a.size();
    for (size_t i = 0; equal && i < s.size(); i++) equal = s[i] == a[i];
    // Count shared algebraic operators appearing in both plans.
    int shared = 0;
    for (const char* op : {"data-scan", "group-by", "order-by", "select",
                           "index-search", "limit", "assign"}) {
      if (sql_res.plan.find(op) != std::string::npos &&
          aql_res.plan.find(op) != std::string::npos) {
        shared++;
      }
    }
    std::printf("%-18s %9.1f ms %9.1f ms %10zu %8s %14d\n", p.label, sql_ms,
                aql_ms, s.size(), equal ? "yes" : "NO!", shared);
    if (!equal) return 1;
  }

  // ---- Hyracks as a bare dataflow library (Fig. 4's other stack users) ------
  std::printf("\n---- Hyracks reused directly (no language, no Algebricks) ----\n");
  {
    using namespace hyracks;
    TempFileManager tmp(dir + "/tmp");
    auto field0 = [](const Tuple& t) -> Result<adm::Value> { return t.at(0); };
    WorkerPool pool;
    double ms = TimeMs([&] {
      Job job(&pool);
      Exchange* ex = job.AddExchange(2, 2);
      for (int p = 0; p < 2; p++) {
        std::vector<Tuple> data;
        for (int i = 0; i < 20000; i++) {
          data.push_back(Tuple({adm::Value::Int(i % 100)}));
        }
        job.AddProducerTask([ex, field0, data = std::move(data)]() mutable {
          VectorSource src(std::move(data));
          return ex->RunProducer(&src, Exchange::HashRoute({field0}, 2));
        });
      }
      std::vector<StreamPtr> roots;
      for (int c = 0; c < 2; c++) {
        roots.push_back(std::make_unique<HashGroupByOp>(
            ex->ConsumerStream(static_cast<size_t>(c)),
            std::vector<TupleEval>{field0},
            std::vector<AggSpec>{{AggKind::kCount, nullptr}},
            AggPhase::kComplete, resource::MemoryGrant::Fixed(16u << 20),
            &tmp));
      }
      auto results = job.RunCollect(std::move(roots)).value();
      size_t groups = results[0].size() + results[1].size();
      if (groups != 100) exit(1);
    });
    std::printf("word-count-style job over 40k tuples, 2 partitions: %.1f ms\n",
                ms);
    std::printf("(the same operators and connectors the query languages "
                "compile to — Fig. 4's VXQuery/Pregel-style reuse)\n");
  }

  instance.reset();
  std::filesystem::remove_all(dir);
  return 0;
}
