// Enumeration-strategy scalability sweep (DESIGN.md §12): synthetic
// shared-prefix batches of 10 -> 1000 statements, optimized (never
// executed) under each EnumerationStrategy. Reports per-strategy
// optimization time, Step-3 enumeration time, chosen-set size, and final
// plan cost vs. exhaustive on the sizes where exhaustive is feasible.
//
// The batch generator cycles over twelve join cores with distinct table
// signatures; statements sharing a core differ in grouping column,
// aggregate, and range predicate, so every core yields a covering CSE
// (merged group-by + predicate hull) and the candidate pool saturates the
// max_candidates cap as the batch grows — which is what makes §5.3
// exhaustive subset re-optimization the scaling bottleneck the approximate
// strategy exists to avoid.
//
// Exhaustive runs only while its (linearly) predicted Step-3 time fits the
// wall-clock budget (SUBSHARE_MQO_BUDGET seconds, default 15); beyond that
// its time at the target size is extrapolated linearly from the largest
// feasible run — conservative, since per-optimization cost grows with the
// memo while the subset count is fixed by the candidate cap.
//
// Tracked regression bars (exit code 1 on failure):
//   * at the largest size, approximate enumerates >= 10x faster than
//     exhaustive (measured, or the extrapolation above);
//   * on every size where exhaustive completed, approximate's final plan
//     cost is within 25% of exhaustive's.
//
// Step 3 is a small share of the whole optimizer call at large sizes, so
// the JSON also records each strategy's total optimize time at the largest
// size next to its Step-3 time (an extrapolated exhaustive run adds its
// extrapolated Step-3 time to approximate's strategy-invariant remainder).
//
// Writes BENCH_mqo_scale.json (latest run) and appends one line to
// BENCH_mqo_scale_history.jsonl.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/check.h"
#include "util/string_util.h"

namespace subshare::bench {
namespace {

struct Core {
  const char* from;
  const char* join;
  const char* groups[3];
  const char* aggs[3];
  const char* preds[3];
};

// Twelve cores with pairwise-distinct table signatures. Predicate variants
// are single-column ranges so the §4.2 hull simplification applies.
const Core kCores[] = {
    {"customer, orders, lineitem",
     "c_custkey = o_custkey and o_orderkey = l_orderkey",
     {"c_nationkey", "c_mktsegment", "o_orderpriority"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1997-01-01'",
      "o_orderdate < '1995-07-01'"}},
    {"customer, orders, lineitem, nation",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey",
     {"n_regionkey", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_discount)", "count(*)"},
     {"c_nationkey > 0 and c_nationkey < 20",
      "c_nationkey > 2 and c_nationkey < 24",
      "c_nationkey > 5 and c_nationkey < 25"}},
    {"orders, lineitem", "o_orderkey = l_orderkey",
     {"o_orderpriority", "o_orderstatus", "o_shippriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"o_totalprice > 1000", "o_totalprice > 5000", "o_totalprice > 10000"}},
    {"customer, orders", "c_custkey = o_custkey",
     {"c_mktsegment", "c_nationkey", "o_orderstatus"},
     {"sum(o_totalprice)", "count(*)", "max(o_totalprice)"},
     {"c_acctbal > -100", "c_acctbal > 0", "c_acctbal > 500"}},
    {"part, lineitem", "p_partkey = l_partkey",
     {"p_brand", "p_type", "p_container"},
     {"sum(l_quantity)", "count(*)", "min(l_extendedprice)"},
     {"p_size < 30", "p_size < 25", "p_size < 40"}},
    {"part, orders, lineitem",
     "p_partkey = l_partkey and o_orderkey = l_orderkey",
     {"p_type", "p_brand", "o_orderpriority"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1996-01-01'",
      "o_orderdate < '1997-01-01'"}},
    {"customer, nation", "c_nationkey = n_nationkey",
     {"n_name", "c_mktsegment", "n_regionkey"},
     {"count(*)", "sum(c_acctbal)", "max(c_acctbal)"},
     {"c_acctbal > -200", "c_acctbal > 0", "c_acctbal > 250"}},
    {"supplier, nation", "s_nationkey = n_nationkey",
     {"n_name", "n_regionkey", "s_nationkey"},
     {"count(*)", "sum(s_acctbal)", "min(s_acctbal)"},
     {"s_acctbal > -300", "s_acctbal > 0", "s_acctbal > 100"}},
    {"partsupp, part", "ps_partkey = p_partkey",
     {"p_type", "p_brand", "p_container"},
     {"sum(ps_supplycost)", "sum(ps_availqty)", "count(*)"},
     {"p_size < 20", "p_size < 35", "p_size < 45"}},
    {"partsupp, supplier", "ps_suppkey = s_suppkey",
     {"s_nationkey", "s_name", "s_nationkey"},
     {"sum(ps_supplycost)", "count(*)", "sum(ps_availqty)"},
     {"ps_availqty > 100", "ps_availqty > 500", "ps_availqty > 1000"}},
    {"customer, orders, lineitem, nation, region",
     "c_custkey = o_custkey and o_orderkey = l_orderkey and "
     "c_nationkey = n_nationkey and n_regionkey = r_regionkey",
     {"r_name", "n_name", "c_mktsegment"},
     {"sum(l_extendedprice)", "sum(l_quantity)", "count(*)"},
     {"o_orderdate < '1996-07-01'", "o_orderdate < '1995-06-01'",
      "o_orderdate < '1997-01-01'"}},
    {"lineitem, supplier", "l_suppkey = s_suppkey",
     {"s_nationkey", "l_returnflag", "l_linestatus"},
     {"sum(l_quantity)", "sum(l_extendedprice)", "count(*)"},
     {"l_shipdate < '1996-01-01'", "l_shipdate < '1996-07-01'",
      "l_shipdate < '1995-06-01'"}},
};
constexpr int kNumCores = static_cast<int>(sizeof(kCores) / sizeof(kCores[0]));

std::string MqoQuery(int i) {
  const Core& core = kCores[i % kNumCores];
  int v = i / kNumCores;
  const char* group = core.groups[v % 3];
  const char* agg = core.aggs[(v / 3) % 3];
  const char* pred = core.preds[(v / 9) % 3];
  return StrFormat("select %s, %s as a from %s where %s and %s group by %s",
                   group, agg, core.from, core.join, pred, group);
}

std::string MqoBatch(int n) {
  std::string batch;
  for (int i = 0; i < n; ++i) {
    if (i > 0) batch += "; ";
    batch += MqoQuery(i);
  }
  return batch;
}

struct StrategyResult {
  std::string name;
  bool ran = false;
  double opt_seconds = 0;    // whole Optimize() call
  double enum_seconds = 0;   // Step-3 enabled-set search only
  int cse_optimizations = 0;
  int candidates = 0;        // after pruning / cap
  int chosen = 0;            // CSEs in the final plan
  double normal_cost = 0;
  double final_cost = 0;
};

StrategyResult RunStrategy(Database* db, const std::string& batch,
                           EnumerationStrategy strategy) {
  QueryOptions options;
  options.execute = false;
  options.cse.strategy = strategy;
  options.cse.max_candidates = 12;
  // High enough that exhaustive is genuinely exhaustive at the candidate
  // cap (2^12 - 1 subsets); approximate never gets close.
  options.cse.max_optimizations = 1 << 14;

  StatusOr<QueryResult> run = db->Execute(batch, options);
  CHECK(run.ok()) << run.status().ToString();

  StrategyResult r;
  r.name = EnumerationStrategyName(strategy);
  r.ran = true;
  r.opt_seconds = run->metrics.optimize_seconds;
  r.enum_seconds = run->metrics.enumerate_seconds;
  r.cse_optimizations = run->metrics.cse_optimizations;
  r.candidates = run->metrics.candidates_after_pruning;
  r.chosen = run->metrics.used_cses;
  r.normal_cost = run->metrics.normal_cost;
  r.final_cost = run->metrics.final_cost;
  return r;
}

double EnvSeconds(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace
}  // namespace subshare::bench

int main() {
  using namespace subshare;
  using namespace subshare::bench;

  double sf = ScaleFactor(0.005);  // optimize-only: data sets stats, not time
  double budget = EnvSeconds("SUBSHARE_MQO_BUDGET", 15.0);
  int max_size = static_cast<int>(EnvSeconds("SUBSHARE_MQO_MAX", 1000));

  std::printf("== bench_mqo_scale: enumeration-strategy scaling "
              "(SF=%.3f, %d cores, exhaustive budget %.1fs) ==\n",
              sf, kNumCores, budget);
  Database db;
  CHECK(db.LoadTpch(sf).ok());

  const EnumerationStrategy kStrategies[] = {
      EnumerationStrategy::kExhaustive, EnumerationStrategy::kApproximate};
  std::vector<int> sizes;
  for (int s : {10, 25, 50, 100, 250, 1000}) {
    if (s <= max_size) sizes.push_back(s);
  }

  struct SizeResult {
    int statements = 0;
    std::vector<StrategyResult> runs;  // exhaustive, approximate
  };
  std::vector<SizeResult> results;

  // Exhaustive feasibility: run while the linear prediction from the last
  // feasible run fits the budget.
  int ex_largest = 0;
  double ex_largest_enum = 0;
  bool ex_alive = true;

  std::printf("\n%10s %-12s %10s %10s %8s %6s %6s %14s\n", "statements",
              "strategy", "opt(s)", "enum(s)", "[Opt]", "cands", "chosen",
              "final cost");
  for (int n : sizes) {
    std::string batch = MqoBatch(n);
    SizeResult sr;
    sr.statements = n;
    for (EnumerationStrategy strategy : kStrategies) {
      if (strategy == EnumerationStrategy::kExhaustive) {
        double predicted =
            ex_largest > 0 ? ex_largest_enum * n / ex_largest : 0;
        if (!ex_alive || predicted > budget) {
          ex_alive = false;
          StrategyResult skipped;
          skipped.name = EnumerationStrategyName(strategy);
          sr.runs.push_back(skipped);
          std::printf("%10d %-12s %10s (predicted %.1fs > %.1fs budget)\n",
                      n, skipped.name.c_str(), "skipped", predicted, budget);
          continue;
        }
      }
      StrategyResult r = RunStrategy(&db, batch, strategy);
      if (strategy == EnumerationStrategy::kExhaustive) {
        ex_largest = n;
        ex_largest_enum = r.enum_seconds;
        if (r.enum_seconds > budget) ex_alive = false;
      }
      std::printf("%10d %-12s %10.4f %10.4f %8d %6d %6d %14.2f\n", n,
                  r.name.c_str(), r.opt_seconds, r.enum_seconds,
                  r.cse_optimizations, r.candidates, r.chosen, r.final_cost);
      sr.runs.push_back(std::move(r));
    }
    results.push_back(std::move(sr));
  }

  // Gate 1: at the largest size, approximate's Step-3 time >= 10x faster
  // than exhaustive (measured there, or extrapolated linearly from its
  // largest feasible size).
  const SizeResult& last = results.back();
  const StrategyResult& last_ex = last.runs[0];
  const StrategyResult& last_approx = last.runs[1];
  double ex_at_max = last_ex.ran
                         ? last_ex.enum_seconds
                         : (ex_largest > 0 ? ex_largest_enum *
                                                 last.statements / ex_largest
                                           : 0);
  CHECK(ex_largest > 0) << "exhaustive never ran; raise SUBSHARE_MQO_BUDGET";
  double approx_speedup = ex_at_max / std::max(1e-9, last_approx.enum_seconds);
  // Whole Optimize() time at the largest size. Everything outside Step 3 is
  // strategy-invariant, so an extrapolated exhaustive run is approximate's
  // remainder plus the extrapolated Step-3 time.
  double ex_opt_at_max =
      last_ex.ran ? last_ex.opt_seconds
                  : last_approx.opt_seconds - last_approx.enum_seconds +
                        ex_at_max;

  // Gate 2: wherever exhaustive completed, approximate's final cost is
  // within 25% of exhaustive's.
  double worst_ratio_approx = 1.0;
  for (const SizeResult& sr : results) {
    if (!sr.runs[0].ran || sr.runs[0].final_cost <= 0) continue;
    worst_ratio_approx = std::max(
        worst_ratio_approx, sr.runs[1].final_cost / sr.runs[0].final_cost);
  }

  std::printf("\nexhaustive largest feasible size: %d (enum %.4fs)\n",
              ex_largest, ex_largest_enum);
  std::printf("exhaustive enum at %d statements: %.4fs (%s)\n",
              last.statements, ex_at_max,
              last_ex.ran ? "measured" : "extrapolated");
  std::printf("optimize total at %d statements: exhaustive %.4fs (%s), "
              "approximate %.4fs\n",
              last.statements, ex_opt_at_max,
              last_ex.ran ? "measured" : "extrapolated",
              last_approx.opt_seconds);
  std::printf("approximate: %.1fx faster Step 3, worst cost ratio %.3f\n",
              approx_speedup, worst_ratio_approx);

  std::string json = StrFormat(
      "{\"bench\":\"mqo_scale\",\"schema_version\":1,\"timestamp\":%lld,"
      "\"scale_factor\":%g,\"cores\":%d,\"max_candidates\":12,\"sizes\":[",
      static_cast<long long>(std::time(nullptr)), sf, kNumCores);
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    json += StrFormat("%s{\"statements\":%d,\"strategies\":[",
                      i == 0 ? "" : ",", sr.statements);
    for (size_t j = 0; j < sr.runs.size(); ++j) {
      const StrategyResult& r = sr.runs[j];
      json += StrFormat(
          "%s{\"strategy\":\"%s\",\"feasible\":%s,\"opt_seconds\":%.6f,"
          "\"enum_seconds\":%.6f,\"cse_optimizations\":%d,"
          "\"candidates\":%d,\"chosen\":%d,\"normal_cost\":%.2f,"
          "\"final_cost\":%.2f}",
          j == 0 ? "" : ",", r.name.c_str(), r.ran ? "true" : "false",
          r.opt_seconds, r.enum_seconds, r.cse_optimizations, r.candidates,
          r.chosen, r.normal_cost, r.final_cost);
    }
    json += "]}";
  }
  json += StrFormat(
      "],\"exhaustive_largest_feasible\":%d,"
      "\"exhaustive_enum_seconds_at_max\":%.6f,"
      "\"exhaustive_at_max_measured\":%s,"
      "\"approximate_enum_seconds_at_max\":%.6f,"
      "\"exhaustive_optimize_seconds_at_max\":%.6f,"
      "\"approximate_optimize_seconds_at_max\":%.6f,"
      "\"gates\":{\"speedup_bar\":10.0,\"cost_ratio_bar\":1.25,"
      "\"approximate_speedup\":%.2f,"
      "\"worst_cost_ratio_approximate\":%.4f}"
      "}",
      ex_largest, ex_at_max, last_ex.ran ? "true" : "false",
      last_approx.enum_seconds, ex_opt_at_max, last_approx.opt_seconds,
      approx_speedup, worst_ratio_approx);

  FILE* f = std::fopen("BENCH_mqo_scale.json", "w");
  CHECK(f != nullptr) << "cannot write BENCH_mqo_scale.json";
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  FILE* h = std::fopen("BENCH_mqo_scale_history.jsonl", "a");
  CHECK(h != nullptr) << "cannot append BENCH_mqo_scale_history.jsonl";
  std::fprintf(h, "%s\n", json.c_str());
  std::fclose(h);
  std::printf("wrote BENCH_mqo_scale.json (+ BENCH_mqo_scale_history.jsonl)\n");

  int rc = 0;
  if (approx_speedup < 10.0) {
    std::printf("WARNING: approximate enumeration speedup %.1fx is below "
                "the 10x bar\n",
                approx_speedup);
    rc = 1;
  }
  if (worst_ratio_approx > 1.25) {
    std::printf("WARNING: approximate worst final-cost ratio %.3f exceeds "
                "the 1.25x bar\n",
                worst_ratio_approx);
    rc = 1;
  }
  return rc;
}
