#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "api/database.h"
#include "cache/fingerprint.h"
#include "cache/plan_cache.h"
#include "core/candidate_gen.h"
#include "core/cse_manager.h"
#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "generator.h"
#include "optimizer/optimizer.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "trace.h"
#include "util/bitset64.h"
#include "util/string_util.h"

namespace subshare::perfbench {

namespace {

// A percentile needs this many samples beyond it to count as the tail; a
// closed-loop run keeps going past its time budget until the tail sits at
// or above the median.
constexpr int kTailBeyond = 10;
constexpr int kMinSamples = 2 * kTailBeyond + 1;

const char* const kOpKinds[] = {
    "TableScan", "IndexScan", "Filter",  "HashJoin",  "MergeJoin",
    "IndexNLJoin", "NLJoin",  "HashAgg", "Project",   "Sort",
    "SpoolScan", "Batch"};

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Tail {
  double value = 0;
  double percentile = 0;  // share of samples at or below `value`, in %
  size_t samples = 0;
};

// The highest order statistic with at least kTailBeyond samples above it;
// the maximum when there are too few samples for one.
Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t k = v.size() > static_cast<size_t>(kTailBeyond)
                       ? v.size() - 1 - kTailBeyond
                       : v.size() - 1;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

// ---------------------------------------------------------------------------
// Result comparison against the naive reference planner.

using Rows = std::vector<Row>;

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

Rows Canonical(Rows rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

// Plans that join or aggregate in another order sum doubles in another
// order, so doubles compare with a relative tolerance.
bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-6 * scale;
  }
  return a.Compare(b) == 0;
}

bool SameRows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!ValuesClose(a[i][j], b[i][j])) return false;
    }
  }
  return true;
}

// One executed batch kept for the after-run check: its statements and
// their canonical results.
struct CheckedBatch {
  std::vector<std::string> stmts;
  std::vector<Rows> results;
};

CheckedBatch Keep(const Batch& batch, std::vector<StatementResult> results) {
  CheckedBatch c;
  c.stmts = batch.stmts;
  for (StatementResult& r : results) {
    c.results.push_back(Canonical(std::move(r.rows)));
  }
  return c;
}

QueryOptions NaiveOptions() {
  QueryOptions o;
  o.use_naive_plan = true;
  return o;
}

// Runs every distinct statement of `batches` through the naive planner on
// `threads` sessions of a checker Server over `db`, then compares each kept
// result. Returns the number of batches with a differing or missing result.
int64_t CheckAgainstNaive(Database* db, const std::vector<CheckedBatch>& batches,
                          int threads, std::vector<std::string>* problems) {
  std::map<std::string, std::optional<Rows>> reference;
  for (const CheckedBatch& b : batches) {
    for (const std::string& s : b.stmts) reference[s];
  }
  std::vector<std::map<std::string, std::optional<Rows>>::iterator> work;
  for (auto it = reference.begin(); it != reference.end(); ++it) {
    work.push_back(it);
  }
  server::Server checker(db);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&checker, &work, &next] {
      std::unique_ptr<server::Session> session = checker.Connect("naive");
      const QueryOptions naive = NaiveOptions();
      for (size_t i = next++; i < work.size(); i = next++) {
        StatusOr<QueryResult> r = session->Execute(work[i]->first, naive);
        if (r.ok() && r->statements.size() == 1) {
          work[i]->second = Canonical(std::move(r->statements[0].rows));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  int64_t failed = 0;
  for (const CheckedBatch& b : batches) {
    bool ok = b.results.size() == b.stmts.size();
    for (size_t i = 0; ok && i < b.stmts.size(); ++i) {
      const std::optional<Rows>& ref = reference[b.stmts[i]];
      if (!ref.has_value() || !SameRows(b.results[i], *ref)) {
        ok = false;
        if (problems->size() < 5) {
          problems->push_back("result differs from the naive plan: " +
                              b.stmts[i]);
        }
      }
    }
    if (!ok) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Per-layer accumulation.

class LayerSums {
 public:
  void Add(const std::string& name, double v) { sums_[name] += v; }
  double Get(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0 : it->second;
  }
  void Merge(const LayerSums& other) {
    for (const auto& [k, v] : other.sums_) sums_[k] += v;
  }

 private:
  std::map<std::string, double> sums_;
};

// Operator self time (inclusive open+next minus the direct children's
// inclusive time, from the pre-order depth), spool evaluation time and
// executor/storage counts. Returns the summed inclusive time of the plan
// roots in ns, which cannot exceed the ExecutePlan span.
int64_t AddExecution(const ExecutionMetrics& em, LayerSums* sums,
                     int64_t* negative_self) {
  const std::vector<OperatorMetrics>& ops = em.operators;
  int64_t roots_ns = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t incl = ops[i].open_ns + ops[i].next_ns;
    int64_t children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].phase == ops[i].phase &&
                           ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) {
        children += ops[j].open_ns + ops[j].next_ns;
      }
    }
    int64_t self = incl - children;
    if (self < 0) {
      ++*negative_self;
      self = 0;
    }
    const std::string kind = ops[i].op.substr(0, ops[i].op.find(' '));
    sums->Add("exec.self_ms." + kind, self / 1e6);
    sums->Add("exec.rows_out", static_cast<double>(ops[i].rows_out));
    if (ops[i].depth == 0) {
      roots_ns += incl;
      if (ops[i].phase.rfind("cse ", 0) == 0) {
        sums->Add("exec.spool_eval_ms", incl / 1e6);
      }
    }
  }
  sums->Add("exec.probe_keys", static_cast<double>(em.probe_keys));
  sums->Add("storage.rows_scanned", static_cast<double>(em.rows_scanned));
  sums->Add("storage.spool_rows_written",
            static_cast<double>(em.rows_spooled));
  sums->Add("storage.spool_rows_read", static_cast<double>(em.spool_rows_read));
  sums->Add("storage.spool_bytes", static_cast<double>(em.spool_bytes));
  return roots_ns;
}

void AddOptimization(const CseMetrics& m, LayerSums* sums) {
  sums->Add("core.enumerate_ms", m.enumerate_seconds * 1e3);
  sums->Add("optimizer.plan_computations",
            static_cast<double>(m.plan_computations));
  sums->Add("core.candidates_generated", m.candidates_generated);
  sums->Add("core.candidates_kept", m.candidates_after_pruning);
  sums->Add("core.cse_optimizations", m.cse_optimizations);
  sums->Add("core.used_cses", m.used_cses);
  int64_t accepted = 0;
  for (const OptTrace::Merge& merge : m.trace.merges) accepted += merge.accepted;
  sums->Add("core.merge_attempts", static_cast<double>(m.trace.merges.size()));
  sums->Add("merges_accepted", static_cast<double>(accepted));
  if (m.normal_cost > 0) {
    sums->Add("cost_ratio_sum", m.final_cost / m.normal_cost);
    sums->Add("optimized_batches", 1);
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Turns the sums of a traced phase into the per-layer metric list. Times
// and counts are means per traced batch (append metrics per append);
// ratios are taken over the whole phase.
std::vector<Metric> LayerReport(const LayerSums& sums, const SpanSummary& spans,
                                double batches) {
  auto self_ms = [&spans](const char* name) {
    auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second;
  };
  LayerSums all = sums;
  for (const char* name :
       {"sql.parse", "sql.bind", "cache.fingerprint", "cache.plan_lookup",
        "optimizer.explore", "core.signatures", "core.candgen",
        "core.optimize", "exec.execute"}) {
    all.Add(std::string(name) + "_ms", self_ms(name));
  }
  auto it = spans.total_ms.find("server.execute_call");
  if (it != spans.total_ms.end()) all.Add("server.execute_call_ms", it->second);

  const double appends = sums.Get("appends");
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetrics()) {
    double v = 0;
    if (name == "cache.plan_hit_ratio") {
      v = Ratio(sums.Get("plan_hits"), sums.Get("plan_lookups"));
    } else if (name == "cache.plan_rebind_ratio") {
      v = Ratio(sums.Get("plan_rebinds"), sums.Get("plan_lookups"));
    } else if (name == "cache.result_hit_ratio") {
      v = Ratio(sums.Get("result_hits"),
                sums.Get("result_hits") + sums.Get("result_misses"));
    } else if (name == "core.merge_accept_ratio") {
      v = Ratio(sums.Get("merges_accepted"), sums.Get("core.merge_attempts"));
    } else if (name == "core.cost_ratio") {
      v = Ratio(sums.Get("cost_ratio_sum"), sums.Get("optimized_batches"));
    } else if (name == "server.append_call_ms" ||
               name == "gen.append_lateness_ms") {
      v = Ratio(all.Get(name), appends);
    } else if (name == "server.append_p50_ms" ||
               name == "server.append_tail_ms" ||
               name.rfind("trace.", 0) == 0) {
      v = sums.Get(name);
    } else if (name == "server.lock_wait_ms") {
      // Session::Execute span minus the phases it reported.
      v = Ratio(self_ms("server.execute_call"), batches);
    } else {
      v = Ratio(all.Get(name), batches);
    }
    out.push_back({name, v, unit});
  }
  return out;
}

void AddTraceOverhead(double traced_p50, double untraced_p50,
                      LayerSums* sums) {
  sums->Add("trace.batch_p50_ms", traced_p50);
  sums->Add("trace.untraced_batch_p50_ms", untraced_p50);
  sums->Add("trace.overhead_pct",
            untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1) : 0);
  std::printf("  batch_p50_ms traced %.3f | untraced %.3f (overhead %+.1f%%)\n",
              traced_p50, untraced_p50, sums->Get("trace.overhead_pct"));
}

void FinishTrace(const RunOptions& options,
                 const std::vector<const Tracer*>& tracers,
                 const SpanSummary& spans, RunResult* result) {
  if (spans.violations > 0) {
    result->problems.push_back(StrFormat(
        "%lld spans are shorter than their children, first: %s",
        static_cast<long long>(spans.violations),
        spans.first_violation.c_str()));
  }
  if (!options.trace_dir.empty()) {
    const std::string path =
        StrFormat("%s/%s_seed%llu.tsv", options.trace_dir.c_str(),
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed));
    if (WriteSpans(tracers, path)) {
      std::printf("  spans written to %s\n", path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-loop workloads: report_sf02 and mqo_batch.

struct ClosedLoop {
  double scale_factor;
  int setup_reps;     // set-up is repeated and its median reported
  int naive_threads;  // parallelism of the after-run naive check
  int traced_batches;  // a traced phase runs the stream's first batches
  Batch (*batch)(uint64_t seed, int64_t index);
  bool require_cse_every_batch;  // report_sf02 self-check
  bool require_candidate_cap;    // mqo_batch self-check
};

QueryOptions CseOptions() {
  QueryOptions o;
  o.cse.strategy = EnumerationStrategy::kExhaustive;
  return o;
}

struct PhaseStats {
  std::vector<double> latency_ms;
  double busy_s = 0;
  int64_t statements = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int min_used_cses = 1 << 30;
  std::vector<double> kept;  // candidates kept per batch
};

void RunClosedUntraced(Database* db, const ClosedLoop& w, uint64_t seed,
                       double seconds, int min_samples, PhaseStats* st,
                       std::vector<CheckedBatch>* checked) {
  const QueryOptions opts = CseOptions();
  const int64_t start = NowNs();
  for (int64_t k = 0; SecondsSince(start) < seconds ||
                      static_cast<int>(st->latency_ms.size()) < min_samples;
       ++k) {
    const Batch b = w.batch(seed, k);
    const int64_t t0 = NowNs();
    StatusOr<QueryResult> r = db->Execute(b.sql, opts);
    const int64_t t1 = NowNs();
    ++st->attempted;
    st->latency_ms.push_back((t1 - t0) / 1e6);
    st->busy_s += (t1 - t0) / 1e9;
    if (!r.ok()) {
      ++st->failed;
      continue;
    }
    st->statements += static_cast<int64_t>(b.stmts.size());
    st->min_used_cses = std::min(st->min_used_cses, r->metrics.used_cses);
    st->kept.push_back(r->metrics.candidates_after_pruning);
    checked->push_back(Keep(b, std::move(r->statements)));
  }
}

// The same pipeline as Database::Execute with caches off, called layer by
// layer so each call gets a span. After each batch, Steps 1–2 are replayed
// on a fresh context (outside the batch span) to time memo exploration,
// signature collection and candidate generation separately. A fixed batch
// count keeps the per-batch counts exactly repeatable for a seed.
void RunClosedTraced(Database* db, const ClosedLoop& w, uint64_t seed,
                     Tracer* tr, LayerSums* sums, PhaseStats* st,
                     std::vector<CheckedBatch>* checked, RunResult* result) {
  const QueryOptions opts = CseOptions();
  int64_t negative_self = 0;
  for (int64_t k = 0; k < w.traced_batches; ++k) {
    const Batch b = w.batch(seed, k);
    ++st->attempted;
    const int root = tr->Begin("batch", k);
    StatusOr<std::vector<sql::AstSelectPtr>> asts = [&] {
      ScopedSpan s(tr, "sql.parse", k);
      return sql::ParseBatch(b.sql);
    }();
    QueryContext ctx(&db->catalog());
    std::vector<Statement> stmts;
    Status status = asts.status();
    if (status.ok()) {
      ScopedSpan s(tr, "sql.bind", k);
      for (const sql::AstSelectPtr& ast : *asts) {
        StatusOr<Statement> bound = sql::BindSelect(*ast, &ctx, b.sql);
        if (!bound.ok()) {
          status = bound.status();
          break;
        }
        stmts.push_back(std::move(*bound));
      }
    }
    if (!status.ok()) {
      tr->End(root);
      ++st->failed;
      continue;
    }
    CseMetrics m;
    ExecutablePlan plan;
    {
      ScopedSpan s(tr, "core.optimize", k);
      CseQueryOptimizer optimizer(&ctx, opts.cse);
      plan = optimizer.Optimize(stmts, &m);
    }
    ExecutionMetrics em;
    const int exec_span = tr->Begin("exec.execute", k);
    std::vector<StatementResult> results = ExecutePlan(plan, opts.exec, &em);
    tr->End(exec_span);
    tr->End(root);
    st->latency_ms.push_back(tr->DurationMs(root));
    st->statements += static_cast<int64_t>(b.stmts.size());
    st->min_used_cses = std::min(st->min_used_cses, m.used_cses);
    st->kept.push_back(m.candidates_after_pruning);
    checked->push_back(Keep(b, std::move(results)));

    AddOptimization(m, sums);
    const int64_t roots_ns = AddExecution(em, sums, &negative_self);
    if (roots_ns / 1e6 > tr->DurationMs(exec_span) + 1e-3) {
      result->problems.push_back(StrFormat(
          "batch %lld: operator times (%.3f ms) exceed the ExecutePlan span "
          "(%.3f ms)",
          static_cast<long long>(k), roots_ns / 1e6,
          tr->DurationMs(exec_span)));
    }

    // Replay of Steps 1–2 with the options Optimize derives.
    ScopedSpan replay(tr, "replay", k);
    QueryContext rctx(&db->catalog());
    std::vector<Statement> rstmts;
    {
      ScopedSpan s(tr, "replay.bind", k);
      for (const sql::AstSelectPtr& ast : *asts) {
        StatusOr<Statement> bound = sql::BindSelect(*ast, &rctx, b.sql);
        rstmts.push_back(std::move(*bound));
      }
    }
    Optimizer optimizer(&rctx, opts.cse.optimizer);
    PhysicalNodePtr normal;
    {
      ScopedSpan s(tr, "optimizer.explore", k);
      const GroupId root_group = optimizer.BuildAndExplore(rstmts);
      normal = optimizer.BestPlan(root_group, Bitset64());
    }
    CseManager manager(&optimizer.memo(), &rctx);
    {
      ScopedSpan s(tr, "core.signatures", k);
      manager.CollectSignatures();
    }
    CandidateGenOptions gen_options;
    gen_options.heuristics = opts.cse.enable_heuristics;
    gen_options.alpha = opts.cse.alpha;
    gen_options.query_cost = normal->est_cost;
    gen_options.enable_range_hull = opts.cse.enable_range_hull;
    CandidateGenerator generator(&manager, &optimizer.cards(), gen_options);
    GenDiagnostics diag;
    OptTrace trace;
    std::vector<CseSpec> specs;
    {
      ScopedSpan s(tr, "core.candgen", k);
      specs = generator.GenerateAll(&diag, &trace);
    }
    if (static_cast<int>(specs.size()) != m.candidates_generated) {
      result->problems.push_back(StrFormat(
          "batch %lld: replayed Steps 1-2 generated %d candidates, "
          "Optimize reported %d",
          static_cast<long long>(k), static_cast<int>(specs.size()),
          m.candidates_generated));
    }
  }
  if (negative_self > 0) {
    std::printf("  note: %lld operators reported children longer than "
                "themselves (self time clamped to 0)\n",
                static_cast<long long>(negative_self));
  }
}

template <typename Make>
std::pair<std::unique_ptr<Database>, double> SetUp(int reps, Make make) {
  std::vector<double> times;
  std::unique_ptr<Database> db;
  for (int i = 0; i < reps; ++i) {
    db.reset();
    const int64_t t0 = NowNs();
    db = make();
    times.push_back(SecondsSince(t0));
  }
  std::printf("  setup_s runs:");
  for (double t : times) std::printf(" %.3f", t);
  std::printf("\n");
  return {std::move(db), Median(times)};
}

std::unique_ptr<Database> LoadDatabase(double scale_factor) {
  auto db = std::make_unique<Database>();
  Status s = db->LoadTpch(scale_factor);
  CHECK(s.ok()) << s.ToString();
  return db;
}

void PrintLatency(const char* what, const std::vector<double>& ms) {
  const Tail tail = TailOf(ms);
  std::printf("  %s: p50 %.3f ms, tail p%.1f %.3f ms (%zu samples, %d beyond)\n",
              what, Median(ms), tail.percentile, tail.value, tail.samples,
              kTailBeyond);
}

std::vector<Metric> EndToEnd(double setup_s, const std::vector<double>& lat,
                             double statements, double wall_s,
                             double peak_rss_mb) {
  return {{"setup_s", setup_s, "s"},
          {"batch_p50_ms", Median(lat), "ms"},
          {"batch_tail_ms", TailOf(lat).value, "ms"},
          {"stmts_per_s", Ratio(statements, wall_s), "1/s"},
          {"peak_rss_mb", peak_rss_mb, "MB"}};
}

RunResult RunClosedLoop(const RunOptions& options, const ClosedLoop& w) {
  RunResult result;
  auto [db, setup_s] = SetUp(
      w.setup_reps, [&w] { return LoadDatabase(w.scale_factor); });

  std::vector<CheckedBatch> checked;
  PhaseStats untraced;
  if (!options.trace) {
    RunClosedUntraced(db.get(), w, options.seed, options.seconds, kMinSamples,
                      &untraced, &checked);
    const double rss = PeakRssMb();
    PrintLatency("batch latency", untraced.latency_ms);
    result.metrics = EndToEnd(setup_s, untraced.latency_ms,
                              static_cast<double>(untraced.statements),
                              untraced.busy_s, rss);
  } else {
    RunClosedUntraced(db.get(), w, options.seed, options.seconds / 2, 1,
                      &untraced, &checked);
    Tracer tracer;
    LayerSums sums;
    PhaseStats traced;
    RunClosedTraced(db.get(), w, options.seed, &tracer, &sums, &traced,
                    &checked, &result);
    untraced.attempted += traced.attempted;
    untraced.failed += traced.failed;
    untraced.min_used_cses =
        std::min(untraced.min_used_cses, traced.min_used_cses);
    untraced.kept.insert(untraced.kept.end(), traced.kept.begin(),
                         traced.kept.end());
    AddTraceOverhead(Median(traced.latency_ms), Median(untraced.latency_ms),
                     &sums);
    const SpanSummary spans = Summarize({&tracer});
    FinishTrace(options, {&tracer}, spans, &result);
    result.metrics = LayerReport(
        sums, spans, static_cast<double>(traced.latency_ms.size()));
  }
  result.attempted = untraced.attempted;
  result.failed = untraced.failed;

  if (w.require_cse_every_batch && untraced.min_used_cses < 1) {
    result.problems.push_back("a report batch used no CSE");
  }
  const int cap = CseOptions().cse.max_candidates;
  // A sampled batch occasionally keeps one candidate fewer; the workload
  // must saturate the cap on the typical batch.
  if (w.require_candidate_cap && Median(untraced.kept) < cap) {
    result.problems.push_back(StrFormat(
        "the median batch kept %.1f candidates, below the max_candidates "
        "cap %d",
        Median(untraced.kept), cap));
  }
  result.failed +=
      CheckAgainstNaive(db.get(), checked, w.naive_threads, &result.problems);
  std::printf("  checked %zu batches against the naive plan\n",
              checked.size());
  return result;
}

// ---------------------------------------------------------------------------
// server_mixed.

constexpr double kServerScaleFactor = 0.02;
constexpr int kReaders = 3;
constexpr double kAppendsPerSecond = 1;
// Readers and the appender run this long before timing starts. The first
// append is due 1.5 s into the warm-up: appends turn CSE off (see
// README.md), so that first stretch is where exact hits recycle spools, and
// the switch to unshared plans, whose first seconds run slower, settles
// before timing. The timed phase starts half a period after an append.
constexpr double kWarmupSeconds = 4;
constexpr double kFirstAppendSeconds = 1.5;

struct ServerSetup {
  std::unique_ptr<Database> db;
  std::vector<Row> orders;    // append payloads, sampled at set-up
  std::vector<Row> lineitem;
};

ServerSetup LoadServerSetup(uint64_t seed) {
  ServerSetup setup;
  setup.db = LoadDatabase(kServerScaleFactor);
  for (auto [name, rows] : {std::pair<const char*, std::vector<Row>*>{
                                "orders", &setup.orders},
                            {"lineitem", &setup.lineitem}}) {
    const Table* t = setup.db->catalog().GetTable(name);
    CHECK(t != nullptr && t->row_count() > 0);
    for (int i = 0; i < kAppendSampleRows; ++i) {
      const uint64_t pos = Mix(seed, static_cast<uint64_t>(i)) %
                           static_cast<uint64_t>(t->row_count());
      rows->push_back(t->GetRow(static_cast<int64_t>(pos)));
    }
  }
  return setup;
}

QueryOptions CachedOptions() {
  QueryOptions o = CseOptions();
  o.cache.plan_cache = true;
  o.cache.result_cache = true;
  return o;
}

// The plan-cache key Database::ExecuteWith derives from a fingerprint.
std::string PlanKeySuffix(const QueryOptions& o) {
  return StrFormat(";;cse=%d;;strat=%s", o.cse.enable_cse ? 1 : 0,
                   EnumerationStrategyName(o.cse.strategy));
}

struct ReaderStats {
  std::vector<double> latency_ms;
  int64_t statements = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t exact_hits = 0;
  int64_t rebind_hits = 0;
  int64_t misses = 0;
  int64_t recycled = 0;
  int64_t warmup_recycled = 0;  // spools recycled before timing
  std::vector<bool> seen;  // pool batches executed
  LayerSums sums;
};

struct AppenderStats {
  std::vector<double> latency_ms;  // from when each append was due
  int64_t attempted = 0;
  int64_t failed = 0;
  LayerSums sums;
};

struct ServerPhase {
  std::vector<ReaderStats> readers;
  AppenderStats appender;
  double wall_s = 0;
  cache::PlanCacheStats plan_before, plan_after;
  cache::ResultCacheStats result_before, result_after;
};

// Signals shared by the threads of one phase.
struct PhaseClock {
  std::atomic<bool> measuring{false};  // set when the warm-up ends
  std::atomic<bool> stop{false};
};

// One closed-loop client. A batch that starts before the warm-up ends is
// executed but neither recorded nor traced.
void ReaderLoop(server::Server* server, server::Session* session,
                const ServerPool& pool, uint64_t seed, int reader,
                const PhaseClock* clock, Tracer* tr, ReaderStats* st) {
  const QueryOptions opts = CachedOptions();
  const std::string suffix = PlanKeySuffix(opts);
  int64_t negative_self = 0;
  for (int64_t i = 0; !clock->stop.load(); ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          ServerThinkMicros(seed, reader, i)));
    }
    const int pick = ServerPick(pool, seed, reader, i);
    const Batch& b = pool.batches[static_cast<size_t>(pick)];
    st->seen[static_cast<size_t>(pick)] = true;
    if (!clock->measuring.load()) {
      StatusOr<QueryResult> r = session->Execute(b.sql, opts);
      if (r.ok()) {
        st->warmup_recycled += r->cache.spools_recycled;
      } else {
        ++st->failed;
      }
      continue;
    }
    const int64_t id = (static_cast<int64_t>(reader) << 32) | i;
    ++st->attempted;
    if (tr == nullptr) {
      const int64_t t0 = NowNs();
      StatusOr<QueryResult> r = session->Execute(b.sql, opts);
      st->latency_ms.push_back((NowNs() - t0) / 1e6);
      if (!r.ok()) {
        ++st->failed;
        continue;
      }
      st->statements += static_cast<int64_t>(b.stmts.size());
      if (!r->cache.plan_cache_hit) {
        ++st->misses;
      } else if (r->cache.plan_rebound) {
        ++st->rebind_hits;
      } else {
        ++st->exact_hits;
      }
      st->recycled += r->cache.spools_recycled;
      continue;
    }

    // Traced: the plan-cache probe the session is about to make is made
    // first from here, so fingerprinting and lookup get spans of their own.
    const int root = tr->Begin("batch", id);
    StatusOr<std::vector<sql::AstSelectPtr>> asts = [&] {
      ScopedSpan s(tr, "probe.parse", id);
      return sql::ParseBatch(b.sql);
    }();
    if (asts.ok()) {
      cache::BatchFingerprint fp = [&] {
        ScopedSpan s(tr, "cache.fingerprint", id);
        cache::BatchFingerprint f = cache::FingerprintBatch(*asts);
        f.text += suffix;
        return f;
      }();
      std::optional<cache::PlanCache::Hit> hit = [&] {
        ScopedSpan s(tr, "cache.plan_lookup", id);
        return server->plan_cache().Lookup(fp);
      }();
      st->sums.Add("plan_lookups", 1);
      st->sums.Add("plan_hits", hit.has_value() ? 1 : 0);
      st->sums.Add("plan_rebinds", hit.has_value() && hit->rebound ? 1 : 0);
    }
    const int call = tr->Begin("server.execute_call", id);
    StatusOr<QueryResult> r = session->Execute(b.sql, opts);
    const int64_t t1 = NowNs();
    if (r.ok()) {
      // The phases the session reported, laid back to back at the end of
      // the call; what remains of the call span is lock wait plus the
      // cache calls between phases.
      const PhaseTimings& p = r->phases;
      const std::pair<const char*, double> phases[] = {
          {"exec.execute", p.execute_seconds},
          {"core.optimize", p.optimize_seconds},
          {"sql.bind", p.bind_seconds},
          {"sql.parse", p.parse_seconds}};
      int64_t end = t1;
      for (const auto& [name, seconds] : phases) {
        const int64_t begin = end - static_cast<int64_t>(seconds * 1e9);
        tr->AddClosed(name, id, begin, end);
        end = begin;
      }
    }
    tr->End(call);
    tr->End(root);
    st->latency_ms.push_back(tr->DurationMs(call));
    if (!r.ok()) {
      ++st->failed;
      continue;
    }
    st->statements += static_cast<int64_t>(b.stmts.size());
    AddOptimization(r->metrics, &st->sums);
    AddExecution(r->execution, &st->sums, &negative_self);
  }
}

// The open-loop writer: append i is due kFirstAppendSeconds plus i periods
// after the phase starts and is timed from then, so a stalled append also
// delays the ones queued behind it. Appends due in the warm-up are made but
// neither timed nor traced.
void AppenderLoop(server::Session* session, const ServerSetup& setup,
                  uint64_t seed, const PhaseClock* clock, Tracer* tr,
                  AppenderStats* st) {
  const int64_t start = NowNs();
  const int64_t period_ns = static_cast<int64_t>(1e9 / kAppendsPerSecond);
  for (int64_t i = 0;; ++i) {
    const int64_t due =
        start + static_cast<int64_t>(kFirstAppendSeconds * 1e9) + i * period_ns;
    while (NowNs() < due && !clock->stop.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (clock->stop.load()) break;
    const bool timed = clock->measuring.load();
    const AppendOp op = ServerAppend(seed, i);
    std::vector<Row> lineitems;
    for (int r : op.lineitem_rows) {
      lineitems.push_back(setup.lineitem[static_cast<size_t>(r)]);
    }
    ++st->attempted;
    const int64_t t0 = NowNs();
    const int span =
        timed && tr != nullptr ? tr->Begin("server.append_call", i) : -1;
    Status s = session->Append(
        "orders", {setup.orders[static_cast<size_t>(op.order_row)]});
    if (s.ok()) s = session->Append("lineitem", lineitems);
    if (span >= 0) tr->End(span);
    const int64_t t1 = NowNs();
    if (!s.ok()) ++st->failed;
    if (!timed) continue;
    st->latency_ms.push_back((t1 - due) / 1e6);
    st->sums.Add("appends", 1);
    st->sums.Add("server.append_call_ms", (t1 - t0) / 1e6);
    st->sums.Add("gen.append_lateness_ms", (t0 - due) / 1e6);
  }
}

ServerPhase RunServerPhase(server::Server* server, const ServerSetup& setup,
                           const ServerPool& pool, uint64_t seed,
                           double seconds, bool traced,
                           std::vector<std::unique_ptr<Tracer>>* tracers) {
  ServerPhase phase;
  phase.readers.resize(kReaders);
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int r = 0; r < kReaders; ++r) {
    sessions.push_back(server->Connect(StrFormat("reader%d", r)));
    phase.readers[static_cast<size_t>(r)].seen.assign(pool.batches.size(),
                                                      false);
  }
  std::unique_ptr<server::Session> writer = server->Connect("appender");
  if (traced) {
    for (int t = 0; t <= kReaders; ++t) {
      tracers->push_back(std::make_unique<Tracer>(t));
    }
  }
  auto tracer = [&](int t) {
    return traced ? (*tracers)[tracers->size() - 1 - kReaders + t].get()
                  : nullptr;
  };

  PhaseClock clock;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, server,
                         sessions[static_cast<size_t>(r)].get(),
                         std::cref(pool), seed, r, &clock, tracer(r),
                         &phase.readers[static_cast<size_t>(r)]);
  }
  threads.emplace_back(AppenderLoop, writer.get(), std::cref(setup), seed,
                       &clock, tracer(kReaders), &phase.appender);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  phase.plan_before = server->plan_cache().stats();
  phase.result_before = server->result_cache().stats();
  const int64_t start = NowNs();
  clock.measuring.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  clock.stop.store(true);
  for (std::thread& t : threads) t.join();
  phase.wall_s = SecondsSince(start);
  phase.plan_after = server->plan_cache().stats();
  phase.result_after = server->result_cache().stats();
  return phase;
}

std::vector<double> ReaderLatencies(const ServerPhase& phase) {
  std::vector<double> all;
  for (const ReaderStats& r : phase.readers) {
    all.insert(all.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  return all;
}

// After the timed phase, with the appender stopped: every distinct batch
// through the warm shared caches and every distinct statement through the
// naive plan, all under one ExecuteAtomic snapshot.
int64_t CheckServer(server::Server* server, const ServerPool& pool,
                    const std::vector<bool>& seen,
                    std::vector<std::string>* problems) {
  std::vector<std::pair<std::string, QueryOptions>> requests;
  std::vector<size_t> batch_of;
  for (size_t i = 0; i < pool.batches.size(); ++i) {
    if (!seen[i]) continue;
    requests.push_back({pool.batches[i].sql, CachedOptions()});
    batch_of.push_back(i);
  }
  std::map<std::string, size_t> stmt_request;
  for (size_t i : batch_of) {
    for (const std::string& s : pool.batches[i].stmts) {
      if (stmt_request.count(s) == 0) {
        stmt_request[s] = requests.size();
        requests.push_back({s, NaiveOptions()});
      }
    }
  }
  std::unique_ptr<server::Session> session = server->Connect("checker");
  StatusOr<std::vector<QueryResult>> results = session->ExecuteAtomic(requests);
  if (!results.ok()) {
    problems->push_back("check snapshot failed: " +
                        results.status().ToString());
    return static_cast<int64_t>(batch_of.size());
  }
  int64_t failed = 0;
  for (size_t q = 0; q < batch_of.size(); ++q) {
    const Batch& b = pool.batches[batch_of[q]];
    std::vector<StatementResult>& got = (*results)[q].statements;
    bool ok = got.size() == b.stmts.size();
    for (size_t i = 0; ok && i < b.stmts.size(); ++i) {
      std::vector<StatementResult>& ref =
          (*results)[stmt_request[b.stmts[i]]].statements;
      ok = ref.size() == 1 &&
           SameRows(Canonical(got[i].rows), Canonical(ref[0].rows));
    }
    if (!ok) {
      ++failed;
      if (problems->size() < 5) {
        problems->push_back("cached result differs from the naive plan: " +
                            b.sql);
      }
    }
  }
  std::printf("  checked %zu distinct batches (%zu statements) against the "
              "naive plan in one snapshot\n",
              batch_of.size(), stmt_request.size());
  return failed;
}

// Reader and appender counts of a phase, and the batches it ran.
void Tally(const ServerPhase& phase, RunResult* result,
           std::vector<bool>* seen) {
  for (const ReaderStats& r : phase.readers) {
    result->attempted += r.attempted;
    result->failed += r.failed;
    for (size_t i = 0; i < seen->size(); ++i) {
      (*seen)[i] = (*seen)[i] || r.seen[i];
    }
  }
  result->attempted += phase.appender.attempted;
  result->failed += phase.appender.failed;
}

// The per-layer sums of a traced phase that come from counters rather than
// spans.
LayerSums TracedSums(const ServerPhase& phase) {
  LayerSums sums;
  for (const ReaderStats& r : phase.readers) sums.Merge(r.sums);
  sums.Merge(phase.appender.sums);
  sums.Add("server.append_p50_ms", Median(phase.appender.latency_ms));
  sums.Add("server.append_tail_ms", TailOf(phase.appender.latency_ms).value);
  const cache::ResultCacheStats& a = phase.result_after;
  const cache::ResultCacheStats& b = phase.result_before;
  sums.Add("result_hits", static_cast<double>(a.hits - b.hits));
  sums.Add("result_misses", static_cast<double>(a.misses - b.misses));
  sums.Add("cache.result_admissions",
           static_cast<double>(a.admissions - b.admissions));
  sums.Add("cache.result_evictions",
           static_cast<double>(a.evictions - b.evictions));
  sums.Add("cache.result_invalidations",
           static_cast<double>(a.invalidations - b.invalidations));
  sums.Add("cache.result_rejected",
           static_cast<double>(a.rejected - b.rejected));
  sums.Add("cache.plan_invalidations",
           static_cast<double>(phase.plan_after.invalidations -
                               phase.plan_before.invalidations));
  return sums;
}

RunResult RunServerMixed(const RunOptions& options) {
  RunResult result;
  const ServerPool pool = MakeServerPool();
  ServerSetup setup;  // outlives the server, which points into its database
  std::unique_ptr<server::Server> server;
  std::vector<double> setup_times;
  for (int rep = 0; rep < 5; ++rep) {
    server.reset();
    const int64_t t0 = NowNs();
    setup = LoadServerSetup(options.seed);
    server = std::make_unique<server::Server>(setup.db.get());
    // Opening the sessions is part of set-up; each phase opens its own, so
    // these close again right away.
    for (int s = 0; s <= kReaders; ++s) server->Connect();
    setup_times.push_back(SecondsSince(t0));
  }
  std::printf("  setup_s runs:");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n");

  std::vector<std::unique_ptr<Tracer>> tracers;
  const ServerPhase untraced = RunServerPhase(
      server.get(), setup, pool, options.seed,
      options.trace ? options.seconds / 2 : options.seconds,
      /*traced=*/false, &tracers);
  const double rss = PeakRssMb();
  const std::vector<double> untraced_lat = ReaderLatencies(untraced);
  std::vector<bool> seen(pool.batches.size(), false);
  Tally(untraced, &result, &seen);

  int64_t exact = 0, rebinds = 0, misses = 0, recycled = 0,
          warmup_recycled = 0, statements = 0;
  for (const ReaderStats& r : untraced.readers) {
    exact += r.exact_hits;
    rebinds += r.rebind_hits;
    misses += r.misses;
    recycled += r.recycled;
    warmup_recycled += r.warmup_recycled;
    statements += r.statements;
  }
  const int64_t invalidations =
      (untraced.plan_after.invalidations - untraced.plan_before.invalidations) +
      (untraced.result_after.invalidations -
       untraced.result_before.invalidations);
  std::printf("  plan cache: %lld exact hits, %lld rebind hits, %lld misses; "
              "%lld spools recycled (%lld in the warm-up); %lld "
              "invalidations; %zu timed appends\n",
              static_cast<long long>(exact), static_cast<long long>(rebinds),
              static_cast<long long>(misses), static_cast<long long>(recycled),
              static_cast<long long>(warmup_recycled),
              static_cast<long long>(invalidations),
              untraced.appender.latency_ms.size());
  // Spools are recycled only before the first append, which falls in the
  // warm-up, so that check counts the warm-up; the others count the timed
  // phase.
  for (const auto& [what, n] :
       {std::pair<const char*, int64_t>{"exact plan hit", exact},
        {"rebind plan hit", rebinds},
        {"plan miss", misses},
        {"recycled spool", recycled + warmup_recycled},
        {"cache invalidation", invalidations}}) {
    if (n < 1) {
      result.problems.push_back(StrFormat("server_mixed recorded no %s", what));
    }
  }

  if (!options.trace) {
    PrintLatency("batch latency", untraced_lat);
    PrintLatency("append latency (from due time)",
                 untraced.appender.latency_ms);
    std::printf("  append_p50_ms %.3f ms | append_tail_ms %.3f ms\n",
                Median(untraced.appender.latency_ms),
                TailOf(untraced.appender.latency_ms).value);
    result.metrics = EndToEnd(Median(setup_times), untraced_lat,
                              static_cast<double>(statements),
                              untraced.wall_s, rss);
  } else {
    // A fresh database and server: appends leave the untraced half's
    // tables changed, and the traced half must start from the same state.
    server.reset();
    setup = LoadServerSetup(options.seed);
    server = std::make_unique<server::Server>(setup.db.get());
    const ServerPhase traced =
        RunServerPhase(server.get(), setup, pool, options.seed,
                       options.seconds / 2, /*traced=*/true, &tracers);
    Tally(traced, &result, &seen);
    LayerSums sums = TracedSums(traced);
    AddTraceOverhead(Median(ReaderLatencies(traced)), Median(untraced_lat),
                     &sums);
    std::vector<const Tracer*> views;
    for (const auto& t : tracers) views.push_back(t.get());
    const SpanSummary spans = Summarize(views);
    FinishTrace(options, views, spans, &result);
    result.metrics = LayerReport(
        sums, spans, static_cast<double>(ReaderLatencies(traced).size()));
  }

  result.failed += CheckServer(server.get(), pool, seen, &result.problems);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"report_sf02", "mqo_batch",
                                                 "server_mixed"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"sql.parse_ms", "ms"},
        {"sql.bind_ms", "ms"},
        {"cache.fingerprint_ms", "ms"},
        {"cache.plan_lookup_ms", "ms"},
        {"cache.plan_hit_ratio", "ratio"},
        {"cache.plan_rebind_ratio", "ratio"},
        {"cache.plan_invalidations", "count"},
        {"cache.result_hit_ratio", "ratio"},
        {"cache.result_admissions", "count"},
        {"cache.result_evictions", "count"},
        {"cache.result_invalidations", "count"},
        {"cache.result_rejected", "count"},
        {"optimizer.explore_ms", "ms"},
        {"optimizer.plan_computations", "count"},
        {"core.optimize_ms", "ms"},
        {"core.signatures_ms", "ms"},
        {"core.candgen_ms", "ms"},
        {"core.enumerate_ms", "ms"},
        {"core.candidates_generated", "count"},
        {"core.candidates_kept", "count"},
        {"core.cse_optimizations", "count"},
        {"core.used_cses", "count"},
        {"core.merge_attempts", "count"},
        {"core.merge_accept_ratio", "ratio"},
        {"core.cost_ratio", "ratio"},
        {"exec.execute_ms", "ms"}};
    for (const char* op : kOpKinds) {
      m.push_back({std::string("exec.self_ms.") + op, "ms"});
    }
    for (const auto& [name, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"exec.spool_eval_ms", "ms"},
             {"exec.probe_keys", "count"},
             {"exec.rows_out", "count"},
             {"storage.rows_scanned", "count"},
             {"storage.spool_rows_written", "count"},
             {"storage.spool_rows_read", "count"},
             {"storage.spool_bytes", "bytes"},
             {"server.execute_call_ms", "ms"},
             {"server.lock_wait_ms", "ms"},
             {"server.append_call_ms", "ms"},
             {"server.append_p50_ms", "ms"},
             {"server.append_tail_ms", "ms"},
             {"gen.append_lateness_ms", "ms"},
             {"trace.batch_p50_ms", "ms"},
             {"trace.untraced_batch_p50_ms", "ms"},
             {"trace.overhead_pct", "%"}}) {
      m.push_back({name, unit});
    }
    return m;
  }();
  return metrics;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "report_sf02") {
    return RunClosedLoop(options, {0.2, 3, 2, kReportRound, &ReportBatch,
                                   /*require_cse_every_batch=*/true,
                                   /*require_candidate_cap=*/false});
  }
  if (options.workload == "mqo_batch") {
    return RunClosedLoop(options, {0.02, 5, 4, kMqoRound, &MqoBatch,
                                   /*require_cse_every_batch=*/false,
                                   /*require_candidate_cap=*/true});
  }
  return RunServerMixed(options);
}

}  // namespace subshare::perfbench
