// Seeded input streams for the three benchmark workloads.
//
// Everything the engine receives is produced here from the run's seed: SQL
// batch text, and for server_mixed the reader picks and the append stream.
// The engine never sees the seed, only the generated inputs. Streams are
// pure functions of (seed, index), so a run can draw as many batches as its
// time budget allows and two runs with the same seed see the same prefix.
#ifndef SUBSHARE_PERFBENCH_GENERATOR_H_
#define SUBSHARE_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace subshare::perfbench {

// One statement of the §6.5 scale-up family (customer ⨝ orders ⨝ lineitem,
// optionally ⨝ nation [⨝ region], with rotating predicates and grouping).
struct FamilyStmt {
  // 0: group by c_nationkey; 1: c_mktsegment; 2: both;
  // 3: join nation, group by n_regionkey; 4: also join region.
  int variant = 0;
  int month = 0;  // o_orderdate < first day of month `month` after 1992-01
  int lo = 0;     // c_nationkey > lo
  int hi = 25;    // c_nationkey < hi
};

std::string RenderFamily(const FamilyStmt& s);

// "YYYY-MM-01" for `month` months after 1992-01.
std::string MonthStart(int month);

// A batch: its statements and the ';'-joined text sent to the engine.
struct Batch {
  std::vector<std::string> stmts;
  std::string sql;
};
Batch MakeBatch(std::vector<std::string> stmts);

// 64-bit mixing of a seed with a stream index (splitmix finalizer).
uint64_t Mix(uint64_t seed, uint64_t index);

// report_sf02: four fixed family statements (one per grouping shape plus a
// nation+region variant). Round r holds the four 3-of-4 combinations in a
// seeded order, statements shuffled within each batch. A traced run covers
// the first round.
constexpr int kReportRound = 4;
Batch ReportBatch(uint64_t seed, int64_t index);

// mqo_batch: a fixed pool of kMqoPool distinct family statements; batch k
// is kMqoStatements of them, sampled without replacement in seeded order.
// A traced run covers the first kMqoRound batches.
constexpr int kMqoPool = 120;
constexpr int kMqoStatements = 100;
constexpr int kMqoRound = 3;
Batch MqoBatch(uint64_t seed, int64_t index);

// server_mixed: a skewed pool of 2–3-statement batches.
//   - CSE shapes: the three C⨝O⨝L grouping statements of the family.
//     Repeats are exact plan hits that recycle cached spools; their plans
//     contain CSEs, so a new literal vector is a plan miss plus a spool
//     admission.
//   - Rebind shapes: single-table statements (never a CSE, so the cached
//     plan is literal-rebindable). Variants shift every literal by a common
//     offset, which keeps the pairwise order pattern the rebind gate checks.
// Each shape has kServerVariants literal variants. The pool is the same for
// every seed; the seed drives the readers' picks, which follow a Zipf law
// over the pool (rank order interleaves the two kinds in a fixed pattern).
struct ServerPool {
  std::vector<Batch> batches;
  std::vector<double> cumulative;  // Zipf CDF over `batches`
};
constexpr int kServerCseShapes = 8;
constexpr int kServerRebindShapes = 4;
constexpr int kServerVariants = 3;
constexpr double kThinkMeanMicros = 100000;
ServerPool MakeServerPool();
// Index into pool.batches of reader `reader`'s `index`-th pick.
int ServerPick(const ServerPool& pool, uint64_t seed, int reader,
               int64_t index);

// Think time of reader `reader` before its `index`-th batch, in µs:
// exponential with mean kThinkMeanMicros.
int64_t ServerThinkMicros(uint64_t seed, int reader, int64_t index);

// One append of the server_mixed writer: a new order and one to three of
// its line items, as indexes into the rows sampled from each table at
// set-up (appended with one Session::Append per table).
struct AppendOp {
  int order_row = 0;
  std::vector<int> lineitem_rows;
};
constexpr int kAppendSampleRows = 64;
AppendOp ServerAppend(uint64_t seed, int64_t index);

// Digest of the first `batches` inputs of a workload's stream (SQL text of
// every batch and, for server_mixed, the reader picks and append stream).
uint64_t StreamDigest(const std::string& workload, uint64_t seed,
                      int batches);

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_GENERATOR_H_
