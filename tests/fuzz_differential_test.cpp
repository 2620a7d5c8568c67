// Differential fuzzing harness as a ctest target:
//   - replays the checked-in regression corpus (tests/corpus/*.sql),
//   - runs seeded random query batches (>= 500 statements by default)
//     under row/batch × naive/CSE and cross-checks results and the §5.2
//     cost/spool plan invariants,
//   - sweeps the enumeration strategies (exhaustive/approximate)
//     over the corpus and random batches, cross-checking every strategy's
//     plan against the naive reference,
//   - pins generator determinism and shrinker well-formedness, and the
//     exactly-once C_E + C_W charge at the candidate's LCA.
//
// Reproduce any reported failure with:
//   ./build/bench/fuzz_main --seed=<seed> --batches=1
// The report includes the minimized SQL and the optimizer decision trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "sql/binder.h"
#include "testing/cache_differential.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "tpch/tpch.h"

#ifndef SUBSHARE_CORPUS_DIR
#define SUBSHARE_CORPUS_DIR "tests/corpus"
#endif

namespace subshare {
namespace {

class FuzzDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  static Catalog* catalog_;
};

Catalog* FuzzDifferentialTest::catalog_ = nullptr;

TEST_F(FuzzDifferentialTest, CorpusReplay) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUBSHARE_CORPUS_DIR)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no corpus files in " << SUBSHARE_CORPUS_DIR;

  testing::DifferentialTester tester(catalog_);
  for (const auto& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream buf;
    buf << in.rdbuf();
    auto d = tester.Check(buf.str());
    EXPECT_FALSE(d.has_value()) << file << ":\n" << d->ToString();
  }
  EXPECT_GT(tester.statements_checked(), 0);
}

TEST_F(FuzzDifferentialTest, RandomBatches) {
  int batches = 250;
  if (const char* env = std::getenv("SUBSHARE_FUZZ_BATCHES")) {
    batches = std::atoi(env);
  }
  testing::DifferentialTester tester(catalog_);
  for (int i = 0; i < batches; ++i) {
    uint64_t seed = 1000000 + static_cast<uint64_t>(i);
    testing::QueryGenerator gen(catalog_, seed);
    testing::BatchSpec batch = gen.NextBatch();
    batch.seed = seed;
    auto d = tester.CheckBatch(batch);
    ASSERT_FALSE(d.has_value())
        << "seed " << seed << ":\n"
        << d->ToString();
  }
  // The acceptance bar: >= 500 statements across all four configurations
  // (only meaningful at the default batch count).
  if (batches >= 250) {
    EXPECT_GE(tester.statements_checked(), 500);
  }
}

// Strategy sweep: every batch is planned once per enumeration strategy and
// all plans are cross-checked (row + batch modes) against the naive
// reference, plus the §5.2 plan invariants per strategy. Only the chosen
// CSE set may differ between strategies — results never.
TEST_F(FuzzDifferentialTest, StrategySweepCorpusReplay) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUBSHARE_CORPUS_DIR)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  testing::DiffOptions options;
  options.strategies = testing::AllEnumerationStrategies();
  testing::DifferentialTester tester(catalog_, options);
  for (const auto& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream buf;
    buf << in.rdbuf();
    auto d = tester.Check(buf.str());
    EXPECT_FALSE(d.has_value()) << file << ":\n" << d->ToString();
  }
}

TEST_F(FuzzDifferentialTest, StrategySweepRandomBatches) {
  int batches = 250;
  if (const char* env = std::getenv("SUBSHARE_FUZZ_BATCHES")) {
    batches = std::atoi(env);
  }
  // Each batch runs 2 + 2·(#strategies) configurations; halve the count to
  // keep the suite's wall time in line with the single-strategy leg.
  batches = std::max(1, batches / 2);
  testing::DiffOptions options;
  options.strategies = testing::AllEnumerationStrategies();
  testing::DifferentialTester tester(catalog_, options);
  for (int i = 0; i < batches; ++i) {
    uint64_t seed = 3000000 + static_cast<uint64_t>(i);
    testing::QueryGenerator gen(catalog_, seed);
    testing::BatchSpec batch = gen.NextBatch();
    batch.seed = seed;
    auto d = tester.CheckBatch(batch);
    ASSERT_FALSE(d.has_value()) << "seed " << seed << ":\n" << d->ToString();
  }
  if (batches >= 125) {
    EXPECT_GE(tester.statements_checked(), 250);
  }
}

// Corpus replay through the cache-mode checker: each checked-in batch is
// run cold, warm (must hit the plan cache), and again after a random
// insert — pinning the repeated-prefix and repeat-after-insert scenarios.
TEST_F(FuzzDifferentialTest, CorpusReplayCacheMode) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUBSHARE_CORPUS_DIR)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  Database db;
  ASSERT_TRUE(db.LoadTpch(0.002).ok());
  testing::CacheDifferentialTester tester(&db, /*seed=*/11);
  for (const auto& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    std::stringstream buf;
    buf << in.rdbuf();
    auto d = tester.Check(buf.str());
    EXPECT_FALSE(d.has_value()) << file << ":\n" << d->ToString();
  }
  EXPECT_EQ(tester.plan_hits_seen(), tester.batches_checked());
  // The shared-prefix corpus entries actually exercise the recycler.
  EXPECT_GE(tester.recycled_runs_seen(), 1);
}

// Cache mode: each batch is replayed through the plan cache and result
// recycler with interleaved random inserts, against the naive reference.
// Uses its own Database — the interleaved inserts mutate its tables.
TEST_F(FuzzDifferentialTest, CacheModeRandomBatches) {
  int batches = 250;
  if (const char* env = std::getenv("SUBSHARE_FUZZ_BATCHES")) {
    batches = std::atoi(env);
  }
  Database db;
  ASSERT_TRUE(db.LoadTpch(0.002).ok());
  testing::CacheDifferentialTester tester(&db, /*seed=*/2000000);
  for (int i = 0; i < batches; ++i) {
    uint64_t seed = 2000000 + static_cast<uint64_t>(i);
    testing::QueryGenerator gen(&db.catalog(), seed);
    auto d = tester.Check(testing::ToSql(gen.NextBatch()));
    ASSERT_FALSE(d.has_value()) << "seed " << seed << ":\n" << d->ToString();
  }
  // The acceptance bar: >= 500 statements replayed with zero divergences,
  // with real warm traffic — plan-cache hits on every warm repeat and at
  // least some runs recycling spooled CSE artifacts.
  if (batches >= 250) {
    EXPECT_GE(tester.statements_checked(), 500);
    EXPECT_GE(tester.recycled_runs_seen(), 1);
  }
  EXPECT_EQ(tester.plan_hits_seen(), tester.batches_checked());
}

TEST_F(FuzzDifferentialTest, GeneratorIsDeterministic) {
  testing::QueryGenerator a(catalog_, 42), b(catalog_, 42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(testing::ToSql(a.NextBatch()), testing::ToSql(b.NextBatch()));
  }
}

TEST_F(FuzzDifferentialTest, ShrinkCandidatesStayWellFormed) {
  testing::QueryGenerator gen(catalog_, 7);
  testing::DifferentialTester tester(catalog_);
  QueryContext probe(catalog_);
  for (int i = 0; i < 10; ++i) {
    testing::BatchSpec batch = gen.NextBatch();
    for (const testing::BatchSpec& cand : testing::ShrinkCandidates(batch)) {
      std::string sql = testing::ToSql(cand);
      EXPECT_LT(sql.size(), testing::ToSql(batch).size() + 1);
      QueryContext ctx(catalog_);
      auto bound = sql::BindSql(sql, &ctx);
      EXPECT_TRUE(bound.ok()) << sql << "\n" << bound.status().ToString();
    }
  }
}

// Regression for the §5.2 accounting rule: when subset re-optimization
// supersedes the plan at a candidate's LCA group, the initial cost
// C_E + C_W must still be charged exactly once (one cse_finalized record in
// the statement forest) and never inside an evaluation plan. Uses a batch
// with enough sharing that the enumeration runs several subsets.
TEST_F(FuzzDifferentialTest, SpoolChargeAccountedExactlyOnce) {
  const std::string sql =
      "select o_orderpriority, sum(l_extendedprice) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "and o_orderdate < '1997-01-01' group by o_orderpriority;\n"
      "select o_orderstatus, sum(l_quantity) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "and o_orderdate < '1997-01-01' group by o_orderstatus;\n"
      "select c_mktsegment, count(*) as agg0 "
      "from customer, orders where c_custkey = o_custkey "
      "group by c_mktsegment;\n"
      "select c_nationkey, count(*) as agg0 "
      "from customer, orders where c_custkey = o_custkey "
      "group by c_nationkey";
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  CseQueryOptimizer opt(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = opt.Optimize(*stmts, &metrics);

  ASSERT_GE(metrics.used_cses, 1) << "batch no longer produces a shared plan";
  EXPECT_GT(metrics.cse_optimizations, 1)
      << "enumeration did not supersede any plan; weaker regression";
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  // Count the charge directly: exactly one finalization per chosen CSE.
  for (const auto& cp : plan.cse_plans) {
    int charges = 0;
    for (int id : plan.root->cse_finalized) {
      if (id == cp.cse_id) ++charges;
    }
    EXPECT_EQ(charges, 1) << "cse " << cp.cse_id;
    EXPECT_TRUE(cp.plan->cse_finalized.empty())
        << "initial cost charged inside an evaluation plan";
  }
}

// The optimizer decision trace must record the full pipeline for a sharing
// batch: signature filtering, candidate construction, enumeration, and the
// chosen set, rendered by ExplainTrace().
TEST_F(FuzzDifferentialTest, ExplainTraceRecordsDecisions) {
  const std::string sql =
      "select o_orderpriority, sum(l_extendedprice) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "group by o_orderpriority;\n"
      "select o_orderstatus, count(*) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "group by o_orderstatus";
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer opt(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = opt.Optimize(*stmts, &metrics);
  (void)plan;

  const OptTrace& trace = metrics.trace;
  EXPECT_FALSE(trace.signatures.empty());
  EXPECT_FALSE(trace.candidates.empty());
  EXPECT_FALSE(trace.enumeration.empty());
  std::string text = trace.ExplainTrace();
  EXPECT_NE(text.find("signature"), std::string::npos) << text;
  EXPECT_NE(text.find("chosen"), std::string::npos) << text;
  EXPECT_NE(text.find("enumeration"), std::string::npos) << text;
}

}  // namespace
}  // namespace subshare
