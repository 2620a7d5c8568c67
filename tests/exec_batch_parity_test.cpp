// Row-at-a-time vs. batched execution parity.
//
// The two pull interfaces (Next / NextBatch) share operator state and must
// produce identical results for every plan shape. This suite pins the paths
// that have real divergence potential:
//   - fused scans (batch-mode hash join probe / hash agg iterate the scan's
//     backing storage in place instead of pulling gathered batches),
//   - the single-int-key hash join fast path (IntKeyTable) vs. the general
//     RowKey map, including non-integral double and null join keys,
//   - row pulls *inside* a batch-mode tree: operators without a batch
//     override (e.g. nested-loop join, index NL join) drive their children
//     through Next() even when ctx->mode == kBatch, so every batch operator
//     must also serve its row interface under batch-mode bindings,
//   - CSE spool write + multi-consumer spool read in both modes,
//   - empty inputs, empty results, and residual join predicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "exec/naive_planner.h"
#include "expr/column.h"
#include "logical/query.h"
#include "sql/binder.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace subshare {
namespace {

std::vector<std::string> Canon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      if (v.type() == DataType::kDouble && !v.is_null()) {
        char buf[32];
        snprintf(buf, sizeof(buf), "%.3f", v.AsDouble());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// SQL-level parity on TPC-H: optimize once, execute the same plan in both
// modes (and against the naive reference), compare per-statement results.

const char* kBatches[] = {
    // Fused scan -> hash agg, dense filter windows.
    "select l_returnflag, l_linestatus, sum(l_quantity) as q, "
    "count(*) as c from lineitem where l_shipdate < '1996-01-01' "
    "group by l_returnflag, l_linestatus",
    // 3-way join: int-key fast path + fused probe over lineitem.
    "select c_nationkey, sum(l_extendedprice) as rev from customer, orders, "
    "lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' group by c_nationkey",
    // Composite join key (two equi-columns): general RowKey path.
    "select count(*) as n from partsupp, lineitem where "
    "ps_partkey = l_partkey and ps_suppkey = l_suppkey",
    // Empty result set (predicate matches nothing).
    "select l_returnflag, sum(l_quantity) as q from lineitem "
    "where l_shipdate < '1970-01-01' group by l_returnflag",
    // Join with an empty build/probe side.
    "select count(*) as n from orders, lineitem where "
    "o_orderkey = l_orderkey and o_orderdate < '1970-01-01'",
    // Order-by on top of a join (sort consumes the join in both modes).
    "select o_orderkey, sum(l_extendedprice) as rev from orders, lineitem "
    "where o_orderkey = l_orderkey and o_orderdate < '1992-06-01' "
    "group by o_orderkey order by rev desc",
    // CSE batch (paper Example 1): spool write + three spool consumers.
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' and c_nationkey > 0 "
    "and c_nationkey < 20 group by c_nationkey, c_mktsegment; "
    "select c_nationkey, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' and c_nationkey > 5 "
    "and c_nationkey < 25 group by c_nationkey; "
    "select n_regionkey, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem, nation "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' "
    "and c_nationkey > 2 and c_nationkey < 24 group by n_regionkey",
};

class BatchParityTest : public ::testing::TestWithParam<int> {
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

Catalog* BatchParityTest::catalog_ = nullptr;

TEST_P(BatchParityTest, RowAndBatchModesAgree) {
  const std::string batch = kBatches[GetParam()];
  // Reference: naive plans, row-at-a-time.
  QueryContext naive_ctx(catalog_);
  auto naive_stmts = sql::BindSql(batch, &naive_ctx);
  ASSERT_TRUE(naive_stmts.ok()) << naive_stmts.status().ToString();
  ExecOptions row_opts;
  row_opts.mode = ExecMode::kRowAtATime;
  auto reference = ExecutePlan(NaivePlanBatch(*naive_stmts, &naive_ctx),
                               row_opts, nullptr);

  // Index-NL plans drive batch-mode children through the row interface;
  // hash-only plans stay on the vectorized operators. Both configurations
  // must agree with the reference in both modes.
  for (bool index_scans : {true, false}) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(batch, &ctx);
    ASSERT_TRUE(stmts.ok());
    CseOptimizerOptions options;
    options.optimizer.enable_index_scans = index_scans;
    CseQueryOptimizer optimizer(&ctx, options);
    CseMetrics metrics;
    ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
    ExecOptions batch_opts;
    batch_opts.mode = ExecMode::kBatch;
    auto row_results = ExecutePlan(plan, row_opts, nullptr);
    auto batch_results = ExecutePlan(plan, batch_opts, nullptr);

    ASSERT_EQ(row_results.size(), reference.size());
    ASSERT_EQ(batch_results.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(Canon(row_results[i].rows), Canon(reference[i].rows))
          << "row mode, index_scans=" << index_scans << ", stmt " << i;
      EXPECT_EQ(Canon(batch_results[i].rows), Canon(reference[i].rows))
          << "batch mode, index_scans=" << index_scans << ", stmt " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBatches, BatchParityTest,
                         ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Operator-level parity: hand-built plans over small tables with null keys,
// fractional double keys, residual predicates, and row pulls in batch mode.

Schema KV(DataType key_type = DataType::kInt64) {
  Schema s;
  s.AddColumn("k", key_type);
  s.AddColumn("v", DataType::kInt64);
  return s;
}

PhysicalNodePtr Scan(const Table* table, const std::vector<ColId>& cols) {
  auto scan = MakePhysical(PhysOpKind::kTableScan);
  scan->table = table;
  scan->input_cols = cols;
  scan->output = Layout(cols);
  return scan;
}

std::vector<std::string> RunBothModes(const PhysicalNode& node) {
  ExecContext row_ctx;
  row_ctx.mode = ExecMode::kRowAtATime;
  std::vector<std::string> row = Canon(RunToVector(node, &row_ctx));
  ExecContext batch_ctx;
  batch_ctx.mode = ExecMode::kBatch;
  std::vector<std::string> batch = Canon(RunToVector(node, &batch_ctx));
  EXPECT_EQ(row, batch);
  return row;
}

// Null keys must never join, in either mode, on both hash-join paths.
TEST(ExecBatchParityTest, NullIntKeysNeverJoin) {
  Rng rng(11);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 200; ++i) {
    Value lk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 12));
    Value rk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 12));
    left->AppendRow({lk, Value::Int64(i)});
    right->AppendRow({rk, Value::Int64(1000 + i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1], lc[0]});
  std::vector<std::string> rows = RunBothModes(*join);
  for (const std::string& r : rows) {
    EXPECT_EQ(r.find("NULL|"), std::string::npos)
        << "null key joined: " << r;
  }
}

// Fractional doubles disqualify the int-key fast path; integral doubles must
// still match int64 keys exactly (Value::Compare semantics) in both modes.
TEST(ExecBatchParityTest, DoubleKeysUseGeneralPath) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV(DataType::kInt64));
  Table* right = *catalog.CreateTable("r", KV(DataType::kDouble));
  for (int i = 0; i < 6; ++i) left->AppendRow({Value::Int64(i), Value::Int64(i)});
  right->AppendRow({Value::Double(2.0), Value::Int64(100)});   // joins k=2
  right->AppendRow({Value::Double(2.5), Value::Int64(101)});   // joins nothing
  right->AppendRow({Value::Double(4.0), Value::Int64(102)});   // joins k=4
  right->AppendRow({Value::Null(DataType::kDouble), Value::Int64(103)});
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  EXPECT_EQ(RunBothModes(*join).size(), 2u);
}

// Residual predicates filter matches after the key lookup on both paths.
TEST(ExecBatchParityTest, ResidualPredicateParity) {
  Rng rng(23);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 120; ++i) {
    left->AppendRow({Value::Int64(rng.Uniform(0, 5)),
                     Value::Int64(rng.Uniform(0, 40))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 5)),
                      Value::Int64(rng.Uniform(0, 40))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->join_residual = Expr::Compare(CmpOp::kLt,
                                 Expr::Column(lc[1], DataType::kInt64),
                                 Expr::Column(rc[1], DataType::kInt64));
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  RunBothModes(*join);
}

// Empty build and empty probe sides terminate cleanly in both modes.
TEST(ExecBatchParityTest, EmptyInputsParity) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* empty = *catalog.CreateTable("e", KV());
  Table* full = *catalog.CreateTable("f", KV());
  for (int i = 0; i < 10; ++i) {
    full->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int erel = ctx.AddRelation(*empty, "e");
  int frel = ctx.AddRelation(*full, "f");
  auto ec = ctx.columns().RelationColumns(erel);
  auto fc = ctx.columns().RelationColumns(frel);
  for (bool empty_left : {true, false}) {
    auto join = MakePhysical(PhysOpKind::kHashJoin);
    if (empty_left) {
      join->join_keys = {{ec[0], fc[0]}};
      join->children = {Scan(empty, ec), Scan(full, fc)};
      join->output = Layout({ec[1], fc[1]});
    } else {
      join->join_keys = {{fc[0], ec[0]}};
      join->children = {Scan(full, fc), Scan(empty, ec)};
      join->output = Layout({fc[1], ec[1]});
    }
    EXPECT_EQ(RunBothModes(*join).size(), 0u);
  }
}

// A batch-mode parent without a NextBatch override (nested-loop join) pulls
// its children row by row even though ctx->mode == kBatch. The hash join
// below it must serve Next() correctly while its bindings target the fused /
// int-key batch machinery — the exact shape that once produced garbage.
TEST(ExecBatchParityTest, RowPullInsideBatchModeTree) {
  Rng rng(7);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  Table* outer = *catalog.CreateTable("t", KV());
  for (int i = 0; i < 60; ++i) {
    left->AppendRow({Value::Int64(rng.Uniform(0, 6)),
                     Value::Int64(rng.Uniform(0, 10))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 6)),
                      Value::Int64(rng.Uniform(0, 10))});
  }
  for (int i = 0; i < 4; ++i) {
    outer->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  int trel = ctx.AddRelation(*outer, "t");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto tc = ctx.columns().RelationColumns(trel);

  auto hash = MakePhysical(PhysOpKind::kHashJoin);
  hash->join_keys = {{lc[0], rc[0]}};
  hash->children = {Scan(left, lc), Scan(right, rc)};
  hash->output = Layout({lc[1], rc[1]});

  auto nlj = MakePhysical(PhysOpKind::kNlJoin);
  nlj->nl_pred = Expr::Compare(CmpOp::kEq,
                               Expr::Column(lc[1], DataType::kInt64),
                               Expr::Column(tc[0], DataType::kInt64));
  nlj->children = {std::move(hash), Scan(outer, tc)};
  nlj->output = Layout({lc[1], rc[1], tc[1]});
  RunBothModes(*nlj);
}

// The CLAUDE.md batch/row-pull gotcha, aimed at the generic probe path: a
// batch-mode NL-join parent (no NextBatch override) pulls the hash join row
// by row while the join's bindings target the windowed FindBatch machinery.
// The composite two-column key forces the generic path, whose ChainTable
// chains are keyed by hash and filtered at emit; batch mode must agree with
// row mode.
TEST(ExecBatchParityTest, RowPullOverCompositeKeyJoin) {
  Rng rng(67);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Schema wide;
  wide.AddColumn("k1", DataType::kInt64);
  wide.AddColumn("k2", DataType::kInt64);
  wide.AddColumn("v", DataType::kInt64);
  Table* left = *catalog.CreateTable("l", wide);
  Table* right = *catalog.CreateTable("r", wide);
  Table* outer = *catalog.CreateTable("t", KV());
  for (int i = 0; i < 90; ++i) {
    Value lk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 4));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 4)),
                     Value::Int64(rng.Uniform(0, 6))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 4)),
                      Value::Int64(rng.Uniform(0, 4)),
                      Value::Int64(rng.Uniform(0, 6))});
  }
  for (int i = 0; i < 4; ++i) {
    outer->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  int trel = ctx.AddRelation(*outer, "t");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto tc = ctx.columns().RelationColumns(trel);

  auto hash = MakePhysical(PhysOpKind::kHashJoin);
  hash->join_keys = {{lc[0], rc[0]}, {lc[1], rc[1]}};  // generic path
  hash->children = {Scan(left, lc), Scan(right, rc)};
  hash->output = Layout({lc[2], rc[2]});

  auto nlj = MakePhysical(PhysOpKind::kNlJoin);
  nlj->nl_pred = Expr::Compare(CmpOp::kEq,
                               Expr::Column(lc[2], DataType::kInt64),
                               Expr::Column(tc[0], DataType::kInt64));
  nlj->children = {std::move(hash), Scan(outer, tc)};
  nlj->output = Layout({lc[2], rc[2], tc[1]});
  EXPECT_GT(RunBothModes(*nlj).size(), 0u);
}

// Merge join drains, null-filters, and sorts both sides itself; null keys
// must not pair up (null Compare()s equal to null) and the residual applies
// inside equal-key rectangles — in both modes, agreeing with the hash join.
TEST(ExecBatchParityTest, MergeJoinNullKeysAndResidualParity) {
  Rng rng(31);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 150; ++i) {
    Value lk = rng.Uniform(0, 7) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 8));
    Value rk = rng.Uniform(0, 7) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 8));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 30))});
    right->AppendRow({rk, Value::Int64(rng.Uniform(0, 30))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto make_join = [&](PhysOpKind kind) {
    auto join = MakePhysical(kind);
    join->join_keys = {{lc[0], rc[0]}};
    join->join_residual = Expr::Compare(CmpOp::kLt,
                                        Expr::Column(lc[1], DataType::kInt64),
                                        Expr::Column(rc[1], DataType::kInt64));
    join->children = {Scan(left, lc), Scan(right, rc)};
    join->output = Layout({lc[0], lc[1], rc[1]});
    return join;
  };
  std::vector<std::string> merge = RunBothModes(*make_join(PhysOpKind::kMergeJoin));
  std::vector<std::string> hash = RunBothModes(*make_join(PhysOpKind::kHashJoin));
  EXPECT_EQ(merge, hash);
  for (const std::string& r : merge) {
    EXPECT_NE(r.substr(0, 5), "NULL|") << "null key joined: " << r;
  }
}

// Index NL join probes a base-table sorted index per outer row and has no
// batch override, so in batch mode the default adapter drives it row-wise
// over batch-bound children. Null outer keys must probe nothing.
TEST(ExecBatchParityTest, IndexNlJoinNullOuterKeysParity) {
  Rng rng(43);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* outer = *catalog.CreateTable("o", KV());
  Table* inner = *catalog.CreateTable("i", KV());
  for (int i = 0; i < 80; ++i) {
    Value ok = rng.Uniform(0, 5) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 10));
    outer->AppendRow({ok, Value::Int64(i)});
    inner->AppendRow({Value::Int64(rng.Uniform(0, 10)),
                      Value::Int64(rng.Uniform(0, 50))});
  }
  inner->CreateIndex(0);
  int orel = ctx.AddRelation(*outer, "o");
  int irel = ctx.AddRelation(*inner, "i");
  auto oc = ctx.columns().RelationColumns(orel);
  auto ic = ctx.columns().RelationColumns(irel);
  auto join = MakePhysical(PhysOpKind::kIndexNlJoin);
  join->table = inner;
  join->rel_id = irel;
  join->input_cols = ic;
  join->index_range.column_idx = 0;
  join->join_keys = {{oc[0], ic[0]}};
  join->filter = Expr::Compare(CmpOp::kLt, Expr::Column(ic[1], DataType::kInt64),
                               Expr::Literal(Value::Int64(40)));
  join->children = {Scan(outer, oc)};
  join->output = Layout({oc[0], oc[1], ic[1]});

  // Reference: hash join of the same spec (inner filter as residual).
  auto href = MakePhysical(PhysOpKind::kHashJoin);
  href->join_keys = {{oc[0], ic[0]}};
  href->join_residual = Expr::Compare(CmpOp::kLt,
                                      Expr::Column(ic[1], DataType::kInt64),
                                      Expr::Literal(Value::Int64(40)));
  href->children = {Scan(outer, oc), Scan(inner, ic)};
  href->output = Layout({oc[0], oc[1], ic[1]});
  EXPECT_EQ(RunBothModes(*join), RunBothModes(*href));
}

// Residual predicates over *fused* scans: both join children carry their own
// scan filters (applied per window by the fused consumer), the probe side
// holds nulls, the build side stays on the int-key fast path, and a residual
// filters the matches.
TEST(ExecBatchParityTest, FusedScanFiltersWithResidualAndNulls) {
  Rng rng(59);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 300; ++i) {
    Value lk = rng.Uniform(0, 8) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 15));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 100))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 15)),
                      Value::Int64(rng.Uniform(0, 100))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto lscan = Scan(left, lc);
  lscan->filter = Expr::Compare(CmpOp::kLt, Expr::Column(lc[1], DataType::kInt64),
                                Expr::Literal(Value::Int64(70)));
  auto rscan = Scan(right, rc);
  rscan->filter = Expr::Compare(CmpOp::kGe, Expr::Column(rc[1], DataType::kInt64),
                                Expr::Literal(Value::Int64(20)));
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->join_residual = Expr::Compare(CmpOp::kLt,
                                      Expr::Column(lc[1], DataType::kInt64),
                                      Expr::Column(rc[1], DataType::kInt64));
  join->children = {std::move(lscan), std::move(rscan)};
  join->output = Layout({lc[0], lc[1], rc[1]});
  std::vector<std::string> rows = RunBothModes(*join);
  for (const std::string& r : rows) {
    EXPECT_NE(r.substr(0, 5), "NULL|") << "null key joined: " << r;
  }
}

// Null group keys compare equal for aggregation, and integral doubles group
// with themselves only (Value::Hash must agree with Compare for -0.0/0.0 and
// 2.0); both modes must produce the same groups.
TEST(ExecBatchParityTest, NullAndDoubleGroupKeysParity) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = *catalog.CreateTable("t", KV(DataType::kDouble));
  const double keys[] = {2.0, 2.5, -0.0, 0.0, 2.0, 1e18};
  for (int rep = 0; rep < 3; ++rep) {
    for (double k : keys) {
      t->AppendRow({Value::Double(k), Value::Int64(rep)});
    }
    t->AppendRow({Value::Null(DataType::kDouble), Value::Int64(rep)});
  }
  int rel = ctx.AddRelation(*t, "t");
  auto cols = ctx.columns().RelationColumns(rel);
  ColId cnt = ctx.columns().AddSynthetic("cnt", DataType::kInt64);
  auto agg = MakePhysical(PhysOpKind::kHashAgg);
  agg->group_cols = {cols[0]};
  agg->aggs = {{AggFn::kCount, nullptr, cnt}};
  agg->children = {Scan(t, cols)};
  agg->output = Layout({cols[0], cnt});
  std::vector<std::string> rows = RunBothModes(*agg);
  // 5 groups: {0.0 == -0.0}, {2.0}, {2.5}, {1e18}, {NULL}.
  EXPECT_EQ(rows.size(), 5u);
  for (const std::string& r : rows) {
    if (r.substr(0, 4) == "NULL") {
      EXPECT_EQ(r, "NULL|3|") << "null group keys must merge";
    }
  }
}

}  // namespace
}  // namespace subshare
