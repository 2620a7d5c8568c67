// Differential query checker: executes a SQL batch under all planner ×
// executor configurations —
//
//     row-mode naive, batch-mode naive, and row + batch mode CSE for every
//     configured enumeration strategy (§5.3 exhaustive by default; with a
//     strategy sweep, approximate too)
//
// — and cross-checks that every statement produces the same result multiset
// (the repo's central correctness property: CSE sharing must be invisible in
// results regardless of which strategy picked the CSE set, and batch
// execution must match the row-at-a-time reference).
// CSE plans are additionally checked against the §5.2 cost/spool
// invariants: every materialized candidate is read by at least two spool
// scans, its initial cost C_E + C_W is charged exactly once (one
// finalization at the LCA), and stacked CSEs appear in dependency order.
//
// When a generated batch diverges, CheckBatch() greedily shrinks the
// BatchSpec (testing/query_gen.h) to a minimal reproducer before reporting,
// and attaches the CSE optimizer's decision log (OptTrace::ExplainTrace).
#ifndef SUBSHARE_TESTING_DIFFERENTIAL_H_
#define SUBSHARE_TESTING_DIFFERENTIAL_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/cse_optimizer.h"
#include "testing/query_gen.h"

namespace subshare::testing {

struct DiffOptions {
  CseOptimizerOptions cse;           // options for the CSE configurations
  // Enumeration strategies to cross-check. Empty (the default) runs just
  // cse.strategy; listing several optimizes the batch once per strategy
  // and checks plan invariants and result multisets for each.
  std::vector<EnumerationStrategy> strategies;
  bool check_plan_invariants = true;
  int max_shrink_steps = 64;         // accepted reductions before giving up
};

// The full strategy sweep: {exhaustive, approximate}.
std::vector<EnumerationStrategy> AllEnumerationStrategies();

// A confirmed disagreement between configurations (or a violated plan
// invariant), with a minimized reproducer.
struct Divergence {
  std::string sql;           // minimized reproducer
  std::string original_sql;  // the batch that first failed
  std::string kind;          // "result-mismatch" | "plan-invariant" | "error"
  std::string detail;        // which configs and the first differing rows
  std::string trace;         // ExplainTrace() of the CSE run on `sql`

  std::string ToString() const;
};

// §5.2 cost/spool invariant check over a CSE-optimized plan; returns a
// description of the first violation, or "" when the plan is well-formed:
//   - every materialized candidate is consumed by >= 2 spool scans,
//   - the initial cost C_E + C_W is charged exactly once, at a node in the
//     statement forest (the LCA), never inside an evaluation plan,
//   - stacked CSEs read only earlier-materialized spools.
std::string PlanInvariantViolation(const ExecutablePlan& plan);

class DifferentialTester {
 public:
  explicit DifferentialTester(Catalog* catalog, DiffOptions options = {});

  // Cross-checks one SQL batch. std::nullopt means all four configurations
  // agree (or the batch fails to bind — a bind error cannot diverge since
  // all configurations share the front end).
  std::optional<Divergence> Check(const std::string& sql);

  // Check() plus greedy structural shrinking of the failing BatchSpec.
  std::optional<Divergence> CheckBatch(const BatchSpec& batch);

  int64_t statements_checked() const { return statements_checked_; }
  int64_t batches_checked() const { return batches_checked_; }

 private:
  Catalog* catalog_;
  DiffOptions options_;
  int64_t statements_checked_ = 0;
  int64_t batches_checked_ = 0;
};

}  // namespace subshare::testing

#endif  // SUBSHARE_TESTING_DIFFERENTIAL_H_
