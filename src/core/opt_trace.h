// Optimizer decision trace (§3–§5): a structured record of the choices the
// CSE optimizer makes for one batch — which signature sets passed the fast
// filter, what Algorithm 1 merged, what the §4.3 heuristics and the §5
// subset enumeration pruned — rendered by ExplainTrace(). The differential
// fuzzer attaches this log to every counterexample so a result mismatch
// comes with the decision history needed to localize the bug.
#ifndef SUBSHARE_CORE_OPT_TRACE_H_
#define SUBSHARE_CORE_OPT_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace subshare {

struct OptTrace {
  // §3 signature filtering: one entry per same-signature group set the CSE
  // manager surfaced (before join-compatibility analysis).
  struct SignatureSet {
    std::string signature;  // "[G; {customer, orders}]"
    int num_groups = 0;     // consumer groups sharing the signature
    bool pruned_h1 = false; // dropped by Heuristic 1 before compatibility
  };

  // Algorithm 1 (§4.3): one entry per attempted greedy merge step.
  struct Merge {
    std::string current;    // growing candidate being extended
    std::string other;      // singleton considered for merging in
    double delta = 0;       // benefit Δ of the merge
    bool accepted = false;  // merged (best positive Δ of the round)
  };

  // Heuristic/cap prunes (§4.3 H1–H4, enumeration cap).
  struct Prune {
    std::string what;    // candidate / consumer / set description
    std::string rule;    // "H1", "H2", "H3", "H4", "cap"
    std::string detail;
  };

  // Candidates that survived pruning and were materialized (§5).
  struct Candidate {
    int id = -1;
    std::string description;
    int num_consumers = 0;
  };

  // Enumeration: one entry per enabled set actually optimized. Under the
  // exhaustive strategy these are §5.3 subset steps; the approximate
  // strategy tags each step with a provenance note ("approximate round 2:
  // +#3") so a report is never misread as §5 subset steps.
  struct EnumStep {
    uint64_t subset = 0;    // enabled candidate bitmask
    double cost = 0;        // best plan cost under this set (<0: infeasible)
    uint64_t used = 0;      // candidates spooled by >= 2 consumers
    bool improved = false;  // became the best plan so far
    std::string note;       // strategy provenance; empty for exhaustive §5.3
  };

  std::vector<SignatureSet> signatures;
  std::vector<Merge> merges;
  std::vector<Prune> prunes;
  std::vector<Candidate> candidates;
  std::vector<EnumStep> enumeration;
  // Cross-batch cache decisions: result-recycler probes during candidate
  // registration ("cse N: recycler hit/miss <key>") and, when the executor
  // reports back, admissions/evictions.
  std::vector<std::string> cache_events;
  // Enabled sets marked redundant without optimization (Props 5.4–5.6).
  int64_t skipped_prop54 = 0;
  int64_t skipped_prop55 = 0;
  int64_t skipped_prop56 = 0;
  bool enumeration_capped = false;  // hit max_optimizations
  // Candidates dropped at the enumeration cap (max_candidates, itself
  // hard-clamped to Bitset64 capacity: candidate ids are mask bits, so at
  // most 64 survive no matter what the option says).
  int64_t candidates_dropped = 0;
  // Which strategy produced the enumeration steps above ("exhaustive",
  // "approximate") — the chosen-set provenance.
  std::string strategy = "exhaustive";
  // Approximate strategy only: candidates accepted on a stale lazy bound
  // without re-costing the rest of the queue (Kathuria–Sudarshan pruning).
  int64_t skipped_stale_bound = 0;

  uint64_t chosen_set = 0;
  double normal_cost = 0;
  double final_cost = 0;

  void Clear() { *this = OptTrace(); }

  // Human-readable rendering of the full decision log.
  std::string ExplainTrace() const;
};

}  // namespace subshare

#endif  // SUBSHARE_CORE_OPT_TRACE_H_
