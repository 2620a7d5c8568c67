// The three benchmark workloads and their metrics.
//
//   report_sf02  cold 3-statement report batches at TPC-H SF 0.2, one
//                closed-loop client, CSE on, caches off.
//   mqo_batch    100-statement batches at SF 0.02, one closed-loop client,
//                CSE on, caches off.
//   server_mixed one Server at SF 0.02 with both shared caches: three
//                closed-loop reader sessions and one open-loop appender.
//
// An untraced run (trace = false) reports the end-to-end metrics. A traced
// run spends the first half of its time untraced (for the overhead
// comparison) and the second half tracing every public engine call, and
// reports the per-layer metrics.
#ifndef SUBSHARE_PERFBENCH_WORKLOADS_H_
#define SUBSHARE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace subshare::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans; may be ""
};

struct RunResult {
  int64_t attempted = 0;  // batches and appends issued
  int64_t failed = 0;     // non-OK status or result differing from naive
  // Failed self-checks and trace consistency checks; any makes the run
  // incorrect.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0 && problems.empty(); }
};

const std::vector<std::string>& WorkloadNames();

// Names and units of the per-layer metrics every traced run reports.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

RunResult RunWorkload(const RunOptions& options);

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_WORKLOADS_H_
