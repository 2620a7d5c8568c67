// SubShare benchmark program.
//
//   subshare_perfbench --workload <report_sf02|mqo_batch|server_mixed|all>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-dir <dir>]
//
// Prints progress and every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. `all` runs the three workloads one after the other in this
// process and prefixes each metric with its workload name. Exits nonzero
// when a result differs from the naive planner or a self-check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "generator.h"
#include "workloads.h"

namespace subshare::perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: subshare_perfbench --workload "
               "<report_sf02|mqo_batch|server_mixed|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n");
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0) ||
          options->seconds > 3600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else {
      return false;
    }
  }
  if (!have_workload) return false;
  if (options->workload == "all") return true;
  for (const std::string& w : WorkloadNames()) {
    if (w == options->workload) return true;
  }
  return false;
}

// Same seed, same inputs; another seed, other inputs.
bool GeneratorSelfTest(const std::string& workload, uint64_t seed) {
  constexpr int kBatches = 8;
  const uint64_t a = StreamDigest(workload, seed, kBatches);
  const uint64_t b = StreamDigest(workload, seed, kBatches);
  const uint64_t c = StreamDigest(workload, seed + 1, kBatches);
  std::printf("  seed %llu: input stream digest %016llx (seed+1: %016llx)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(c));
  return a == b && a != c;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace subshare::perfbench

int main(int argc, char** argv) {
  using namespace subshare::perfbench;
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  std::vector<std::string> workloads;
  if (options.workload == "all") {
    workloads = WorkloadNames();
  } else {
    workloads.push_back(options.workload);
  }

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  for (const std::string& workload : workloads) {
    RunOptions run = options;
    run.workload = workload;
    std::printf("== %s (seed %llu, %.0f s, trace %d)\n", workload.c_str(),
                static_cast<unsigned long long>(run.seed), run.seconds,
                run.trace ? 1 : 0);
    std::fflush(stdout);
    if (!GeneratorSelfTest(workload, run.seed)) {
      std::printf("  FAIL: the input generator is not a function of the seed\n");
      correct = false;
    }
    RunResult r = RunWorkload(run);
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.correct();
    std::printf("  error_rate %.6f (%lld failed of %lld attempted)\n",
                r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 0.0,
                static_cast<long long>(r.failed),
                static_cast<long long>(r.attempted));
    for (const std::string& p : r.problems) {
      std::printf("  FAIL: %s\n", p.c_str());
    }
    for (Metric& m : r.metrics) {
      if (workloads.size() > 1) m.name = workload + "." + m.name;
      std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      metrics.push_back(std::move(m));
    }
    std::fflush(stdout);
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
