// In-memory spans for the traced run.
//
// The benchmark records spans in its own code around each public engine
// call it makes; nothing inside the engine is instrumented. A Tracer belongs
// to one thread, so recording takes no lock. Spans stay in memory until the
// run ends and are then summarized (self time per span name) and written
// out as tab-separated lines.
#ifndef SUBSHARE_PERFBENCH_TRACE_H_
#define SUBSHARE_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace subshare::perfbench {

int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    // index into the owning tracer's spans, -1 for a root
  int64_t batch = 0;  // spans of one batch share this id
  int thread = 0;
};

class Tracer {
 public:
  explicit Tracer(int thread = 0) : thread_(thread) {}

  // Opens a span under the innermost open one and returns its index.
  int Begin(const std::string& name, int64_t batch);
  void End(int span);
  // Records a span whose interval is already known (e.g. a phase duration
  // the engine reported), under the innermost open span.
  void AddClosed(const std::string& name, int64_t batch, int64_t start_ns,
                 int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  double DurationMs(int span) const {
    return (spans_[span].end_ns - spans_[span].start_ns) / 1e6;
  }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t batch)
      : tracer_(tracer), id_(tracer->Begin(name, batch)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct SpanSummary {
  std::map<std::string, double> self_ms;   // summed over spans of a name
  std::map<std::string, double> total_ms;  // inclusive, summed
  // Spans whose children cover more than the span itself (beyond 1 µs of
  // clock granularity); must be zero.
  int64_t violations = 0;
  std::string first_violation;
};

// Self time of a span: its duration minus its children's durations (a
// thread's children are sequential and nested, so they never overlap).
SpanSummary Summarize(const std::vector<const Tracer*>& tracers);

// Writes one line per span: thread, batch, name, parent, start, end (ns).
bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path);

}  // namespace subshare::perfbench

#endif  // SUBSHARE_PERFBENCH_TRACE_H_
