#include "trace.h"

#include <chrono>
#include <cstdio>

#include "util/check.h"

namespace subshare::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int64_t batch) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.batch = batch;
  s.thread = thread_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  CHECK(!open_.empty() && open_.back() == span) << "spans must nest";
  spans_[span].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::AddClosed(const std::string& name, int64_t batch,
                       int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.batch = batch;
  s.thread = thread_;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
}

SpanSummary Summarize(const std::vector<const Tracer*>& tracers) {
  constexpr int64_t kClockSlackNs = 1000;
  SpanSummary out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      if (child_ns[i] > dur + kClockSlackNs) {
        if (out.violations++ == 0) {
          out.first_violation = s.name + " (batch " +
                                std::to_string(s.batch) + ")";
        }
      }
      out.self_ms[s.name] += (dur - child_ns[i]) / 1e6;
      out.total_ms[s.name] += dur / 1e6;
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tbatch\tname\tparent\tstart_ns\tend_ns\n");
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      std::fprintf(f, "%d\t%lld\t%s\t%d\t%lld\t%lld\n", s.thread,
                   static_cast<long long>(s.batch), s.name.c_str(), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace subshare::perfbench
