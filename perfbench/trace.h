// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (TrainStep::run, the optimizers' step(), the
// loss builder, dataset batching, planner compile, executor rounds). Each
// span keeps its name, start, end, parent and step id, and belongs to the
// phase the run was in (setup, eager probe, timed window). Per-layer totals
// per phase (calls, total time, self time = duration minus the time its
// child spans cover) are folded online, so a long run keeps only a bounded
// prefix of raw spans for the Chrome trace file while every span counts in
// the summary. Nothing here runs when tracing is off: call sites hold a null
// Tracer pointer and ScopedSpan does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  const char* phase;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index into the kept spans, -1 for a root
  int64_t step;    // step id of the iteration the span belongs to
};

struct LayerTotals {
  int64_t calls = 0;
  double total_ns = 0;
  double self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t max_kept_spans);

  void begin(const char* name);
  void end();
  void set_step(int64_t step) { step_ = step; }
  /// Phase for spans begun from now on (a string literal).
  void set_phase(const char* phase) { phase_ = phase; }

  /// Sum of the self times of every span closed in `phase`. Self times of
  /// a span tree add up to its root's duration.
  double phase_self_ns(const std::string& phase) const;
  /// Totals for one span name in one phase (zeros when it never ran).
  LayerTotals totals_of(const std::string& phase,
                        const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON ("X" events; open
  /// the file in Perfetto or chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;
  /// Writes the per-layer self-time table of every phase as JSON, sorted
  /// by self time, with the traced step wall time the `wall_phase` layers
  /// should add up to.
  bool write_summary(const std::string& path, const char* wall_phase,
                     double wall_ns) const;

  size_t kept_spans() const { return spans_.size(); }

 private:
  struct Open {
    const char* name;
    const char* phase;
    int64_t start_ns;
    double child_ns;
    int64_t kept;  // index in spans_, or -1 when past the cap
  };

  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::pair<std::string, std::string>, LayerTotals> totals_;
  size_t max_kept_;
  int64_t dropped_ = 0;
  int64_t step_ = -1;
  const char* phase_ = "run";
  int64_t origin_ns_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) t_->begin(name);
  }
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
