#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer(size_t max_kept_spans)
    : max_kept_(max_kept_spans), origin_ns_(now_ns()) {
  spans_.reserve(max_kept_spans);
  stack_.reserve(16);
}

void Tracer::begin(const char* name) {
  const int64_t t = now_ns();
  int64_t kept = -1;
  if (spans_.size() < max_kept_) {
    kept = static_cast<int64_t>(spans_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().kept;
    spans_.push_back(Span{name, phase_, t, t, parent, step_});
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, phase_, t, 0.0, kept});
}

void Tracer::end() {
  const int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(t - o.start_ns);
  const double self = dur - o.child_ns;
  LayerTotals& lt = totals_[{o.phase, o.name}];
  ++lt.calls;
  lt.total_ns += dur;
  lt.self_ns += self;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.kept >= 0) spans_[static_cast<size_t>(o.kept)].end_ns = t;
}

LayerTotals Tracer::totals_of(const std::string& phase,
                              const std::string& name) const {
  auto it = totals_.find({phase, name});
  return it == totals_.end() ? LayerTotals{} : it->second;
}

double Tracer::phase_self_ns(const std::string& phase) const {
  double sum = 0;
  for (const auto& [key, t] : totals_)
    if (key.first == phase) sum += t.self_ns;
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, "
                 "\"step\": %lld}}%s\n",
                 s.name, s.phase,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.step),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool Tracer::write_summary(const std::string& path, const char* wall_phase,
                           double wall_ns) const {
  std::map<std::string, std::vector<std::pair<std::string, LayerTotals>>>
      phases;
  for (const auto& [key, t] : totals_)
    phases[key.first].emplace_back(key.second, t);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"wall_phase\": \"%s\", \"traced_step_wall_ms\": %.6f, "
               "\"kept_spans\": %zu, \"dropped_spans\": %lld, \"phases\": {",
               wall_phase, wall_ns / 1e6, spans_.size(),
               static_cast<long long>(dropped_));
  size_t pi = 0;
  for (auto& [phase, rows] : phases) {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    double self_sum = 0;
    for (const auto& r : rows) self_sum += r.second.self_ns;
    std::fprintf(f, "%s\n \"%s\": {\"self_sum_ms\": %.6f, \"layers\": [\n",
                 pi++ ? "," : "", phase.c_str(), self_sum / 1e6);
    for (size_t i = 0; i < rows.size(); ++i) {
      const LayerTotals& t = rows[i].second;
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"calls\": %lld, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f, \"self_share\": %.6f}%s\n",
                   rows[i].first.c_str(), static_cast<long long>(t.calls),
                   t.total_ns / 1e6, t.self_ns / 1e6,
                   self_sum > 0 ? t.self_ns / self_sum : 0.0,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, " ]}");
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
