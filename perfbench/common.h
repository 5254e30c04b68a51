// Shared pieces of the benchmark: options, the result record, order
// statistics, resource readings (CPU time, peak RSS, pool counters),
// host provenance, and the probes that time one layer in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its trace files
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end set (untraced run)
/// or the per-layer set (traced run); `info` carries sample counts and
/// audit values that explain the metrics but are not gated.
struct Result {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
  /// Records a failed audit (counted in `failed`).
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

Result run_mlp_b8_replay(const Options& opts);
Result run_pointnet_b8_amp(const Options& opts);
Result run_hfht_pointnet_hb(const Options& opts);

// ---- order statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);

// ---- resources --------------------------------------------------------------

/// CPU time and wall time of this process over a window.
class CpuWindow {
 public:
  void start();
  void stop();
  double user_s() const { return user_s_; }
  double sys_s() const { return sys_s_; }
  double wall_s() const { return wall_s_; }

 private:
  double u0_ = 0, s0_ = 0;
  int64_t w0_ = 0;
  double user_s_ = 0, sys_s_ = 0, wall_s_ = 0;
};

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Storage-pool and autograd counters, read together so a window's deltas
/// line up.
struct Counters {
  uint64_t heap_allocs = 0;
  uint64_t pool_hits = 0;
  uint64_t nodes = 0;
  static Counters read();
  Counters operator-(const Counters& o) const {
    return {heap_allocs - o.heap_allocs, pool_hits - o.pool_hits,
            nodes - o.nodes};
  }
  Counters& operator+=(const Counters& o) {
    heap_allocs += o.heap_allocs;
    pool_hits += o.pool_hits;
    nodes += o.nodes;
    return *this;
  }
};

/// Frees the storage pool's cached buffers so the next phase starts cold.
void trim_pool();

/// CPU model, hardware threads, lanes, SIMD backend, compiler, build type
/// and source digest, as (key, value) pairs.
std::vector<std::pair<std::string, std::string>> provenance();

// ---- single-layer probes ----------------------------------------------------

/// Median time of one empty-body parallel_for(Partition::rows(rows)) at the
/// current lane count, in microseconds.
double probe_launch_us(int64_t rows);

/// Packed GEMM throughput at one shape: `count` independent m x n x k
/// products per call (the per-model, per-sample blocks a fused layer runs).
double probe_gemm_gflops(int64_t m, int64_t n, int64_t k, int64_t count);

/// Median forward + backward time of a fused BatchNorm1d over B models of
/// `channels` channels on an [N, B*channels, L] activation, in ms.
double probe_bn_fwd_bwd_ms(int64_t B, int64_t channels, int64_t N,
                           int64_t L);

}  // namespace perfbench
