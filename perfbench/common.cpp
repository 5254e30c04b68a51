#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "autograd/functions.h"
#include "core/op_counters.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"
#include "hfta/fused_norm.h"
#include "hfta/train.h"
#include "tensor/matmul.h"

namespace perfbench {

using namespace hfta;

void Result::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  info.emplace_back(key, buf);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

void CpuWindow::start() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u0_ = tv_s(ru.ru_utime);
  s0_ = tv_s(ru.ru_stime);
  w0_ = now_ns();
}

void CpuWindow::stop() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  user_s_ = tv_s(ru.ru_utime) - u0_;
  sys_s_ = tv_s(ru.ru_stime) - s0_;
  wall_s_ = static_cast<double>(now_ns() - w0_) / 1e9;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Counters Counters::read() {
  const StoragePool::Stats s = StoragePool::instance().stats();
  return {s.heap_allocs, s.pool_hits, counters::node_constructions()};
}

void trim_pool() { StoragePool::instance().trim(); }

std::vector<std::pair<std::string, std::string>> provenance() {
  std::string cpu = "unknown";
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return {
      {"cpu", cpu},
      {"hardware_threads", std::to_string(std::thread::hardware_concurrency())},
      {"lanes", std::to_string(num_threads())},
      {"simd", vec::simd_name()},
      {"compiler", "g++ " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

double probe_launch_us(int64_t rows) {
  const Partition p = Partition::rows(rows);
  std::vector<double> us;
  for (int rep = 0; rep < 41; ++rep) {
    constexpr int kLaunches = 200;
    const int64_t t0 = now_ns();
    for (int i = 0; i < kLaunches; ++i)
      parallel_for(p, [](int64_t, int64_t) {});
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3 / kLaunches);
  }
  return median(us);
}

double probe_gemm_gflops(int64_t m, int64_t n, int64_t k, int64_t count) {
  Rng rng(3);
  const Tensor a = Tensor::randn({count, m, k}, rng);
  const Tensor b = Tensor::randn({count, k, n}, rng);
  Tensor c = Tensor::zeros({count, m, n});
  std::vector<float> scratch(
      static_cast<size_t>(ops::gemm_scratch_floats(m, n, k)));
  const double flops = 2.0 * static_cast<double>(m * n * k * count);
  // Enough calls per sample for ~2 ms of work, so the clock is not the
  // measurement.
  const int calls = static_cast<int>(std::clamp(2e-3 * 2e9 / flops, 1.0, 1e5));
  std::vector<double> gflops;
  for (int rep = 0; rep < 15; ++rep) {
    const int64_t t0 = now_ns();
    for (int call = 0; call < calls; ++call)
      for (int64_t i = 0; i < count; ++i)
        ops::gemm(a.data() + i * m * k, b.data() + i * k * n,
                  c.data() + i * m * n, m, n, k, false, false, 1.f, 0.f,
                  scratch.data());
    gflops.push_back(flops * calls / static_cast<double>(now_ns() - t0));
  }
  return median(gflops);
}

double probe_bn_fwd_bwd_ms(int64_t B, int64_t channels, int64_t N,
                           int64_t L) {
  fused::FusedBatchNorm1d bn(B, channels);
  Rng rng(5);
  const ag::Variable x(Tensor::randn({N, B * channels, L}, rng), true);
  TrainStep step;
  std::vector<double> ms;
  for (int rep = 0; rep < 13; ++rep) {
    const int64_t t0 = now_ns();
    step.run(bn, [&] { return ag::sum_all(bn.forward(x)); });
    if (rep >= 2) ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

}  // namespace perfbench
