// hfht_pointnet_hb: a real Hyperband(R=8, eta=2) tuning run over
// PointNet-tiny on FusedTrainingExecutor (dataset 64, eval 16, arrays of at
// most 3 trials, feature_transform pinned to 0, batch sizes free, fp32,
// 1 lane). Unlike the steady loops, programs are captured, dropped and
// recaptured per group, and the planner compiles and repacks arrays.
//
// The timed window runs groups of tuning runs, one with max_array_size=3
// (fused) and one with max_array_size=1 (every trial alone, i.e. serial),
// interleaving their rounds and rotating which goes first every round. All
// train the same trials on the same data, so they propose the same rounds
// and their best scores must be bitwise equal. An untimed
// verify_against_serial run closes the audit: its fused-vs-serial loss
// diff must be 0 and its best score must repeat the timed runs' exactly.
//
// --seed picks the order in which each round's trials reach the executor,
// and so which trials share an array. Data, weight init and the Hyperband
// schedule are fixed. HFTA's premise is that the models of an array are
// independent, so no trial's score may depend on its array-mates: the best
// score must be the same, bit for bit, for every seed, and the work of a
// run (arrays and steps per partition) does not change with the seed.
#include <algorithm>
#include <map>
#include <memory>

#include "common.h"
#include "core/parallel.h"
#include "hfht/algorithms.h"
#include "hfht/executor.h"
#include "hfta/fusion.h"
#include "models/pointnet.h"
#include "sim/device.h"

namespace perfbench {
namespace {

using namespace hfta;
using namespace hfta::hfht;

constexpr int64_t kR = 8, kEta = 2, kDataset = 64, kEval = 16, kMaxArray = 3;
constexpr uint64_t kHyperbandSeed = 17, kExecutorSeed = 0x5EED;
constexpr int kSetupReps = 9;

SearchSpace bench_space() {
  SearchSpace s = SearchSpace::pointnet();
  s.params[s.index_of("feature_transform")].choices = {0};
  return s;
}

FusedTrainingExecutor::Options executor_options(int64_t max_array,
                                                bool verify) {
  FusedTrainingExecutor::Options o;
  o.dataset_size = kDataset;
  o.eval_size = kEval;
  o.max_array_size = max_array;
  o.seed = kExecutorSeed;
  o.verify_against_serial = verify;
  return o;
}

struct TuningStats {
  double seconds = 0;  // sum of this run's round times
  double samples = 0;
  std::vector<double> round_s, step_ms;
  Counters counts;
  int64_t rounds = 0, steps = 0;
  int64_t compiled = 0, repacked = 0, multi_source = 0;
  int64_t captures = 0, replays = 0;
  double best = 0, verify_diff = 0;
};

/// One tuning run driven round by round with Algorithm 1's loop (propose,
/// run on the executor, update), so two runs can alternate rounds. The
/// executor gets each round's trials in a seed-shuffled order. Each
/// round gets a span, a wall time, its fused steps (from the executor's
/// TrainStep), and the samples its trials train on: epochs beyond what
/// each trial already had, times a drop-last epoch at its batch size.
class Tuning {
 public:
  Tuning(uint64_t seed, int64_t max_array, bool verify, Tracer* t)
      : space_(bench_space()),
        exec_(Task::kPointNet, sim::v100(),
              executor_options(max_array, verify)),
        hb_(space_, kR, kEta, /*skip_last=*/0, kHyperbandSeed),
        order_rng_(seed),
        tracer_(t) {}

  /// Runs the next round; false once the algorithm has finished.
  bool round() {
    const int64_t t0 = now_ns();
    const std::vector<Trial> batch = hb_.propose();
    if (batch.empty()) return false;
    ScopedSpan s(tracer_, "hfht.round");
    std::vector<size_t> order(batch.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<size_t>(order_rng_.uniform_int(
                                  static_cast<int64_t>(i)))]);
    std::vector<Trial> shuffled;
    for (size_t i : order) shuffled.push_back(batch[i]);
    const Counters c0 = Counters::read();
    const int64_t steps0 = exec_.train_step().stats().steps;
    const ExecutionReport rep = exec_.run(shuffled);
    std::vector<double> scores(batch.size());
    for (size_t i = 0; i < order.size(); ++i) scores[order[i]] = rep.scores[i];
    hb_.update(batch, scores);
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    st_.seconds += dt;
    st_.round_s.push_back(dt);
    st_.counts += Counters::read() - c0;
    const int64_t steps = exec_.train_step().stats().steps - steps0;
    if (steps > 0) st_.step_ms.push_back(dt * 1e3 / static_cast<double>(steps));
    for (const Trial& tr : batch) {
      int64_t& done = epochs_[tr.params];
      const int64_t bs =
          static_cast<int64_t>(space_.get(tr.params, "batch_size"));
      if (tr.epochs > done)
        st_.samples +=
            static_cast<double>((tr.epochs - done) * (kDataset / bs) * bs);
      done = std::max(done, tr.epochs);
    }
    return true;
  }

  TuningStats stats() const {
    TuningStats s = st_;
    const TrainStep::Stats& ts = exec_.train_step().stats();
    s.rounds = static_cast<int64_t>(s.round_s.size());
    s.steps = ts.steps;
    s.captures = ts.captures;
    s.replays = ts.replays;
    s.compiled = exec_.arrays_compiled();
    s.repacked = exec_.arrays_repacked();
    s.multi_source = exec_.multi_source_repacks();
    s.best = hb_.best_accuracy();
    s.verify_diff = exec_.max_fused_vs_serial_diff();
    return s;
  }

 private:
  SearchSpace space_;
  FusedTrainingExecutor exec_;
  Hyperband hb_;
  Rng order_rng_;
  Tracer* tracer_;
  TuningStats st_;
  std::map<ParamSet, int64_t> epochs_;
};

/// Runs tuning runs to the end, one round of each in turn, rotating which
/// goes first every round, so host drift hits all of them alike.
void run_interleaved(const std::vector<Tuning*>& runs) {
  const size_t n = runs.size();
  for (size_t r = 0;; ++r) {
    bool more = false;
    for (size_t i = 0; i < n; ++i) more = runs[(r + i) % n]->round() || more;
    if (!more) return;
  }
}

/// Bracket time with every round at its fastest across `runs`. The runs
/// train the same rounds, and other load on the host only ever adds time to
/// a round, so the fastest copy of each round is the code's own cost; their
/// sum is steadier from run to run than any one run's total.
double best_of_rounds_s(const std::vector<TuningStats>& runs) {
  std::vector<double> best = runs.front().round_s;
  for (const TuningStats& r : runs)
    for (size_t i = 0; i < best.size() && i < r.round_s.size(); ++i)
      best[i] = std::min(best[i], r.round_s[i]);
  double sum = 0;
  for (double s : best) sum += s;
  return sum;
}

/// Planner compile + load of one PointNet-tiny array of kMaxArray trials,
/// the unit of work the executor repeats per group; returns ms.
double compile_probe_ms(Tracer* t) {
  models::PointNetConfig cfg = models::PointNetConfig::tiny();
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(11);
    std::vector<std::shared_ptr<nn::Module>> nets;
    for (int64_t b = 0; b < kMaxArray; ++b)
      nets.push_back(std::make_shared<models::PointNetCls>(cfg, rng)->net);
    const int64_t t0 = now_ns();
    ScopedSpan s(t, "fusion.compile");
    fused::FusionOptions fo;
    fo.output_layout = fused::Layout::kModelMajor;
    auto array = fused::FusionPlan(kMaxArray, fo).compile(nets, rng);
    for (int64_t b = 0; b < kMaxArray; ++b)
      array->load_model(b, *nets[static_cast<size_t>(b)]);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

}  // namespace

Result run_hfht_pointnet_hb(const Options& opts) {
  set_num_threads(1);
  Result res;
  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>(20000);
  Tracer* const t = tracer.get();

  // Timed window: groups of tuning runs whose rounds interleave: fused
  // (max_array_size=3) and serial (max_array_size=1), plus, in the traced
  // run, a traced fused run (its time against the untraced fused run's is
  // the tracing overhead).
  std::vector<TuningStats> fused_runs, serial_runs, traced_runs;
  std::vector<double> ratios, traced_ratios;
  if (t != nullptr) t->set_phase("tuning_runs");
  CpuWindow cpu;
  cpu.start();
  // At least two groups; no group that would end past the window.
  const int64_t deadline = now_ns() + static_cast<int64_t>(opts.seconds * 1e9);
  int64_t group_ns = 0;
  do {
    const int64_t g0 = now_ns();
    Tuning fused_run(opts.seed, kMaxArray, false, nullptr);
    Tuning serial_run(opts.seed, 1, false, nullptr);
    std::vector<Tuning*> runs = {&fused_run, &serial_run};
    std::unique_ptr<Tuning> traced_run;
    if (t != nullptr) {
      traced_run = std::make_unique<Tuning>(opts.seed, kMaxArray, false, t);
      runs.push_back(traced_run.get());
    }
    run_interleaved(runs);
    fused_runs.push_back(fused_run.stats());
    serial_runs.push_back(serial_run.stats());
    ratios.push_back(serial_runs.back().seconds / fused_runs.back().seconds);
    if (traced_run != nullptr) {
      traced_runs.push_back(traced_run->stats());
      traced_ratios.push_back(traced_runs.back().seconds /
                              fused_runs.back().seconds);
    }
    group_ns = now_ns() - g0;
  } while (fused_runs.size() < 2 || now_ns() + group_ns <= deadline);
  cpu.stop();
  const double peak_mb = peak_rss_mb();  // the workload's, not the audit's
  const double cached_mb =
      static_cast<double>(StoragePool::instance().stats().cached_bytes) /
      (1024.0 * 1024.0);

  // Set-up, repeated from a trimmed pool after the window (away from the
  // start of the process): constructing the executor (dataset, held-out
  // batch) and the algorithm, then the first round, in which the planner
  // compiles and loads the first arrays and the executor captures their
  // programs. run() trains inside the library, so the end of the first
  // round is the nearest boundary after the first trained step the
  // benchmark can observe. setup_s is the median.
  std::vector<double> setup_s;
  if (t != nullptr) t->set_phase("setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    trim_pool();
    const int64_t t0 = now_ns();
    ScopedSpan s(t, "setup");
    Tuning first(opts.seed, kMaxArray, false, nullptr);
    first.round();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Audit: every run found the same best score, bit for bit, and the
  // verify run trains every trial serially too and must match exactly.
  Tuning verify_run(opts.seed, kMaxArray, true, nullptr);
  while (verify_run.round()) {
  }
  const TuningStats verify = verify_run.stats();
  const double best = fused_runs.front().best;
  res.attempted = verify.steps + 1;
  for (const auto* runs : {&fused_runs, &serial_runs, &traced_runs})
    for (const TuningStats& r : *runs) {
      res.attempted += r.steps;
      if (r.best != best) res.fail("best score differs between tuning runs");
    }
  if (verify.best != best)
    res.fail("verify run's best score differs from the timed runs'");
  if (verify.verify_diff != 0.0)
    res.fail("fused-vs-serial loss diff is not 0 in the verify run");

  std::vector<double> round_s, step_ms;
  Counters counts;
  int64_t steps = 0;
  for (const TuningStats& r : fused_runs) {
    round_s.insert(round_s.end(), r.round_s.begin(), r.round_s.end());
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
    counts += r.counts;
    steps += r.steps;
  }
  const double fused_s = best_of_rounds_s(fused_runs);
  const TuningStats& f = fused_runs.front();
  const double samples = f.samples;
  res.note("best_score", best);
  res.note("verify_max_diff", verify.verify_diff);
  res.note("groups", static_cast<double>(fused_runs.size()));
  res.note("step_samples", static_cast<double>(step_ms.size()));
  res.note("samples_per_run", samples);
  res.note("steps_per_run", static_cast<double>(f.steps));
  res.note("audit", res.failed == 0 ? "fused == serial bitwise" : "MISMATCH");

  if (t == nullptr) {
    res.add("fusion_speedup", median(ratios), "x");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peak_mb, "MiB");
    return res;
  }

  // ---- per-layer metrics (traced run) ----
  std::vector<double> traced_step_ms;
  double traced_ns = 0;
  for (const TuningStats& r : traced_runs) {
    traced_ns += r.seconds * 1e9;
    traced_step_ms.insert(traced_step_ms.end(), r.step_ms.begin(),
                          r.step_ms.end());
  }
  const double st = static_cast<double>(steps);
  const models::PointNetConfig cfg = models::PointNetConfig::tiny();
  const double flops_per_sample =
      3.0 * 2.0 *
      (static_cast<double>(cfg.num_points) *
           (3.0 * cfg.w1 + cfg.w1 * cfg.w2 + cfg.w2 * cfg.w3) +
       cfg.w3 * cfg.fc1 + cfg.fc1 * cfg.fc2 + cfg.fc2 * cfg.num_classes);
  res.add("array_samples_per_s", samples / fused_s, "1/s");
  res.add("serial_samples_per_s", samples / best_of_rounds_s(serial_runs),
          "1/s");
  res.add("tune_s", fused_s, "s");
  res.add("step_ms_p50", quantile(step_ms, 0.5), "ms");
  res.add("step_ms_p90", quantile(step_ms, 0.9), "ms");
  res.add("parallel.launch_us", probe_launch_us(64), "us");
  res.add("parallel.sys_cpu_frac", cpu.sys_s() / (cpu.user_s() + cpu.sys_s()),
          "fraction");
  res.add("parallel.cpu_util", (cpu.user_s() + cpu.sys_s()) / cpu.wall_s(),
          "fraction");
  res.add("pool.heap_allocs_per_step",
          static_cast<double>(counts.heap_allocs) / st, "count");
  res.add("pool.hits_per_step", static_cast<double>(counts.pool_hits) / st,
          "count");
  res.add("pool.cached_mb", cached_mb, "MiB");
  res.add("autograd.nodes_per_step", static_cast<double>(counts.nodes) / st,
          "count");
  // The executor's steps run inside the library; the benchmark can time
  // them only per round, so these step-internal layers read 0 here.
  for (const char* name :
       {"autograd.backward_ms", "step_program.replay_ms", "train.capture_ms",
        "models.forward_ms", "optim.fused_step_ms", "optim.serial_step_ms"})
    res.add(name, 0.0, "ms");
  res.add("norm.bn_fwd_bwd_ms",
          probe_bn_fwd_bwd_ms(kMaxArray, cfg.w3, 8, cfg.num_points), "ms");
  res.add("vec.gemm_gflops",
          probe_gemm_gflops(cfg.w3, cfg.num_points, cfg.w2, 8 * kMaxArray),
          "GFLOP/s");
  res.add("step.achieved_gflops",
          flops_per_sample * samples / fused_s / 1e9, "GFLOP/s");
  res.add("amp.skip_frac", 0.0, "fraction");
  res.add("amp.final_scale_log2", 0.0, "log2");
  res.add("data.batch_ms", 0.0, "ms");
  t->set_phase("compile_probe");
  res.add("fusion.compile_ms", compile_probe_ms(t), "ms");
  res.add("hfht.round_s_p50", quantile(round_s, 0.5), "s");
  res.add("hfht.round_s_max", *std::max_element(round_s.begin(), round_s.end()),
          "s");
  res.add("hfht.rounds", static_cast<double>(f.rounds), "count");
  res.add("hfht.arrays_compiled", static_cast<double>(f.compiled), "count");
  res.add("hfht.arrays_repacked", static_cast<double>(f.repacked), "count");
  res.add("hfht.multi_source_repacks", static_cast<double>(f.multi_source),
          "count");
  res.add("hfht.captures", static_cast<double>(f.captures), "count");
  res.add("hfht.replays", static_cast<double>(f.replays), "count");
  res.add("trace.step_ms", quantile(traced_step_ms, 0.5), "ms");
  res.add("trace.overhead_frac", median(traced_ratios) - 1.0, "fraction");
  res.add("trace.attributed_frac", t->phase_self_ns("tuning_runs") / traced_ns,
          "fraction");

  res.note("kept_spans", static_cast<double>(t->kept_spans()));
  const std::string stem =
      opts.out_dir + "/hfht_pointnet_hb-seed" + std::to_string(opts.seed);
  if (!t->write_chrome_trace(stem + ".trace.json") ||
      !t->write_summary(stem + ".summary.json", "tuning_runs", traced_ns))
    res.fail("cannot write trace files under " + opts.out_dir);
  res.note("trace_file", stem + ".trace.json");
  return res;
}

}  // namespace perfbench
