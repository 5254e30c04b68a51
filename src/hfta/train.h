// The iteration engine's driver layer: one TrainStep/TrainLoop API for
// every training loop in the repo (examples, benches, the HFHT executor).
//
// Every hand-rolled loop here used to repeat the same five lines —
// zero_grad, forward, loss, backward, optimizer step — and every copy paid
// the full per-iteration overhead: a fresh autograd traversal scratch per
// backward and heap-allocated storage for every activation and gradient.
// TrainStep owns the two reusable pieces (an ag::Engine and the pool's
// IterationScope accounting) and drives the canonical sequence; TrainLoop
// adds epoch boundaries, scheduler stepping, and scoring/tracing hooks on
// top. Porting a loop onto TrainStep is what makes pooling + engine reuse
// apply to it — and keeps it bit-exact, because the step order is the same
// five lines it always ran.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "autograd/autocast.h"
#include "autograd/engine.h"
#include "autograd/step_program.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fused_sched.h"
#include "hfta/loss_scaling.h"
#include "nn/module.h"

namespace hfta {

/// Builds one iteration's loss graph (forward + loss, under the caller's
/// data). Runs inside the step's pooled iteration scope.
using LossFn = std::function<ag::Variable()>;
/// Multi-loss variant (e.g. a GAN discriminator's real and fake terms):
/// each loss runs backward, in order, before the single optimizer step.
using MultiLossFn = std::function<std::vector<ag::Variable>()>;

/// One training iteration: zero_grad -> forward/loss -> backward (through
/// the long-lived engine) -> optimizer step, wrapped in an IterationScope
/// so per-step allocation behavior is observable. One TrainStep may drive
/// several models/optimizers (the engine scratch is graph-agnostic);
/// steady-state steps hit the storage pool for every tensor they allocate.
///
/// There is one optimizer interface, fused::FusedOptimizer: a serial run
/// passes an nn::SGD / nn::Adam / nn::Adadelta, which is the B = 1 fused
/// optimizer, so fused and serial steps take the same path.
class TrainStep {
 public:
  struct Stats {
    int64_t steps = 0;               // iterations driven by this TrainStep
    uint64_t last_heap_allocs = 0;   // storage heap allocs in the last step
    uint64_t last_pool_hits = 0;     // pool recycling hits in the last step
    uint64_t last_node_constructions = 0;  // ag::Node builds in the last step
    bool last_was_replay = false;    // last step replayed a step program
    int64_t captures = 0;            // step programs captured so far
    int64_t replays = 0;             // steps served tape-free by replay
    int64_t amp_overflow_skips = 0;  // AMP steps skipped on non-finite grads
  };

  /// One iteration of an array (or, at B = 1, of one serial model): `opt`
  /// is zero_grad'ed and stepped around the loss built by `loss_fn`.
  /// Returns the loss variable (its value is alive; its tape has been
  /// consumed by backward).
  ag::Variable run(fused::FusedOptimizer& opt, const LossFn& loss_fn);

  /// Multi-loss iteration (losses run backward in order, one step).
  std::vector<ag::Variable> run(fused::FusedOptimizer& opt,
                                const MultiLossFn& loss_fn);

  /// Optimizer-free iteration (timing probes, gradient checks): the
  /// model's grads are zeroed instead and no step is taken.
  ag::Variable run(nn::Module& model, const LossFn& loss_fn);

  /// Backward through the reusable engine, for hand-assembled iterations
  /// that cannot use run() (seeded backward, interleaved updates).
  void backward(const ag::Variable& loss, Tensor seed = Tensor());

  // ---- mixed precision (autocast + dynamic loss scaling) ----------------
  //
  // With AMP enabled, the single-loss optimizer run() builds the loss under
  // an AutocastGuard (GEMM/conv-class ops take low-precision inputs and
  // accumulate f32; see autograd/autocast.h) and apply dynamic loss
  // scaling through the backward SEED: seeding backward with the scale S
  // computes d(S*L)/dw without touching the loss value that run() returns.
  // Before the optimizer step, every gradient is scanned READ-ONLY for
  // inf/nan after the 1/S multiply (allocation-free); when all are finite
  // the optimizer folds 1/S into its update via step(grad_scale) — bit-
  // identical to unscaling the buffers first, with one fewer memory pass.
  // A non-finite gradient skips the step and backs the scale off. Scales
  // stay powers of two, so scale/unscale are exact exponent shifts and
  // fused-vs-serial bit-exactness survives.
  //
  // Capture/replay compatible: casts are recorded ops, the captured
  // BackwardTape's seed SHARES the persistent seed tensor's storage (a
  // scale change is an in-place refresh, not a recapture), and the AMP
  // mode + dtype are mixed into each program's fingerprint so toggling
  // precision recaptures. The optimizer-free run(Module&) overload
  // autocasts but does not scale (there is no step to protect); the
  // multi-loss overload rejects AMP.

  struct AmpOptions {
    DType dtype = DType::kBF16;
    fused::LossScaler::Options scaler;
  };

  void enable_amp(const AmpOptions& opts);
  void enable_amp() { enable_amp(AmpOptions()); }
  /// Turns AMP off (cached fp32 programs, fingerprinted separately, stay).
  void disable_amp() { amp_ = false; }
  bool amp_enabled() const { return amp_; }
  DType amp_dtype() const { return amp_dtype_; }
  /// The dynamic scale controller. Persists for the TrainStep's lifetime —
  /// in the HFHT executor that means across Hyperband rungs and repacks.
  fused::LossScaler& scaler() { return scaler_; }
  const fused::LossScaler& scaler() const { return scaler_; }

  // ---- step-program capture & replay ---------------------------------
  //
  // Opt-in (a data-varying loss builder would silently train on stale
  // data): once enabled, the single-loss optimizer overload of run()
  // drive kCaptureWarmup eager steps per optimizer, capture the next step
  // into an ag::StepProgram, and replay it thereafter — no Node construction,
  // no closure allocation, no topo sort, and (warm) no heap allocation.
  //
  // Static-input discipline: during replay the loss builder is NOT
  // called, so per-step data must be staged in place into the tensors the
  // capture run read (see stage()). Per-step scalar hypers (learning
  // rates) stay live — the real optimizer step runs around every replay.
  //
  // Invalidation: each program is fingerprinted over the optimizer's
  // structure (param identities, storages, shapes, array size). A repack,
  // fuse-mask change, or any param re-registration changes the
  // fingerprint and recaptures automatically; stage() with a new shape
  // invalidates every program (batch-size change reshapes the graph).

  /// Eager steps per optimizer before its capture: one, so the pool is warm
  /// before a program pins its buffers.
  static constexpr int64_t kCaptureWarmup = 1;

  /// Enables capture on this TrainStep after kCaptureWarmup eager steps
  /// per optimizer.
  void enable_capture();

  /// Stages per-step data into `*dst` (a tensor the captured graph
  /// reads): same-shape sources are copied in place so replays observe
  /// them; a shape change reassigns the tensor and invalidates all
  /// programs (the graph must be recaptured over the new buffer).
  void stage(Tensor* dst, const Tensor& src);

  /// Drops every cached program (next runs re-warm and recapture).
  void invalidate_programs();
  /// Drops the program cached for one optimizer (pass its address) —
  /// e.g. when a Hyperband group retires and its optimizer is destroyed.
  void drop_program(const void* opt_key);
  int64_t program_count() const {
    return static_cast<int64_t>(programs_.size());
  }

  const Stats& stats() const { return stats_; }

 private:
  struct ProgramSlot {
    uint64_t fingerprint = 0;
    bool fingerprinted = false;
    int64_t eager_runs = 0;  // warmup progress before capture
    int64_t last_used = 0;   // LRU clock value
    ag::StepProgram program;
  };

  template <typename ZeroFn, typename StepFn>
  ag::Variable run_impl(const ZeroFn& zero, const StepFn& step,
                        const LossFn& loss_fn, bool autocast, Tensor seed);
  ag::Variable run_cached(fused::FusedOptimizer& opt, const LossFn& loss_fn);
  void finish_stats(const IterationScope& scope);
  void evict_lru();

  /// Rewrites the persistent scalar seed tensor with the current scale
  /// (in place — captured tapes share its storage).
  void refresh_amp_seed();
  /// The seed for this step's backward: the refreshed scale tensor under
  /// AMP, undefined (seed-with-ones) otherwise.
  Tensor backward_seed();
  /// Read-only scan: true iff every gradient element times inv_scale is
  /// finite (the grads themselves are left scaled — the optimizer applies
  /// 1/S via step(grad_scale)).
  bool grads_finite(fused::FusedOptimizer& opt, double inv_scale);
  /// The optimizer step under the AMP contract: finiteness scan first,
  /// step(1/S) when clean, skip + backoff on overflow, scaler update either
  /// way. Plain opt.step() when AMP is off.
  void amp_step(fused::FusedOptimizer& opt);

  ag::Engine engine_;
  Stats stats_;
  std::unordered_map<const void*, ProgramSlot> programs_;
  bool capture_ = false;
  int64_t use_clock_ = 0;
  bool amp_ = false;
  DType amp_dtype_ = DType::kBF16;
  fused::LossScaler scaler_;
  Tensor amp_seed_;  // persistent scalar; every captured tape shares it
  float amp_seed_value_ = 0.f;  // last value written; skips redundant fills
};

/// Drives a TrainStep over a fixed number of iterations with epoch
/// boundaries, scheduler stepping, and hooks — the loop around the loop.
/// The loss builder receives the step index (for data selection/logging);
/// hooks run after the optimizer step so they observe the updated model.
class TrainLoop {
 public:
  struct Options {
    /// Iterations per epoch; 0 disables epoch boundaries. Schedulers and
    /// on_epoch_end fire after each full epoch.
    int64_t steps_per_epoch = 0;
    fused::FusedLRScheduler* fused_scheduler = nullptr;
    std::function<void(int64_t epoch)> on_epoch_end;
    /// Scoring/tracing hook: (step index, that step's loss).
    std::function<void(int64_t step, const ag::Variable& loss)> on_step;
    /// Capture the step into a replayable program after
    /// TrainStep::kCaptureWarmup eager steps (see TrainStep::enable_capture
    /// and its static-input discipline — the loss builder is not called
    /// during replay).
    bool capture = false;
  };

  TrainLoop() = default;
  // Delegating overload instead of `Options opts = {}`: GCC rejects
  // defaulted {} for nested structs with NSDMI.
  explicit TrainLoop(Options opts) : opts_(std::move(opts)) {
    if (opts_.capture) step_.enable_capture();
  }

  /// Runs `steps` iterations of loss_fn against the optimizer.
  void run(int64_t steps, fused::FusedOptimizer& opt,
           const std::function<ag::Variable(int64_t)>& loss_fn);
  /// Optimizer-free variant (timing probes).
  void run(int64_t steps, nn::Module& model,
           const std::function<ag::Variable(int64_t)>& loss_fn);

  /// The underlying TrainStep (shared engine/stats; also usable directly
  /// for interleaved extra steps, e.g. serial verification twins).
  TrainStep& step() { return step_; }

 private:
  template <typename Target>
  void run_loop(int64_t steps, Target& target,
                const std::function<ag::Variable(int64_t)>& loss_fn);

  Options opts_;
  TrainStep step_;
};

}  // namespace hfta
