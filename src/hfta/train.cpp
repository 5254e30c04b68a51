#include "hfta/train.h"

#include <atomic>

#include "core/check.h"
#include "core/parallel.h"
#include "core/vec.h"

namespace hfta {

namespace {

// FNV-1a over the optimizer's *structure*: which parameter impls and
// storages it steps, and their sizes. Learning-rate values are deliberately
// excluded — schedulers flow through replay (the real optimizer step runs
// each iteration); structural changes (Hyperband repack builds a new array
// and optimizer, fuse-mask/B changes re-register params) change the
// fingerprint and force recapture.
uint64_t fnv_mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t fnv_var(uint64_t h, const ag::Variable& v) {
  h = fnv_mix(h, reinterpret_cast<uint64_t>(v.id()));
  h = fnv_mix(h, reinterpret_cast<uint64_t>(v.value().data()));
  h = fnv_mix(h, static_cast<uint64_t>(v.numel()));
  return h;
}

uint64_t fingerprint(const fused::FusedOptimizer& opt) {
  uint64_t h = 1469598103934665603ull;
  h = fnv_mix(h, static_cast<uint64_t>(opt.array_size()));
  h = fnv_mix(h, opt.fused_params().size());
  for (const fused::FusedParam& p : opt.fused_params()) h = fnv_var(h, p.var);
  return h;
}

}  // namespace

void TrainStep::finish_stats(const IterationScope& scope) {
  const IterationScope::Stats s = scope.stats();
  stats_.last_heap_allocs = s.heap_allocs;
  stats_.last_pool_hits = s.pool_hits;
  stats_.last_node_constructions = s.node_constructions;
}

template <typename ZeroFn, typename StepFn>
ag::Variable TrainStep::run_impl(const ZeroFn& zero, const StepFn& step,
                                 const LossFn& loss_fn, bool autocast,
                                 Tensor seed) {
  IterationScope scope;
  zero();
  ag::Variable loss;
  {
    // kF32 pins autocast OFF for fp32 steps, regardless of ambient guards.
    ag::AutocastGuard guard(autocast ? amp_dtype_ : DType::kF32);
    loss = loss_fn();
  }
  engine_.run(loss, std::move(seed));
  step();
  ++stats_.steps;
  stats_.last_was_replay = false;
  finish_stats(scope);
  return loss;
}

ag::Variable TrainStep::run_cached(fused::FusedOptimizer& opt,
                                   const LossFn& loss_fn) {
  ProgramSlot& slot = programs_[static_cast<const void*>(&opt)];
  uint64_t fp = fingerprint(opt);
  if (amp_) {
    // Precision is structural: an AMP program's thunks include the recorded
    // casts, so toggling AMP (or changing its dtype) must recapture, not
    // replay a stale-precision graph.
    fp = fnv_mix(fp, 0x9e3779b97f4a7c15ull);
    fp = fnv_mix(fp, static_cast<uint64_t>(amp_dtype_));
  }
  if (slot.fingerprinted && slot.fingerprint != fp) {
    // Same optimizer address, different structure (e.g. a repacked group
    // reusing a slot): the captured graph is stale.
    slot.program.clear();
    slot.eager_runs = 0;
  }
  slot.fingerprint = fp;
  slot.fingerprinted = true;
  slot.last_used = ++use_clock_;

  if (slot.program.captured()) {
    IterationScope scope;
    opt.zero_grad();
    // The tape's seed shares amp_seed_'s storage; refreshing it in place
    // is how a scale change reaches every cached program without
    // recapture.
    if (amp_) refresh_amp_seed();
    slot.program.replay();
    amp_step(opt);
    ++stats_.steps;
    ++stats_.replays;
    finish_stats(scope);
    stats_.last_was_replay = true;
    return slot.program.loss();
  }

  if (slot.eager_runs < kCaptureWarmup) {
    ++slot.eager_runs;
    return run_impl([&] { opt.zero_grad(); }, [&] { amp_step(opt); }, loss_fn,
                    amp_, backward_seed());
  }

  // Capture run: a full training step (eager kernels, the real backward)
  // recorded along the way. Only the forward/loss build runs under the
  // guards; finish_capture freezes the backward it then executes.
  IterationScope scope;
  opt.zero_grad();
  ag::Variable loss;
  {
    ag::StepProgram::CaptureGuard guard(slot.program);
    ag::AutocastGuard amp_guard(amp_ ? amp_dtype_ : DType::kF32);
    loss = loss_fn();
  }
  slot.program.finish_capture(engine_, loss, backward_seed());
  amp_step(opt);
  ++stats_.steps;
  ++stats_.captures;
  stats_.last_was_replay = false;
  finish_stats(scope);
  evict_lru();
  return loss;
}

void TrainStep::enable_capture() { capture_ = true; }

void TrainStep::stage(Tensor* dst, const Tensor& src) {
  HFTA_CHECK(dst != nullptr, "stage: null destination");
  if (!dst->defined()) {
    // First stage: no program can have captured this tensor yet.
    *dst = src.clone();
    return;
  }
  if (dst->shape() == src.shape()) {
    dst->copy_(src);
    return;
  }
  // Shape change: captured graphs read the old buffer — recapture all.
  *dst = src.clone();
  invalidate_programs();
}

void TrainStep::invalidate_programs() { programs_.clear(); }

void TrainStep::drop_program(const void* opt_key) { programs_.erase(opt_key); }

void TrainStep::evict_lru() {
  // Bounds pinned-buffer memory when many optimizers share one TrainStep.
  constexpr size_t kMaxPrograms = 32;
  while (programs_.size() > kMaxPrograms) {
    auto oldest = programs_.begin();
    for (auto it = programs_.begin(); it != programs_.end(); ++it)
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    programs_.erase(oldest);
  }
}

void TrainStep::enable_amp(const AmpOptions& opts) {
  HFTA_CHECK(opts.dtype != DType::kF32,
             "enable_amp: dtype must be f16 or bf16");
  amp_ = true;
  amp_dtype_ = opts.dtype;
  scaler_ = fused::LossScaler(opts.scaler);
}

void TrainStep::refresh_amp_seed() {
  // The scale only moves on overflow or growth-interval events, so most
  // steps the seed already holds the right value and the fill is skipped.
  const float s = static_cast<float>(scaler_.scale());
  if (amp_seed_.defined() && amp_seed_value_ == s) return;
  if (!amp_seed_.defined()) amp_seed_ = Tensor::empty({});
  amp_seed_.fill_(s);
  amp_seed_value_ = s;
}

Tensor TrainStep::backward_seed() {
  if (!amp_) return Tensor();
  refresh_amp_seed();
  return amp_seed_;
}

namespace {

// Read-only finiteness scan of one gradient: the same 1/S multiply the old
// in-place unscale performed, but only the verdict survives (the buffer is
// untouched — zero_grad wipes it next iteration anyway). The verdict is an
// OR over elements, so neither the partition nor the lane schedule can
// change it.
bool grad_finite_scaled(const Tensor& grad, float inv) {
  const float* p = grad.data();
  const int64_t n = grad.numel();
  std::atomic<bool> found_inf{false};
  parallel_for(Partition::elems(n), [&](int64_t lo, int64_t hi) {
    if (!vec::finite_scaled(p + lo, inv, hi - lo))
      found_inf.store(true, std::memory_order_relaxed);
  });
  return !found_inf.load(std::memory_order_relaxed);
}

}  // namespace

bool TrainStep::grads_finite(fused::FusedOptimizer& opt, double inv_scale) {
  const float inv = static_cast<float>(inv_scale);
  bool finite = true;
  for (const fused::FusedParam& p : opt.fused_params()) {
    ag::Variable v = p.var;  // shared impl — grad() is the live gradient
    finite &= grad_finite_scaled(v.grad(), inv);
  }
  return finite;
}

void TrainStep::amp_step(fused::FusedOptimizer& opt) {
  if (!amp_) {
    opt.step();
    return;
  }
  // Scan every gradient (no short-circuit: the scan is the only pass that
  // touches them, and a consistent verdict costs one read). When clean, the
  // optimizer folds 1/S into its gradient reads — same bits as unscaling
  // the buffers first, one fewer memory pass per parameter.
  const double inv = 1.0 / scaler_.scale();
  const bool finite = grads_finite(opt, inv);
  if (finite) {
    opt.step(inv);
  } else {
    ++stats_.amp_overflow_skips;
  }
  scaler_.update(!finite);
}

ag::Variable TrainStep::run(fused::FusedOptimizer& opt,
                            const LossFn& loss_fn) {
  if (capture_) return run_cached(opt, loss_fn);
  return run_impl([&] { opt.zero_grad(); }, [&] { amp_step(opt); }, loss_fn,
                  amp_, backward_seed());
}

std::vector<ag::Variable> TrainStep::run(fused::FusedOptimizer& opt,
                                         const MultiLossFn& loss_fn) {
  HFTA_CHECK(!amp_, "multi-loss run() does not support AMP (each loss would "
             "need its own scale bookkeeping)");
  IterationScope scope;
  opt.zero_grad();
  std::vector<ag::Variable> losses = loss_fn();
  for (const ag::Variable& loss : losses) engine_.run(loss);
  opt.step();
  ++stats_.steps;
  stats_.last_was_replay = false;
  finish_stats(scope);
  return losses;
}

ag::Variable TrainStep::run(nn::Module& model, const LossFn& loss_fn) {
  // Autocast applies (AMP numerics for probes/eval) but the seed does not:
  // with no optimizer step to protect, scaled gradients would just leak.
  return run_impl([&] { model.zero_grad(); }, [] {}, loss_fn, amp_, Tensor());
}

void TrainStep::backward(const ag::Variable& loss, Tensor seed) {
  engine_.run(loss, std::move(seed));
}

template <typename Target>
void TrainLoop::run_loop(int64_t steps, Target& target,
                         const std::function<ag::Variable(int64_t)>& loss_fn) {
  for (int64_t s = 0; s < steps; ++s) {
    ag::Variable loss = step_.run(target, [&] { return loss_fn(s); });
    if (opts_.on_step) opts_.on_step(s, loss);
    const bool epoch_end =
        opts_.steps_per_epoch > 0 && (s + 1) % opts_.steps_per_epoch == 0;
    if (epoch_end) {
      if (opts_.fused_scheduler) opts_.fused_scheduler->step();
      if (opts_.on_epoch_end) opts_.on_epoch_end((s + 1) / opts_.steps_per_epoch - 1);
    }
  }
}

void TrainLoop::run(int64_t steps, fused::FusedOptimizer& opt,
                    const std::function<ag::Variable(int64_t)>& loss_fn) {
  run_loop(steps, opt, loss_fn);
}

void TrainLoop::run(int64_t steps, nn::Module& model,
                    const std::function<ag::Variable(int64_t)>& loss_fn) {
  run_loop(steps, model, loss_fn);
}

}  // namespace hfta
