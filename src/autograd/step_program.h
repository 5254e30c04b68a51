// Step programs: capture one training iteration's kernel sequence once,
// replay it tape-free thereafter — the compile-plan-once / execute-many
// posture of CUDA Graphs and MIOpen's Fusion API, applied to the fused
// training step.
//
// Eager mode re-records the autograd tape every iteration: a fresh
// ag::Node, closure, and Variable::Impl per differentiable op, plus a
// topological re-sort per backward. The graph is identical step to step —
// training IS the repetition of one step — so a StepProgram records that
// work exactly once:
//
//   - Forward: every differentiable op funnels through make_op
//     (autograd/functions.cpp), which, while a CaptureGuard is active,
//     records a thunk that runs the op's forward kernel into the output
//     tensor the capture run produced. The thunk captures the op's *input
//     tensors by value* — shared storage, so it permanently reads through
//     the buffers the capture run resolved from the StoragePool (buffer
//     pinning) and writes its result in place (a view op such as reshape
//     has nothing to write). Every downstream consumer — including
//     backward closures that captured input/output tensors — then sees
//     fresh values with zero Node or closure construction.
//   - Side effects outside the tape (BatchNorm running-stat updates,
//     dropout mask draws from a module's RNG stream) are recorded via
//     record_side_effect() at their position in the op stream, so replay
//     re-runs them in eager order and RNG streams stay aligned with an
//     eager twin.
//   - Backward: finish_capture() drives the engine once with a
//     BackwardTape sink (autograd/engine.h), freezing the executed node
//     schedule and every gradient buffer for in-place replay.
//
// Replay contract (the CUDA-graphs static-input discipline): the loss
// builder is NOT called again, so all per-step data must be staged in
// place into the tensors the capture run read (TrainStep::stage), and any
// tensor-valued hyper-state must be mutated in place. Per-step *scalar*
// hypers (learning rates) remain live inputs because the optimizer step is
// executed for real around the replayed program, not baked into it.
#pragma once

#include <functional>
#include <vector>

#include "autograd/engine.h"
#include "autograd/variable.h"

namespace hfta::ag {

class StepProgram {
 public:
  /// Activates recording into `p` for the guard's scope (thread-local;
  /// nesting restores the previous recorder). Entering a guard clears any
  /// prior capture in `p`.
  class CaptureGuard {
   public:
    explicit CaptureGuard(StepProgram& p);
    ~CaptureGuard();
    CaptureGuard(const CaptureGuard&) = delete;
    CaptureGuard& operator=(const CaptureGuard&) = delete;

   private:
    StepProgram* prev_;
  };

  /// The program currently recording on this thread (null outside any
  /// CaptureGuard). make_op and side-effect hooks consult this.
  static StepProgram* recording();

  /// Appends one slot — an op's forward thunk or a non-tape side effect —
  /// at its position in the op stream.
  void record(std::function<void()> slot);

  /// Freezes the backward half: runs `engine` from `root` with a capture
  /// sink (this IS the step's real backward pass, not an extra one).
  void finish_capture(Engine& engine, const Variable& root,
                      Tensor seed = Tensor());

  bool captured() const { return captured_; }
  /// Re-executes the captured step: every slot in recorded order, then the
  /// backward tape. Zero Node constructions, zero closure constructions,
  /// zero topo sorts.
  void replay();
  /// The captured loss variable; its pinned value is refreshed by every
  /// replay().
  const Variable& loss() const { return tape_.root; }

  void clear();

 private:
  std::vector<std::function<void()>> slots_;
  BackwardTape tape_;
  bool captured_ = false;
};

/// Records `effect` into the program recording on this thread, if any.
/// Modules with non-tape per-step state (dropout masks, batch-norm running
/// stats) call this; outside a CaptureGuard it builds no std::function.
template <typename F>
void record_side_effect(const F& effect) {
  if (StepProgram* p = StepProgram::recording()) p->record(effect);
}

}  // namespace hfta::ag
