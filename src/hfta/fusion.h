// The fusion planner: compiles B per-model nn::Module graphs into one
// horizontally fused array model (the paper's core transformation), plus the
// fusion bookkeeping it builds on — converting between B per-model modules
// and one fused module, and the partial-fusion adapter used by the paper's
// Appendix H.4 study.
//
// A FusionPlan mirrors MIOpen's Fusion API shape: a plan object validates
// that the B module trees are structurally congruent (same layer kinds,
// shapes and topology — per-model hyper-parameters like learning rate live
// in the fused optimizer, not the graph), reports unsupported combinations
// as structured diagnostics, and lowers each layer through a per-kind
// registry into the existing Fused* operators, inserting
// to_model_major/to_channel_fused layout conversions automatically at
// family boundaries (DESIGN.md §2). Partial fusion is a plan option
// (FusionOptions::fuse_mask) rather than bespoke per-model wiring.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "hfta/fused_ops.h"

namespace hfta::fused {

/// Runs B unfused replicas of a module on the channel-fused layout:
/// splits [N, B*C, ...] into per-model chunks, forwards each through its own
/// module, re-concatenates. This is what "fusion off for this block" means
/// in the partial-fusion study: the math is unchanged but the operator-level
/// fusion (and its efficiency) is gone.
///
/// The adapter OWNS its replicas: each donor passed to the constructor is
/// deep-copied via Module::clone(), so neither load_model nor training ever
/// writes through to the donor modules. Stateless kinds without clone
/// support (no parameters, no buffers) are shared as-is — there is no
/// storage to write through; a stateful kind without clone support is
/// rejected.
class UnfusedBlockAdapter : public FusedModule {
 public:
  UnfusedBlockAdapter(int64_t B, std::vector<std::shared_ptr<nn::Module>> mods);
  ag::Variable forward(const ag::Variable& x) override;

  const std::vector<std::shared_ptr<nn::Module>>& replicas() const {
    return mods_;
  }

 private:
  std::vector<std::shared_ptr<nn::Module>> mods_;
};

/// Fuses B per-model parameter tensors into the dim-0-block layout.
Tensor fuse_blocks(const std::vector<Tensor>& per_model);
/// Splits a dim-0-block fused tensor into B per-model tensors of `shape`.
std::vector<Tensor> unfuse_blocks(const Tensor& fused, int64_t B, Shape shape);

// ---- planner ---------------------------------------------------------------

/// The two fused data layouts of DESIGN.md §2. kAny marks layout-agnostic
/// (elementwise) steps that run in whatever layout the data is in.
enum class Layout { kChannelFused, kModelMajor, kAny };
const char* layout_name(Layout l);

/// One structured planner diagnostic, in the spirit of MIOpen's
/// fusion-compile errors: which layer, which model, why.
struct FusionDiagnostic {
  std::string path;        // dotted module path; "" = the root
  int64_t model_index = -1;  // offending replica; -1 = structural/all
  std::string reason;

  std::string str() const;
};

class FusionError : public std::runtime_error {
 public:
  explicit FusionError(FusionDiagnostic d);
  FusionDiagnostic diagnostic;
};

/// Everything a lowering rule may need: the array size, the B congruent
/// per-model replicas (replicas[0] is the reference), an Rng for parameter
/// allocation, and the path for diagnostics.
struct LoweringContext {
  int64_t array_size = 1;
  std::vector<const nn::Module*> replicas;
  Rng* rng = nullptr;
  std::string path;

  const nn::Module& reference() const { return *replicas[0]; }
};

/// Result of lowering one per-model layer: the fused module and the layout
/// family it runs in. State transfer is NOT part of this contract any more:
/// the planner derives bidirectional load/store (and state-congruence
/// checking) from the module's StateMap schema (FusedModule::state_map),
/// so a registration cannot ship a loader while silently lacking store
/// support — every stateful lowering is validated against the per-model
/// reference layer at compile time.
struct Lowered {
  std::shared_ptr<nn::Module> module;
  Layout in = Layout::kAny;
  Layout out = Layout::kAny;
};

using LoweringFn = std::function<Lowered(const LoweringContext&)>;

/// Per-kind deep-copy factory: builds an independently owned, structurally
/// congruent copy of `src` (same weights/buffers). Module::clone() falls
/// back to these for composite kinds without a clone() override.
using CloneFactory =
    std::function<std::shared_ptr<nn::Module>(const nn::Module& src)>;

/// Per-layer-kind lowering rules. Built-in nn:: leaves are pre-registered;
/// composite model blocks (e.g. "models::BasicBlock") register themselves so
/// the planner can lower user-defined stacks without bespoke fused models.
/// Also hosts the per-kind clone factories that back Module::clone() for
/// registered composite kinds (the planner needs clones whenever a unit
/// runs unfused).
class LoweringRegistry {
 public:
  static LoweringRegistry& instance();

  void add(const std::string& kind_name, LoweringFn fn);
  const LoweringFn* find(const std::string& kind_name) const;
  std::vector<std::string> supported_kinds() const;

  void add_clone_factory(const std::string& kind_name, CloneFactory fn);
  const CloneFactory* find_clone_factory(const std::string& kind_name) const;

 private:
  LoweringRegistry();
  std::map<std::string, LoweringFn> rules_;
  std::map<std::string, CloneFactory> clone_factories_;
};

/// Registers `fn` (and optionally the kind's clone factory) at static-init
/// time (file-scope object in the .cpp that defines the fused counterpart).
struct LoweringRegistrar {
  LoweringRegistrar(const std::string& kind_name, LoweringFn fn) {
    LoweringRegistry::instance().add(kind_name, std::move(fn));
  }
  LoweringRegistrar(const std::string& kind_name, LoweringFn fn,
                    CloneFactory clone_fn) {
    LoweringRegistry::instance().add(kind_name, std::move(fn));
    LoweringRegistry::instance().add_clone_factory(kind_name,
                                                   std::move(clone_fn));
  }
};

struct FusionOptions {
  /// Per top-level fusion unit (the children of the root Sequential, or the
  /// single root otherwise): true = operator-fused, false = B per-model
  /// replicas behind an UnfusedBlockAdapter (Appendix H.4). Empty = all
  /// fused. Unfused units own Module::clone() copies of the donors'
  /// submodules, so the array never shares parameter/buffer storage with
  /// the donor models (stateful kinds must be clonable; see
  /// UnfusedBlockAdapter).
  std::vector<bool> fuse_mask;
  /// Layout the array's output is converted to (kAny = leave as produced).
  Layout output_layout = Layout::kAny;
  /// When true, units with no registered lowering fall back to an
  /// UnfusedBlockAdapter instead of failing the compile.
  bool allow_unfused_fallback = false;
};

/// A compiled fused array: the lowered steps of B per-model graphs, with
/// layout conversions inserted automatically between the channel-fused
/// (conv/BN/pool) and model-major (linear/LayerNorm) families. Input is
/// channel-fused [N, B*C, ...] (pack_channel_fused).
class FusedArray : public FusedModule {
 public:
  struct Step {
    std::shared_ptr<nn::Module> module;
    Layout in = Layout::kAny;
    Layout out = Layout::kAny;
    std::string path;  // dotted path into the per-model tree
    std::string kind;  // the per-model layer kind this step lowers
    /// Schema of the step's per-model state, derived once at lowering time
    /// and validated against the per-model reference layer; load_model and
    /// store_model both walk it (empty = stateless step). Unfused adapter
    /// steps transfer via nn::copy_state on their owned replicas instead.
    StateMap state;
    bool fused = true;
    int64_t unit = 0;  // top-level fusion-unit index
  };

  ag::Variable forward(const ag::Variable& x) override;

  /// Copies model b's parameters from a per-model tree congruent with the
  /// compiled one (the planner walks the same paths it lowered). Always
  /// copies INTO the array — unfused units own cloned replicas, so neither
  /// this nor training ever mutates the compile-time donors.
  void load_model(int64_t b, const nn::Module& per_model_root);

  /// The inverse of load_model: extracts model b's parameters and buffers
  /// out of the array into a congruent per-model tree, walking the same
  /// per-step paths — fused slices and unfused owned replicas alike. Store
  /// support is universal: it is derived from each step's StateMap, so
  /// every kind that loads also stores.
  /// Scope: parameters and buffers only. Private rng stream positions of
  /// stateless-random steps (FusedDropout draws ONE stream over the fused
  /// tensor, not the B per-model streams) are neither extracted nor part of
  /// the fused/serial equivalence contract to begin with; a repacked array
  /// restarts those streams.
  void store_model(int64_t b, nn::Module& per_model_root) const;
  /// Former name of store_model, still called by the benchmark harness
  /// (perfbench/steady.cpp); remove together with that call.
  void save_model(int64_t b, nn::Module& per_model_root) const {
    store_model(b, per_model_root);
  }

  const std::vector<Step>& steps() const { return steps_; }
  /// Number of top-level fusion units (granularity of fuse_mask).
  int64_t num_units() const { return num_units_; }
  /// Whether top-level unit u is operator-fused.
  bool unit_fused(int64_t u) const;
  Layout output_layout() const;
  /// Human-readable plan: one line per step with layouts and fusion state.
  std::string describe() const;

 private:
  friend class FusionPlan;
  FusedArray(int64_t B, FusionOptions opts);

  std::vector<Step> steps_;
  FusionOptions opts_;
  int64_t num_units_ = 0;
};

/// The compiler from B per-model module graphs to a FusedArray.
class FusionPlan {
 public:
  explicit FusionPlan(int64_t array_size, FusionOptions opts = {});

  /// Structural congruence check only — returns every diagnostic (empty =
  /// the models are fusible as far as topology and configs go).
  std::vector<FusionDiagnostic> analyze(
      const std::vector<const nn::Module*>& models) const;

  /// Verifies congruence, lowers every layer through the registry, loads
  /// all B models' weights, and returns the fused array. Every unit —
  /// fused, masked-off, or fallback — gets its own copy of the weights;
  /// the donor modules are never aliased or mutated. Throws FusionError
  /// (with a structured diagnostic) on the first unsupported combination.
  std::shared_ptr<FusedArray> compile(
      const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng) const;

  /// Structure-only compile: lowers ONE per-model graph as the structural
  /// template of all B replicas and skips weight loading entirely — fused
  /// units keep the lowering's own (rng) initialization, unfused units get
  /// B clones of the template. Use when the caller loads real weights via
  /// load_model afterwards anyway (as the Fused* model wrappers do): it
  /// avoids constructing B donor models just to immediately overwrite the
  /// array with their weights, roughly halving construction cost at paper
  /// scale (B=30).
  std::shared_ptr<FusedArray> compile_structure_only(
      const std::shared_ptr<nn::Module>& template_model, Rng& rng) const;

  /// Repacks survivors drawn from SEVERAL live arrays into one fresh array
  /// of this plan's size: model j of the result is model picks[j].model of
  /// sources[picks[j].source], extracted via store_model into clones of
  /// `template_model` and recompiled. Weights and buffers (BN running stats
  /// included) carry over exactly, so the survivors continue training
  /// bit-exactly as if they had always shared one array (optimizer state
  /// gathers separately via FusedOptimizer::repack_state_from with the same
  /// picks). This is Hyperband's successive-halving step when a rung was
  /// larger than the device cap and had to be chunked across arrays (paper
  /// Appendix E at bracket scale).
  std::shared_ptr<FusedArray> repack_multi(
      const std::vector<const FusedArray*>& sources,
      const std::vector<RepackPick>& picks, const nn::Module& template_model,
      Rng& rng) const;

  int64_t array_size() const { return array_size_; }
  const FusionOptions& options() const { return opts_; }

 private:
  std::shared_ptr<FusedArray> compile_impl(
      const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng,
      bool load_weights) const;

  int64_t array_size_;
  FusionOptions opts_;
};

// ---- planner-support fused modules ----------------------------------------

/// Fused Flatten: [B, N, d1, ...] -> [B, N, d1*...] on the model-major
/// layout (the per-model op is [N, d...] -> [N, prod]).
class FusedFlatten : public FusedModule {
 public:
  explicit FusedFlatten(int64_t B) : FusedModule(B) {}
  ag::Variable forward(const ag::Variable& x) override;
};

}  // namespace hfta::fused
