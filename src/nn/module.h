// Module base class: owns parameters and child modules, exposes recursive
// parameter collection, train/eval mode, and zero_grad — the PyTorch
// nn.Module contract scaled down to what the paper's models need.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/functions.h"
#include "autograd/variable.h"

namespace hfta::nn {

/// Layer-kind tag exposed by Module::kind(): the reflection surface the
/// fusion planner walks. Leaf layers report their concrete kind; composite
/// user modules stay kCustom and either register a custom lowering under
/// their kind_name() or are run unfused behind an adapter.
enum class LayerKind {
  kCustom,
  kSequential,
  kLinear,
  kConv1d,
  kConv2d,
  kConvTranspose1d,
  kConvTranspose2d,
  kEmbedding,
  kBatchNorm1d,
  kBatchNorm2d,
  kLayerNorm,
  kMaxPool2d,
  kAdaptiveAvgPool2d,
  kDropout,
  kDropout2d,
  kFlatten,
  kGlobalMaxPool1d,
  kReLU,
  kReLU6,
  kLeakyReLU,
  kTanh,
  kSigmoid,
  kHardswish,
  kGELU,
};

const char* layer_kind_name(LayerKind kind);

/// Structural + numeric hyper-parameters of a layer, reported by
/// Module::config(). The fusion planner requires every field to match
/// across the B models of an array (per-model hyper-parameters the paper
/// allows to differ — learning rate, betas, weight decay — live in the
/// fused optimizer, not in the module graph).
struct ModuleConfig {
  std::vector<std::pair<std::string, int64_t>> ints;
  std::vector<std::pair<std::string, double>> floats;
  std::vector<int64_t> dims;  // shape-valued config (LayerNorm)

  void set(std::string name, int64_t v) {
    ints.emplace_back(std::move(name), v);
  }
  void set(std::string name, double v) {
    floats.emplace_back(std::move(name), v);
  }
  int64_t get_int(const std::string& name, int64_t fallback = 0) const;
  double get_float(const std::string& name, double fallback = 0) const;
};

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  /// Single-input forward; models with several inputs expose their own
  /// methods and use Module only for parameter bookkeeping.
  virtual ag::Variable forward(const ag::Variable& x) = 0;
  ag::Variable operator()(const ag::Variable& x) { return forward(x); }

  /// Deep copy: structurally congruent, equal parameter/buffer values,
  /// independently owned storage (mutating the clone never touches the
  /// original, and vice versa). Built-in layers and Sequential override
  /// this; composite kinds registered through the fusion layer's
  /// LoweringRegistrar clone through its per-kind factories. Returns
  /// nullptr when the kind has no clone support.
  virtual std::shared_ptr<Module> clone() const;

  /// Hook consulted by the default clone() for kinds without an override —
  /// installed once by the fusion layer to route through the
  /// LoweringRegistry's per-kind clone factories.
  using CloneFallback = std::function<std::shared_ptr<Module>(const Module&)>;
  static void set_clone_fallback(CloneFallback fn);

  /// Tail shared by every clone() implementation and clone factory: copies
  /// src's parameters, buffers, private rng streams, and train/eval mode
  /// into the freshly constructed dst.
  template <typename M>
  static std::shared_ptr<M> cloned(const Module& src, std::shared_ptr<M> dst);

  /// All trainable parameters, depth-first (this module's own first).
  std::vector<ag::Variable> parameters() const;
  /// Parameters with dotted path names ("conv1.weight", ...).
  std::vector<std::pair<std::string, ag::Variable>> named_parameters() const;

  // -- reflection (walked by the fusion planner) -----------------------------

  /// This layer's kind tag; kCustom for composite user modules.
  virtual LayerKind kind() const { return LayerKind::kCustom; }
  /// Key into the fusion planner's lowering registry. Leaf layers use the
  /// layer-kind name; composite modules that want planner support override
  /// this (e.g. "models::BasicBlock") and register a custom lowering.
  virtual std::string kind_name() const { return layer_kind_name(kind()); }
  /// Structural/numeric hyper-parameters (must match across a fused array).
  virtual ModuleConfig config() const { return {}; }
  /// Direct children, in registration order.
  const std::vector<std::pair<std::string, std::shared_ptr<Module>>>&
  named_children() const {
    return children_;
  }
  /// This module's own buffers (not recursive).
  const std::vector<std::pair<std::string, Tensor>>& named_buffers() const {
    return buffers_;
  }
  /// This module's own parameters (not recursive), in registration order
  /// (the fusion layer derives per-kind state schemas from these).
  const std::vector<std::pair<std::string, ag::Variable>>& own_named_parameters()
      const {
    return params_;
  }
  /// Resolves a dotted child path ("trunk.conv1"); "" is this module itself.
  /// Returns nullptr when the path does not exist.
  const Module* find(const std::string& path) const;
  /// Mutable overload (used by FusedArray::store_model to write a model's
  /// state back into a per-model tree).
  Module* find(const std::string& path);

  /// Total number of trainable scalars.
  int64_t num_parameters() const;

  void zero_grad();

  /// Switches train/eval mode recursively (affects Dropout / BatchNorm).
  void train(bool mode = true);
  void eval() { train(false); }
  bool is_training() const { return training_; }

 protected:
  /// Copying shares parameter/buffer storage (Variables are handles) — only
  /// meaningful for stateless-or-self-contained leaves (e.g. Dropout's
  /// copy-based clone); kept protected so trees are not copied by accident.
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;

  /// Registers a trainable parameter; returns the stored handle.
  ag::Variable& register_parameter(std::string name, Tensor value);
  /// Registers a non-trainable buffer (running stats); returns the handle.
  Tensor& register_buffer(std::string name, Tensor value);
  /// Registers (and returns) a child module.
  template <typename M>
  std::shared_ptr<M> register_module(std::string name, std::shared_ptr<M> m) {
    children_.emplace_back(std::move(name), m);
    return m;
  }

  bool training_ = true;

 private:
  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;

  void collect(const std::string& prefix,
               std::vector<std::pair<std::string, ag::Variable>>* out) const;
};

/// Runs modules in order.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<std::shared_ptr<Module>> mods);

  void push_back(std::shared_ptr<Module> m);
  /// Registers under `name` instead of the positional index, so planner
  /// diagnostics and load paths read "stem.conv" rather than "0.0".
  void push_back(std::string name, std::shared_ptr<Module> m);
  ag::Variable forward(const ag::Variable& x) override;
  LayerKind kind() const override { return LayerKind::kSequential; }
  /// Deep clone: every child cloned in registration order (nullptr if any
  /// child has no clone support).
  std::shared_ptr<Module> clone() const override;
  size_t size() const { return mods_.size(); }
  const std::shared_ptr<Module>& at(size_t i) const { return mods_.at(i); }

 private:
  std::vector<std::shared_ptr<Module>> mods_;
};

/// All buffers with dotted path names, depth-first (mirrors
/// named_parameters()).
std::vector<std::pair<std::string, Tensor>> named_buffers_recursive(
    const Module& m);

/// Copies every parameter and buffer of `src` into the structurally
/// congruent module `dst` (pairwise shapes must match).
void copy_state(const Module& src, Module& dst);

/// True when the module tree holds any parameter or buffer storage.
bool has_state(const Module& m);

template <typename M>
std::shared_ptr<M> Module::cloned(const Module& src, std::shared_ptr<M> dst) {
  copy_state(src, *dst);
  dst->train(src.is_training());
  return dst;
}

}  // namespace hfta::nn
