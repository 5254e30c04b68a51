// Horizontally fused operators — the paper's primary contribution
// (Appendix B, Table 6). Each Fused* module is the mathematically
// equivalent fusion of B instances of the corresponding nn:: layer:
//
//   FusedConv2d   B convs with G groups  -> one grouped conv, G' = B*G
//   FusedConv1d   likewise (1-D)
//   FusedConvTranspose2d likewise (deconvolution)
//   FusedLinear   B linears -> one baddbmm(b [B,1,Fy], x [B,N,Fx], w [B,Fx,Fy])
//   FusedBatchNorm1d/2d  per-(model,channel) statistics over B*C channels
//   FusedLayerNorm  normalize trailing dims, then per-model affine
//   FusedEmbedding  index offsets b*V into a [B*V, E] table
//   FusedMaxPool2d / FusedAdaptiveAvgPool2d / FusedDropout2d  unchanged math
//                   on the channel-fused layout
//
// Layout conventions (see DESIGN.md §2):
//   channel-fused  [N, B*C, H, W] / [N, B*C, L]  (conv/BN/pool family)
//   model-major    [B, N, F] / [B, N, ...]       (linear/LayerNorm/attention)
// to_model_major / to_channel_fused convert between them.
#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace hfta::fused {

/// A fused parameter: the tensor packs B per-model blocks contiguously
/// along dim 0 (numel = B * per-model numel). Fused optimizers use this to
/// apply per-model hyper-parameters as broadcasted vector ops.
struct FusedParam {
  ag::Variable var;
  int64_t array_size = 1;  // B

  int64_t per_model_numel() const { return var.numel() / array_size; }
};

// ---- state schema -----------------------------------------------------------

/// How model b's per-model tensor is laid out inside its fused counterpart.
enum class SliceRule {
  /// The fused tensor packs B per-model blocks contiguously along dim 0
  /// (fused numel = B * per-model numel); model b's block starts at
  /// b * per-model numel. Every fused tensor in this codebase uses this
  /// layout except FusedLinear's weight.
  kBlock,
  /// nn::Linear's weight: the per-model [out, in] tensor maps to the
  /// transposed [in, out] block b of the fused [B, in, out] baddbmm weight.
  kLinearWeight,
};

/// One entry of a fused module's state schema: which per-model tensor
/// (dotted path relative to the per-model layer) lives where inside the
/// fused module, and how model b's slice is laid out. Exactly one of
/// fused_param / fused_buffer is defined. Every model transfer
/// (FusedModule::load_model/store_model, FusedArray's steps) and the
/// planner's state-congruence check are derived from these entries
/// (DESIGN.md §7).
struct StateEntry {
  std::string path;          // per-model tensor path, e.g. "weight"
  ag::Variable fused_param;  // trainable state lives in a parameter...
  Tensor fused_buffer;       // ...non-trainable state (running stats) here
  SliceRule rule = SliceRule::kBlock;

  bool is_buffer() const { return fused_buffer.defined(); }
};

/// Ordered per-kind state schema (order follows registration order, which
/// matches the per-model module's own parameter/buffer order).
using StateMap = std::vector<StateEntry>;

inline StateEntry param_entry(std::string path, const ag::Variable& v,
                              SliceRule rule = SliceRule::kBlock) {
  StateEntry e;
  e.path = std::move(path);
  e.fused_param = v;
  e.rule = rule;
  return e;
}
inline StateEntry buffer_entry(std::string path, const Tensor& t) {
  StateEntry e;
  e.path = std::move(path);
  e.fused_buffer = t;
  return e;
}

/// One survivor of a multi-source repack: model `model` of the `source`-th
/// donor. FusionPlan::repack_multi (arrays) and
/// FusedOptimizer::repack_state_from (optimizer state) share this pick type
/// so weights and optimizer slices always gather from the same slots.
struct RepackPick {
  size_t source = 0;
  int64_t model = 0;
};

/// Base for all fused modules: tracks B and moves model b's state in and
/// out through the module's StateMap.
class FusedModule : public nn::Module {
 public:
  explicit FusedModule(int64_t array_size) : array_size_(array_size) {
    HFTA_CHECK(array_size >= 1, "FusedModule: array size must be >= 1");
  }
  int64_t array_size() const { return array_size_; }

  /// Copies model b's state from the congruent per-model module `m` (an
  /// nn::Linear for FusedLinear, a BertModel for FusedBertModel, ...) into
  /// the fused tensors: load_state over state_map(). Non-virtual, so
  /// wrappers that declare a typed load_model of their own simply hide it.
  void load_model(int64_t b, const nn::Module& m);
  /// The inverse: extracts model b's slices into the per-model module `m`.
  void store_model(int64_t b, nn::Module& m) const;

  /// This module's per-model state schema. The default derivation covers
  /// every composite fused module whose registered child names mirror the
  /// per-model module's: own registered parameters and buffers map by name
  /// as dim-0 blocks, and child FusedModules compose recursively under
  /// their registered names. Leaves with a different internal layout
  /// (FusedLinear's transposed weight, FusedBatchNorm's nested plain impl)
  /// override. A stateful non-fused child without an override is a schema
  /// derivation error and fails loudly.
  virtual StateMap state_map() const;

 protected:
  int64_t array_size_;
};

/// Copies model b's state from the congruent per-model module `src` into
/// the fused tensors of `map`. `B` is the fused array size; `b` must lie in
/// [0, B).
void load_state(const StateMap& map, int64_t B, int64_t b,
                const nn::Module& src);
/// The inverse: extracts model b's slices out of the fused tensors into
/// the per-model module `dst`.
void store_state(const StateMap& map, int64_t B, int64_t b, nn::Module& dst);

/// Collects FusedParams of every fused module in a module tree given the
/// tree's (uniform) array size; non-fused parameters are rejected.
std::vector<FusedParam> collect_fused_parameters(nn::Module& root,
                                                 int64_t array_size);

// ---- layout converters -------------------------------------------------------

/// [N, B*C, ...] -> [B, N, C, ...].
ag::Variable to_model_major(const ag::Variable& x, int64_t B);
/// [B, N, C, ...] -> [N, B*C, ...].
ag::Variable to_channel_fused(const ag::Variable& x);
/// Stacks B per-model tensors [N, C, ...] into channel-fused [N, B*C, ...].
Tensor pack_channel_fused(const std::vector<Tensor>& xs);
/// Splits channel-fused [N, B*C, ...] back into B tensors [N, C, ...].
std::vector<Tensor> unpack_channel_fused(const Tensor& x, int64_t B);
/// Stacks B per-model tensors [N, ...] into model-major [B, N, ...].
Tensor pack_model_major(const std::vector<Tensor>& xs);

// ---- fused layers --------------------------------------------------------------

class FusedConv2d : public FusedModule {
 public:
  FusedConv2d(int64_t B, int64_t in, int64_t out, int64_t kernel,
              int64_t stride, int64_t pad, int64_t groups, bool bias,
              Rng& rng);
  /// x: [N, B*in, H, W] -> [N, B*out, Ho, Wo].
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B*out, in/g, k, k]
  ag::Variable bias;    // [B*out]
  ops::ConvArgs fused_args;  // groups = B*g
  int64_t out_channels;      // per model
};

class FusedConv1d : public FusedModule {
 public:
  FusedConv1d(int64_t B, int64_t in, int64_t out, int64_t kernel,
              int64_t stride, int64_t pad, int64_t groups, bool bias,
              Rng& rng);
  /// x: [N, B*in, L] -> [N, B*out, Lo].
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B*out, in/g, k]
  ag::Variable bias;    // [B*out]
  int64_t stride, pad, fused_groups;
  int64_t out_channels;
};

class FusedConvTranspose2d : public FusedModule {
 public:
  FusedConvTranspose2d(int64_t B, int64_t in, int64_t out, int64_t kernel,
                       int64_t stride, int64_t pad, int64_t out_pad,
                       int64_t groups, bool bias, Rng& rng);
  /// x: [N, B*in, H, W] -> [N, B*out, Ho, Wo].
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B*in, out/g, k, k]
  ag::Variable bias;    // [B*out]
  ops::ConvTransposeArgs fused_args;  // groups = B*g
  int64_t out_channels;
};

class FusedConvTranspose1d : public FusedModule {
 public:
  FusedConvTranspose1d(int64_t B, int64_t in, int64_t out, int64_t kernel,
                       int64_t stride, int64_t pad, int64_t out_pad,
                       int64_t groups, bool bias, Rng& rng);
  /// x: [N, B*in, L] -> [N, B*out, Lo].
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B*in, out/g, k]
  ag::Variable bias;    // [B*out]
  ops::ConvTransposeArgs fused_args;  // groups = B*g
  int64_t out_channels;
};

class FusedLinear : public FusedModule {
 public:
  FusedLinear(int64_t B, int64_t in, int64_t out, bool bias, Rng& rng);
  /// x: [B, N, in] -> [B, N, out] via baddbmm.
  ag::Variable forward(const ag::Variable& x) override;
  /// weight uses kLinearWeight (the per-model [out, in] is transposed).
  StateMap state_map() const override;

  ag::Variable weight;  // [B, in, out]
  ag::Variable bias;    // [B, 1, out]
  int64_t in_features, out_features;
};

class FusedEmbedding : public FusedModule {
 public:
  FusedEmbedding(int64_t B, int64_t vocab, int64_t dim, Rng& rng);
  ag::Variable forward(const ag::Variable&) override;
  /// indices: [B, ...] per-model integer ids -> [B, ..., E].
  ag::Variable lookup(const Tensor& indices);

  ag::Variable weight;  // [B*V, E]
  int64_t vocab, dim;
};

class FusedMaxPool2d : public FusedModule {
 public:
  FusedMaxPool2d(int64_t B, int64_t kernel, int64_t stride, int64_t pad = 0);
  ag::Variable forward(const ag::Variable& x) override;
  ops::PoolArgs args;
};

class FusedAdaptiveAvgPool2d : public FusedModule {
 public:
  FusedAdaptiveAvgPool2d(int64_t B, int64_t out_h, int64_t out_w);
  ag::Variable forward(const ag::Variable& x) override;
  int64_t out_h, out_w;
};

/// Dropout2d on the channel-fused layout: drops per-(model, channel),
/// exactly what B independent Dropout2d ops would do.
class FusedDropout2d : public FusedModule {
 public:
  FusedDropout2d(int64_t B, float p, uint64_t seed = 0xd20);
  ag::Variable forward(const ag::Variable& x) override;
  float p;

 private:
  Rng rng_;
};

/// Elementwise dropout (layout-agnostic).
class FusedDropout : public FusedModule {
 public:
  FusedDropout(int64_t B, float p, uint64_t seed = 0xd0);
  ag::Variable forward(const ag::Variable& x) override;
  float p;

 private:
  Rng rng_;
};

}  // namespace hfta::fused
