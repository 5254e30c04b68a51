// Fused normalization layers (Appendix B rows BatchNorm1d/2d, LayerNorm).
#pragma once

#include "hfta/fused_ops.h"
#include "nn/norm.h"

namespace hfta::fused {

/// B BatchNorm2d layers fused: a single BatchNorm over B*C channels of the
/// channel-fused layout computes exactly the per-(model, channel) statistics
/// each independent BN would.
class FusedBatchNorm2d : public FusedModule {
 public:
  FusedBatchNorm2d(int64_t B, int64_t channels, float eps = 1e-5f,
                   float momentum = 0.1f);
  /// x: [N, B*C, H, W].
  ag::Variable forward(const ag::Variable& x) override;
  /// The per-model state (weight/bias/running stats) lives in the nested
  /// B*C-channel impl, so the default name-mirroring derivation is wrong.
  StateMap state_map() const override;

  std::shared_ptr<nn::BatchNorm2d> impl;  // over B*C channels
  int64_t channels;                       // per model
};

/// B BatchNorm1d layers fused over [N, B*C] or [N, B*C, L].
class FusedBatchNorm1d : public FusedModule {
 public:
  FusedBatchNorm1d(int64_t B, int64_t channels, float eps = 1e-5f,
                   float momentum = 0.1f);
  ag::Variable forward(const ag::Variable& x) override;
  StateMap state_map() const override;

  std::shared_ptr<nn::BatchNorm1d> impl;
  int64_t channels;
};

/// B LayerNorms fused on the model-major layout [B, N, D..., E...]:
/// normalize over the trailing E dims without affine, then apply the
/// per-model affine (w, b of shape [B, 1..., E...]) — Appendix B row
/// LayerNorm.
class FusedLayerNorm : public FusedModule {
 public:
  FusedLayerNorm(int64_t B, Shape normalized_shape, float eps, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;

  ag::Variable weight;  // [B, E...] used broadcast as [B, 1..., E...]
  ag::Variable bias;
  Shape normalized_shape;
  float eps;
};

}  // namespace hfta::fused
