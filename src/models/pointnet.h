// PointNet (Qi et al., CVPR 2017) — classification and part-segmentation
// variants, following the third-party PyTorch implementation the paper uses
// (fxia22/pointnet.pytorch): Conv1d(1x1) feature extractor with BatchNorm1d,
// global max pooling, optional input spatial-transformer (STN), MLP heads.
//
// Plain and HFTA-fused builders share a PointNetConfig; `paper()` holds the
// published shapes (2500 points, 1024-d global feature, ShapeNet's 16
// classes / 50 part labels), `tiny()` a CPU-trainable reduction.
#pragma once

#include "hfta/fused_norm.h"
#include "hfta/fusion.h"
#include "nn/layers.h"
#include "nn/norm.h"

namespace hfta::models {

struct PointNetConfig {
  int64_t num_points = 64;
  int64_t w1 = 16, w2 = 32, w3 = 64;  // conv widths (global feature = w3)
  int64_t fc1 = 32, fc2 = 16;         // classifier MLP widths
  int64_t num_classes = 4;            // classification classes
  int64_t num_parts = 6;              // segmentation labels
  bool input_transform = false;       // STN on the 3-d input
  float dropout_p = 0.f;              // dropout before the last FC (cls)

  static PointNetConfig tiny() { return {}; }
  static PointNetConfig paper() {
    return {2500, 64, 128, 1024, 512, 256, 16, 50, true, 0.3f};
  }
};

/// Input spatial transformer: predicts a CxC alignment matrix per cloud.
class STN : public nn::Module {
 public:
  STN(int64_t channels, const PointNetConfig& cfg, Rng& rng);
  /// x: [N, C, L] -> transform [N, C, C] (identity-initialized).
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<nn::Conv1d> conv1, conv2;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2;
  std::shared_ptr<nn::Linear> fc1, fc2;
  int64_t channels;
};

/// Shared trunk: 1x1 Conv1d stack -> per-point features + global feature.
/// Registers the custom lowering "models::PointNetTrunk" so the planner can
/// fuse any model built on it.
class PointNetTrunk : public nn::Module {
 public:
  PointNetTrunk(const PointNetConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;  // global feature
  /// Returns {pointfeat [N, w1, L], global [N, w3]}.
  std::pair<ag::Variable, ag::Variable> forward_both(const ag::Variable& x);
  std::string kind_name() const override { return "models::PointNetTrunk"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<STN> stn;  // may be null
  std::shared_ptr<nn::Conv1d> conv1, conv2, conv3;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2, bn3;
  PointNetConfig cfg;
};

/// Classification head: logits over num_classes. Defined once as a
/// per-model Sequential (`net`); the fused variant is planner-compiled.
class PointNetCls : public nn::Module {
 public:
  PointNetCls(const PointNetConfig& cfg, Rng& rng);
  /// x: [N, 3, L] -> [N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> clone() const override;

  std::shared_ptr<nn::Sequential> net;  // the planner-walkable graph
  std::shared_ptr<PointNetTrunk> trunk;
  std::shared_ptr<nn::Linear> fc1, fc2, fc3;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2;
  std::shared_ptr<nn::Dropout> drop;
  PointNetConfig cfg;
};

/// Part-segmentation head: per-point logits.
class PointNetSeg : public nn::Module {
 public:
  PointNetSeg(const PointNetConfig& cfg, Rng& rng);
  /// x: [N, 3, L] -> [N, num_parts, L].
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<PointNetTrunk> trunk;
  std::shared_ptr<nn::Conv1d> conv1, conv2, conv3;
  std::shared_ptr<nn::BatchNorm1d> bn1, bn2;
  PointNetConfig cfg;
};

// ---- fused variants ------------------------------------------------------------

class FusedSTN : public fused::FusedModule {
 public:
  FusedSTN(int64_t B, int64_t channels, const PointNetConfig& cfg, Rng& rng);
  /// x: [N, B*C, L] -> transforms [B, N, C, C].
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<fused::FusedConv1d> conv1, conv2;
  std::shared_ptr<fused::FusedBatchNorm1d> bn1, bn2;
  std::shared_ptr<fused::FusedLinear> fc1, fc2;
  int64_t channels;
};

class FusedPointNetTrunk : public fused::FusedModule {
 public:
  FusedPointNetTrunk(int64_t B, const PointNetConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  /// x: [N, B*3, L] -> {pointfeat [N, B*w1, L], global [N, B*w3]}.
  std::pair<ag::Variable, ag::Variable> forward_both(const ag::Variable& x);

  std::shared_ptr<FusedSTN> stn;
  std::shared_ptr<fused::FusedConv1d> conv1, conv2, conv3;
  std::shared_ptr<fused::FusedBatchNorm1d> bn1, bn2, bn3;
  PointNetConfig cfg;
};

/// Thin wrapper over FusionPlan::compile_structure_only on one per-model
/// PointNetCls template graph; load_model supplies the actual weights.
class FusedPointNetCls : public fused::FusedModule {
 public:
  FusedPointNetCls(int64_t B, const PointNetConfig& cfg, Rng& rng);
  /// x: [N, B*3, L] -> model-major logits [B, N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  void load_model(int64_t b, const PointNetCls& m);

  std::shared_ptr<fused::FusedArray> array;
  PointNetConfig cfg;
};

class FusedPointNetSeg : public fused::FusedModule {
 public:
  FusedPointNetSeg(int64_t B, const PointNetConfig& cfg, Rng& rng);
  /// x: [N, B*3, L] -> [N, B*num_parts, L] (channel-fused per-point logits).
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<FusedPointNetTrunk> trunk;
  std::shared_ptr<fused::FusedConv1d> conv1, conv2, conv3;
  std::shared_ptr<fused::FusedBatchNorm1d> bn1, bn2;
  PointNetConfig cfg;
};

}  // namespace hfta::models
