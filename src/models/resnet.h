// ResNet-18 (He et al., CVPR 2016), CIFAR-style stem (3x3 conv, no initial
// max-pool), 4 stages x 2 BasicBlocks, adaptive average pool, linear head —
// the paper's convergence benchmark (Fig. 11) and partial-fusion study
// subject (Fig. 17 / Appendix H.4).
//
// The per-model network is a planner-walkable Sequential (`net`); the fused
// variant is compiled by FusionPlan, with the Fig. 17 partial-fusion sweep
// expressed as the plan's fuse_mask: units whose fusion is "turned off" run
// B per-model replicas through an UnfusedBlockAdapter on the channel-fused
// layout (mathematically identical, no operator fusion).
#pragma once

#include "hfta/fused_norm.h"
#include "hfta/fusion.h"
#include "nn/layers.h"
#include "nn/norm.h"

namespace hfta::models {

struct ResNetConfig {
  int64_t base_width = 8;     // stage widths: w, 2w, 4w, 8w
  int64_t image_size = 16;    // input resolution (CIFAR-10: 32)
  int64_t num_classes = 10;
  int64_t in_channels = 3;

  static ResNetConfig tiny() { return {}; }
  static ResNetConfig paper() { return {64, 32, 10, 3}; }

  int64_t stage_width(int64_t s) const { return base_width << s; }
};

/// Standard two-conv residual block. Registers the custom lowering
/// "models::BasicBlock" so the planner can fuse it.
class BasicBlock : public nn::Module {
 public:
  BasicBlock(int64_t in, int64_t out, int64_t stride, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::string kind_name() const override { return "models::BasicBlock"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Conv2d> conv1, conv2, down_conv;  // down_conv optional
  std::shared_ptr<nn::BatchNorm2d> bn1, bn2, down_bn;
};

class ResNet18 : public nn::Module {
 public:
  ResNet18(const ResNetConfig& cfg, Rng& rng);
  /// x: [N, 3, S, S] -> [N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> clone() const override;

  std::shared_ptr<nn::Sequential> net;  // the planner-walkable graph
  std::shared_ptr<nn::Conv2d> stem_conv;
  std::shared_ptr<nn::BatchNorm2d> stem_bn;
  std::vector<std::shared_ptr<BasicBlock>> blocks;  // 8
  std::shared_ptr<nn::Linear> fc;
  ResNetConfig cfg;
};

// ---- fused -------------------------------------------------------------------

class FusedBasicBlock : public fused::FusedModule {
 public:
  FusedBasicBlock(int64_t B, int64_t in, int64_t out, int64_t stride, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<fused::FusedConv2d> conv1, conv2, down_conv;
  std::shared_ptr<fused::FusedBatchNorm2d> bn1, bn2, down_bn;
};

/// Which parts of the fused ResNet-18 are operator-fused. The paper's
/// Fig. 17 sweep turns these off one by one (stem, 8 blocks, final linear =
/// 10 fusion units).
struct ResNetFusionMask {
  bool stem = true;
  std::array<bool, 8> block{true, true, true, true, true, true, true, true};
  bool head = true;

  static ResNetFusionMask all_fused() { return {}; }
  /// Fusion turned off for the first `n` units in the paper's order
  /// (head, then blocks from the last to the first, then stem).
  static ResNetFusionMask partially_unfused(int64_t n);
  int64_t fused_units() const;
  /// The planner's per-unit mask over ResNet18::net's 12 top-level units
  /// (stem, 8 blocks, pool, flatten, fc); pool/flatten are parameterless
  /// and always fused.
  std::vector<bool> to_fuse_mask() const;
};

/// Thin wrapper over FusionPlan::compile_structure_only with the mask as
/// plan option; load_model supplies the actual weights.
class FusedResNet18 : public fused::FusedModule {
 public:
  FusedResNet18(int64_t B, const ResNetConfig& cfg, Rng& rng,
                ResNetFusionMask mask = ResNetFusionMask::all_fused());
  /// x: [N, B*3, S, S] -> model-major logits [B, N, classes].
  ag::Variable forward(const ag::Variable& x) override;
  void load_model(int64_t b, const ResNet18& m);

  std::shared_ptr<fused::FusedArray> array;
  ResNetConfig cfg;
  ResNetFusionMask mask;
};

}  // namespace hfta::models
