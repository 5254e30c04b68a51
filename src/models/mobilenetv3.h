// MobileNetV3-Large (Howard et al., ICCV 2019): inverted-residual bnecks
// with depthwise convolutions, squeeze-excite, and hard-swish. Depthwise
// convs are the most demanding fusion case (per-model groups = C fuse into
// B*C groups). SE is implemented with 1x1 convolutions so that the fused
// model stays on the channel-fused layout end-to-end.
#pragma once

#include <array>
#include <vector>

#include "hfta/fused_norm.h"
#include "hfta/fused_ops.h"
#include "nn/norm.h"

namespace hfta::models {

/// One bneck row of a MobileNet table (V3-Large or V2).
struct BneckSpec {
  int64_t kernel;
  int64_t expand;
  int64_t out;
  bool se;
  bool hswish;   // false -> ReLU (or ReLU6, below)
  int64_t stride;
  bool relu6 = false;  // MobileNetV2 blocks use ReLU6
};

struct MobileNetV3Config {
  float width_mult = 1.f;
  int64_t num_blocks = 15;     // use the first n table rows
  int64_t image_size = 32;
  int64_t num_classes = 10;
  int64_t head_dim = 1280;     // classifier hidden width (scaled by width)
  // 3 = MobileNetV3-Large, 2 = MobileNetV2 — the infusible "version"
  // hyper-parameter of the paper's HFHT search space (Table 12).
  int64_t version = 3;

  static MobileNetV3Config tiny() {
    return {0.25f, 4, 16, 10, 64, 3};
  }
  static MobileNetV3Config tiny_v2() { return {0.25f, 4, 16, 10, 64, 2}; }
  static MobileNetV3Config paper() { return {1.f, 15, 32, 10, 1280, 3}; }
  static MobileNetV3Config paper_v2() { return {1.f, 17, 32, 10, 1280, 2}; }

  int64_t scaled(int64_t c) const;
  /// The selected version's bneck rows, truncated to num_blocks.
  std::vector<BneckSpec> rows() const;
  /// Stem width: 16 for V3-Large, 32 for V2 (before width scaling).
  int64_t stem_channels() const { return version == 2 ? 32 : 16; }
};

/// The published 15-row MobileNetV3-Large bneck table.
const std::array<BneckSpec, 15>& mobilenetv3_large_table();
/// The published MobileNetV2 inverted-residual rows (t,c,n,s expanded to 17
/// absolute-width entries).
const std::array<BneckSpec, 17>& mobilenetv2_table();

class SqueezeExcite : public nn::Module {
 public:
  SqueezeExcite(int64_t channels, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> clone() const override;
  std::string kind_name() const override { return "models::SqueezeExcite"; }
  nn::ModuleConfig config() const override;
  std::shared_ptr<nn::Conv2d> fc1, fc2;  // 1x1 convs
  int64_t channels;
};

class Bneck : public nn::Module {
 public:
  Bneck(int64_t in, const BneckSpec& spec, const MobileNetV3Config& cfg,
        Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> clone() const override;
  std::string kind_name() const override { return "models::Bneck"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Conv2d> expand_conv, dw_conv, project_conv;
  std::shared_ptr<nn::BatchNorm2d> expand_bn, dw_bn, project_bn;
  std::shared_ptr<SqueezeExcite> se;
  bool use_hswish, use_relu6, has_expand, residual;
  int64_t in_channels;   // clone() reconstructs from these
  BneckSpec spec;
  MobileNetV3Config cfg;
};

class MobileNetV3 : public nn::Module {
 public:
  MobileNetV3(const MobileNetV3Config& cfg, Rng& rng);
  /// x: [N, 3, S, S] -> [N, num_classes].
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<nn::Module> clone() const override;
  std::string kind_name() const override { return "models::MobileNetV3"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Conv2d> stem_conv, last_conv;
  std::shared_ptr<nn::BatchNorm2d> stem_bn, last_bn;
  std::vector<std::shared_ptr<Bneck>> bnecks;
  std::shared_ptr<nn::Linear> fc1, fc2;
  MobileNetV3Config cfg;
};

// ---- fused -------------------------------------------------------------------

class FusedSqueezeExcite : public fused::FusedModule {
 public:
  FusedSqueezeExcite(int64_t B, int64_t channels, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  std::shared_ptr<fused::FusedConv2d> fc1, fc2;
};

class FusedBneck : public fused::FusedModule {
 public:
  FusedBneck(int64_t B, int64_t in, const BneckSpec& spec,
             const MobileNetV3Config& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<fused::FusedConv2d> expand_conv, dw_conv, project_conv;
  std::shared_ptr<fused::FusedBatchNorm2d> expand_bn, dw_bn, project_bn;
  std::shared_ptr<FusedSqueezeExcite> se;
  bool use_hswish, use_relu6, has_expand, residual;
};

class FusedMobileNetV3 : public fused::FusedModule {
 public:
  FusedMobileNetV3(int64_t B, const MobileNetV3Config& cfg, Rng& rng);
  /// x: [N, B*3, S, S] -> model-major logits [B, N, classes].
  ag::Variable forward(const ag::Variable& x) override;

  std::shared_ptr<fused::FusedConv2d> stem_conv, last_conv;
  std::shared_ptr<fused::FusedBatchNorm2d> stem_bn, last_bn;
  std::vector<std::shared_ptr<FusedBneck>> bnecks;
  std::shared_ptr<fused::FusedLinear> fc1, fc2;
  MobileNetV3Config cfg;
};

}  // namespace hfta::models
