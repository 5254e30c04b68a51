#include "models/mobilenetv3.h"

#include <algorithm>
#include <cmath>

#include "hfta/fusion.h"

namespace hfta::models {

const std::array<BneckSpec, 15>& mobilenetv3_large_table() {
  // kernel, expand, out, SE, hswish, stride — Howard et al. Table 1.
  static const std::array<BneckSpec, 15> table = {{
      {3, 16, 16, false, false, 1},
      {3, 64, 24, false, false, 2},
      {3, 72, 24, false, false, 1},
      {5, 72, 40, true, false, 2},
      {5, 120, 40, true, false, 1},
      {5, 120, 40, true, false, 1},
      {3, 240, 80, false, true, 2},
      {3, 200, 80, false, true, 1},
      {3, 184, 80, false, true, 1},
      {3, 184, 80, false, true, 1},
      {3, 480, 112, true, true, 1},
      {3, 672, 112, true, true, 1},
      {5, 672, 160, true, true, 2},
      {5, 960, 160, true, true, 1},
      {5, 960, 160, true, true, 1},
  }};
  return table;
}

const std::array<BneckSpec, 17>& mobilenetv2_table() {
  // Sandler et al. Table 2, (t, c, n, s) rows expanded with absolute
  // expansion widths (stem = 32 channels); all blocks ReLU6, no SE.
  static const std::array<BneckSpec, 17> table = {{
      {3, 32, 16, false, false, 1, true},
      {3, 96, 24, false, false, 2, true},
      {3, 144, 24, false, false, 1, true},
      {3, 144, 32, false, false, 2, true},
      {3, 192, 32, false, false, 1, true},
      {3, 192, 32, false, false, 1, true},
      {3, 192, 64, false, false, 2, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 64, false, false, 1, true},
      {3, 384, 96, false, false, 1, true},
      {3, 576, 96, false, false, 1, true},
      {3, 576, 96, false, false, 1, true},
      {3, 576, 160, false, false, 2, true},
      {3, 960, 160, false, false, 1, true},
      {3, 960, 160, false, false, 1, true},
      {3, 960, 320, false, false, 1, true},
  }};
  return table;
}

std::vector<BneckSpec> MobileNetV3Config::rows() const {
  std::vector<BneckSpec> out;
  if (version == 2) {
    for (int64_t i = 0; i < num_blocks && i < 17; ++i)
      out.push_back(mobilenetv2_table()[static_cast<size_t>(i)]);
  } else {
    for (int64_t i = 0; i < num_blocks && i < 15; ++i)
      out.push_back(mobilenetv3_large_table()[static_cast<size_t>(i)]);
  }
  return out;
}

int64_t MobileNetV3Config::scaled(int64_t c) const {
  // Round to a multiple of 4 with a floor of 4 (divisibility keeps SE and
  // depthwise shapes valid at small widths).
  const int64_t v = static_cast<int64_t>(
      std::round(static_cast<float>(c) * width_mult / 4.f)) * 4;
  return std::max<int64_t>(4, v);
}

SqueezeExcite::SqueezeExcite(int64_t channels, Rng& rng)
    : channels(channels) {
  const int64_t squeeze = std::max<int64_t>(4, channels / 4);
  fc1 = register_module("fc1", std::make_shared<nn::Conv2d>(
                                   channels, squeeze, 1, 1, 0, 1, true, rng));
  fc2 = register_module("fc2", std::make_shared<nn::Conv2d>(
                                   squeeze, channels, 1, 1, 0, 1, true, rng));
}

ag::Variable SqueezeExcite::forward(const ag::Variable& x) {
  ag::Variable s = ag::adaptive_avg_pool2d(x, 1, 1);
  s = ag::relu(fc1->forward(s));
  s = ag::hardsigmoid(fc2->forward(s));
  return ag::mul(x, s);  // broadcast over H, W
}

Bneck::Bneck(int64_t in, const BneckSpec& spec, const MobileNetV3Config& cfg,
             Rng& rng)
    : use_hswish(spec.hswish), use_relu6(spec.relu6), in_channels(in),
      spec(spec), cfg(cfg) {
  const int64_t exp_c = cfg.scaled(spec.expand);
  const int64_t out_c = cfg.scaled(spec.out);
  has_expand = exp_c != in;
  residual = spec.stride == 1 && in == out_c;
  if (has_expand) {
    expand_conv = register_module(
        "expand_conv",
        std::make_shared<nn::Conv2d>(in, exp_c, 1, 1, 0, 1, false, rng));
    expand_bn = register_module("expand_bn",
                                std::make_shared<nn::BatchNorm2d>(exp_c));
  }
  dw_conv = register_module(
      "dw_conv", std::make_shared<nn::Conv2d>(exp_c, exp_c, spec.kernel,
                                              spec.stride, spec.kernel / 2,
                                              /*groups=*/exp_c, false, rng));
  dw_bn = register_module("dw_bn", std::make_shared<nn::BatchNorm2d>(exp_c));
  if (spec.se)
    se = register_module("se", std::make_shared<SqueezeExcite>(exp_c, rng));
  project_conv = register_module(
      "project_conv",
      std::make_shared<nn::Conv2d>(exp_c, out_c, 1, 1, 0, 1, false, rng));
  project_bn = register_module("project_bn",
                               std::make_shared<nn::BatchNorm2d>(out_c));
}

std::shared_ptr<nn::Module> SqueezeExcite::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<SqueezeExcite>(channels, rng));
}

nn::ModuleConfig SqueezeExcite::config() const {
  nn::ModuleConfig c;
  c.set("channels", channels);
  return c;
}

// B congruent SE blocks fuse into one FusedSqueezeExcite on the
// channel-fused layout; load/store derive from its StateMap.
static const fused::LoweringRegistrar kSqueezeExciteLowering(
    "models::SqueezeExcite", [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const SqueezeExcite&>(ctx.reference());
      auto m = std::make_shared<FusedSqueezeExcite>(ctx.array_size,
                                                    ref.channels, *ctx.rng);
      return fused::Lowered{m, fused::Layout::kChannelFused,
                            fused::Layout::kChannelFused};
    });

ag::Variable Bneck::forward(const ag::Variable& x) {
  auto act = [this](const ag::Variable& v) {
    if (use_hswish) return ag::hardswish(v);
    return use_relu6 ? ag::relu6(v) : ag::relu(v);
  };
  ag::Variable h = x;
  if (has_expand) h = act(expand_bn->forward(expand_conv->forward(h)));
  h = act(dw_bn->forward(dw_conv->forward(h)));
  if (se) h = se->forward(h);
  h = project_bn->forward(project_conv->forward(h));
  return residual ? ag::add(h, x) : h;
}

std::shared_ptr<nn::Module> Bneck::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<Bneck>(in_channels, spec, cfg, rng));
}

nn::ModuleConfig Bneck::config() const {
  // Everything that shapes the block's operators: the spec row, the width
  // multiplier that scales it, and the input width it was built for.
  nn::ModuleConfig c;
  c.set("in", in_channels);
  c.set("kernel", spec.kernel);
  c.set("expand", spec.expand);
  c.set("out", spec.out);
  c.set("se", static_cast<int64_t>(spec.se));
  c.set("hswish", static_cast<int64_t>(spec.hswish));
  c.set("relu6", static_cast<int64_t>(spec.relu6));
  c.set("stride", spec.stride);
  c.set("width_mult", static_cast<double>(cfg.width_mult));
  return c;
}

static const fused::LoweringRegistrar kBneckLowering(
    "models::Bneck", [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const Bneck&>(ctx.reference());
      auto m = std::make_shared<FusedBneck>(ctx.array_size, ref.in_channels,
                                            ref.spec, ref.cfg, *ctx.rng);
      return fused::Lowered{m, fused::Layout::kChannelFused,
                            fused::Layout::kChannelFused};
    });

MobileNetV3::MobileNetV3(const MobileNetV3Config& cfg, Rng& rng) : cfg(cfg) {
  const auto table = cfg.rows();
  const int64_t stem_c = cfg.scaled(cfg.stem_channels());
  stem_conv = register_module(
      "stem_conv", std::make_shared<nn::Conv2d>(3, stem_c, 3, 2, 1, 1, false,
                                                rng));
  stem_bn = register_module("stem_bn",
                            std::make_shared<nn::BatchNorm2d>(stem_c));
  int64_t in = stem_c;
  for (size_t i = 0; i < table.size(); ++i) {
    const BneckSpec& spec = table[i];
    bnecks.push_back(register_module("bneck" + std::to_string(i),
                                     std::make_shared<Bneck>(in, spec, cfg,
                                                             rng)));
    in = cfg.scaled(spec.out);
  }
  const int64_t last_c = cfg.scaled(table.back().expand);
  last_conv = register_module(
      "last_conv", std::make_shared<nn::Conv2d>(in, last_c, 1, 1, 0, 1, false,
                                                rng));
  last_bn = register_module("last_bn",
                            std::make_shared<nn::BatchNorm2d>(last_c));
  fc1 = register_module(
      "fc1", std::make_shared<nn::Linear>(last_c, cfg.head_dim, true, rng));
  fc2 = register_module("fc2", std::make_shared<nn::Linear>(
                                   cfg.head_dim, cfg.num_classes, true, rng));
}

ag::Variable MobileNetV3::forward(const ag::Variable& x) {
  ag::Variable h = ag::hardswish(stem_bn->forward(stem_conv->forward(x)));
  for (auto& b : bnecks) h = b->forward(h);
  h = ag::hardswish(last_bn->forward(last_conv->forward(h)));
  h = ag::adaptive_avg_pool2d(h, 1, 1);
  h = ag::reshape(h, {h.size(0), h.size(1)});
  h = ag::hardswish(fc1->forward(h));
  return fc2->forward(h);
}

std::shared_ptr<nn::Module> MobileNetV3::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<MobileNetV3>(cfg, rng));
}

nn::ModuleConfig MobileNetV3::config() const {
  nn::ModuleConfig c;
  c.set("version", cfg.version);
  c.set("num_blocks", cfg.num_blocks);
  c.set("image_size", cfg.image_size);
  c.set("num_classes", cfg.num_classes);
  c.set("head_dim", cfg.head_dim);
  c.set("width_mult", static_cast<double>(cfg.width_mult));
  return c;
}

// The whole model lowers as one unit (like models::TransformerLM): channel-
// fused images in, model-major logits out — the classifier head converts
// internally. This is what lets the HFHT executor compile B MobileNet
// trials straight through FusionPlan::compile.
static const fused::LoweringRegistrar kMobileNetV3Lowering(
    "models::MobileNetV3", [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const MobileNetV3&>(ctx.reference());
      auto m = std::make_shared<FusedMobileNetV3>(ctx.array_size, ref.cfg,
                                                  *ctx.rng);
      return fused::Lowered{m, fused::Layout::kChannelFused,
                            fused::Layout::kModelMajor};
    });

// ---- fused -----------------------------------------------------------------------

FusedSqueezeExcite::FusedSqueezeExcite(int64_t B, int64_t channels, Rng& rng)
    : fused::FusedModule(B) {
  const int64_t squeeze = std::max<int64_t>(4, channels / 4);
  fc1 = register_module("fc1", std::make_shared<fused::FusedConv2d>(
                                   B, channels, squeeze, 1, 1, 0, 1, true,
                                   rng));
  fc2 = register_module("fc2", std::make_shared<fused::FusedConv2d>(
                                   B, squeeze, channels, 1, 1, 0, 1, true,
                                   rng));
}

ag::Variable FusedSqueezeExcite::forward(const ag::Variable& x) {
  ag::Variable s = ag::adaptive_avg_pool2d(x, 1, 1);
  s = ag::relu(fc1->forward(s));
  s = ag::hardsigmoid(fc2->forward(s));
  return ag::mul(x, s);
}

FusedBneck::FusedBneck(int64_t B, int64_t in, const BneckSpec& spec,
                       const MobileNetV3Config& cfg, Rng& rng)
    : fused::FusedModule(B), use_hswish(spec.hswish), use_relu6(spec.relu6) {
  const int64_t exp_c = cfg.scaled(spec.expand);
  const int64_t out_c = cfg.scaled(spec.out);
  has_expand = exp_c != in;
  residual = spec.stride == 1 && in == out_c;
  if (has_expand) {
    expand_conv = register_module(
        "expand_conv", std::make_shared<fused::FusedConv2d>(
                           B, in, exp_c, 1, 1, 0, 1, false, rng));
    expand_bn = register_module(
        "expand_bn", std::make_shared<fused::FusedBatchNorm2d>(B, exp_c));
  }
  // Depthwise: per-model groups = exp_c fuse into B*exp_c groups.
  dw_conv = register_module(
      "dw_conv", std::make_shared<fused::FusedConv2d>(
                     B, exp_c, exp_c, spec.kernel, spec.stride,
                     spec.kernel / 2, exp_c, false, rng));
  dw_bn = register_module("dw_bn",
                          std::make_shared<fused::FusedBatchNorm2d>(B, exp_c));
  if (spec.se)
    se = register_module("se",
                         std::make_shared<FusedSqueezeExcite>(B, exp_c, rng));
  project_conv = register_module(
      "project_conv", std::make_shared<fused::FusedConv2d>(
                          B, exp_c, out_c, 1, 1, 0, 1, false, rng));
  project_bn = register_module(
      "project_bn", std::make_shared<fused::FusedBatchNorm2d>(B, out_c));
}

ag::Variable FusedBneck::forward(const ag::Variable& x) {
  auto act = [this](const ag::Variable& v) {
    if (use_hswish) return ag::hardswish(v);
    return use_relu6 ? ag::relu6(v) : ag::relu(v);
  };
  ag::Variable h = x;
  if (has_expand) h = act(expand_bn->forward(expand_conv->forward(h)));
  h = act(dw_bn->forward(dw_conv->forward(h)));
  if (se) h = se->forward(h);
  h = project_bn->forward(project_conv->forward(h));
  return residual ? ag::add(h, x) : h;
}

FusedMobileNetV3::FusedMobileNetV3(int64_t B, const MobileNetV3Config& cfg,
                                   Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  const auto table = cfg.rows();
  const int64_t stem_c = cfg.scaled(cfg.stem_channels());
  stem_conv = register_module(
      "stem_conv", std::make_shared<fused::FusedConv2d>(B, 3, stem_c, 3, 2, 1,
                                                        1, false, rng));
  stem_bn = register_module(
      "stem_bn", std::make_shared<fused::FusedBatchNorm2d>(B, stem_c));
  int64_t in = stem_c;
  for (size_t i = 0; i < table.size(); ++i) {
    const BneckSpec& spec = table[i];
    bnecks.push_back(
        register_module("bneck" + std::to_string(i),
                        std::make_shared<FusedBneck>(B, in, spec, cfg, rng)));
    in = cfg.scaled(spec.out);
  }
  const int64_t last_c = cfg.scaled(table.back().expand);
  last_conv = register_module(
      "last_conv", std::make_shared<fused::FusedConv2d>(B, in, last_c, 1, 1, 0,
                                                        1, false, rng));
  last_bn = register_module(
      "last_bn", std::make_shared<fused::FusedBatchNorm2d>(B, last_c));
  fc1 = register_module("fc1", std::make_shared<fused::FusedLinear>(
                                   B, last_c, cfg.head_dim, true, rng));
  fc2 = register_module("fc2", std::make_shared<fused::FusedLinear>(
                                   B, cfg.head_dim, cfg.num_classes, true,
                                   rng));
}

ag::Variable FusedMobileNetV3::forward(const ag::Variable& x) {
  ag::Variable h = ag::hardswish(stem_bn->forward(stem_conv->forward(x)));
  for (auto& b : bnecks) h = b->forward(h);
  h = ag::hardswish(last_bn->forward(last_conv->forward(h)));
  h = ag::adaptive_avg_pool2d(h, 1, 1);
  h = ag::reshape(h, {h.size(0), h.size(1)});            // [N, B*C]
  h = fused::to_model_major(h, array_size_);              // [B, N, C]
  h = ag::hardswish(fc1->forward(h));
  return fc2->forward(h);                                 // [B, N, classes]
}

}  // namespace hfta::models
