#include "models/resnet.h"

namespace hfta::models {

BasicBlock::BasicBlock(int64_t in, int64_t out, int64_t stride, Rng& rng) {
  conv1 = register_module(
      "conv1", std::make_shared<nn::Conv2d>(in, out, 3, stride, 1, 1, false,
                                            rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm2d>(out));
  conv2 = register_module(
      "conv2", std::make_shared<nn::Conv2d>(out, out, 3, 1, 1, 1, false, rng));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm2d>(out));
  if (stride != 1 || in != out) {
    down_conv = register_module(
        "down_conv",
        std::make_shared<nn::Conv2d>(in, out, 1, stride, 0, 1, false, rng));
    down_bn = register_module("down_bn", std::make_shared<nn::BatchNorm2d>(out));
  }
}

ag::Variable BasicBlock::forward(const ag::Variable& x) {
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = bn2->forward(conv2->forward(h));
  ag::Variable skip = down_conv ? down_bn->forward(down_conv->forward(x)) : x;
  return ag::relu(ag::add(h, skip));
}

nn::ModuleConfig BasicBlock::config() const {
  nn::ModuleConfig c;
  c.set("in", conv1->weight.size(1));
  c.set("out", conv1->weight.size(0));
  c.set("stride", conv1->args.stride_h);
  return c;
}

// The planner lowering for a residual block (B congruent BasicBlocks become
// one FusedBasicBlock on the channel-fused layout) plus the clone factory
// Module::clone() falls back to when a block runs unfused. Load AND store
// are derived from the fused block's StateMap (its child names mirror the
// per-model block's), so the old "no store support" gap is gone by
// construction.
static const fused::LoweringRegistrar kBasicBlockLowering(
    "models::BasicBlock",
    [](const fused::LoweringContext& ctx) {
      const nn::ModuleConfig c = ctx.reference().config();
      auto m = std::make_shared<FusedBasicBlock>(
          ctx.array_size, c.get_int("in"), c.get_int("out"),
          c.get_int("stride"), *ctx.rng);
      return fused::Lowered{m, fused::Layout::kChannelFused,
                            fused::Layout::kChannelFused};
    },
    [](const nn::Module& src) -> std::shared_ptr<nn::Module> {
      const nn::ModuleConfig c = src.config();
      Rng rng(0);
      return nn::Module::cloned(
          src, std::make_shared<BasicBlock>(c.get_int("in"), c.get_int("out"),
                                            c.get_int("stride"), rng));
    });

ResNet18::ResNet18(const ResNetConfig& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  stem_conv = std::make_shared<nn::Conv2d>(cfg.in_channels, cfg.stage_width(0),
                                           3, 1, 1, 1, false, rng);
  stem_bn = std::make_shared<nn::BatchNorm2d>(cfg.stage_width(0));
  auto stem = std::make_shared<nn::Sequential>();
  stem->push_back("conv", stem_conv);
  stem->push_back("bn", stem_bn);
  stem->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("stem", stem);

  int64_t in = cfg.stage_width(0);
  for (int64_t s = 0; s < 4; ++s) {
    const int64_t out = cfg.stage_width(s);
    for (int64_t i = 0; i < 2; ++i) {
      const int64_t stride = (i == 0 && s > 0) ? 2 : 1;
      blocks.push_back(std::make_shared<BasicBlock>(in, out, stride, rng));
      net->push_back("layer" + std::to_string(s) + "_" + std::to_string(i),
                     blocks.back());
      in = out;
    }
  }
  net->push_back("pool", std::make_shared<nn::AdaptiveAvgPool2d>(1, 1));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
  fc = std::make_shared<nn::Linear>(cfg.stage_width(3), cfg.num_classes, true,
                                    rng);
  net->push_back("fc", fc);
}

ag::Variable ResNet18::forward(const ag::Variable& x) {
  return net->forward(x);
}

std::shared_ptr<nn::Module> ResNet18::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<ResNet18>(cfg, rng));
}

// ---- fused -----------------------------------------------------------------------

FusedBasicBlock::FusedBasicBlock(int64_t B, int64_t in, int64_t out,
                                 int64_t stride, Rng& rng)
    : fused::FusedModule(B) {
  conv1 = register_module(
      "conv1", std::make_shared<fused::FusedConv2d>(B, in, out, 3, stride, 1,
                                                    1, false, rng));
  bn1 = register_module("bn1",
                        std::make_shared<fused::FusedBatchNorm2d>(B, out));
  conv2 = register_module(
      "conv2", std::make_shared<fused::FusedConv2d>(B, out, out, 3, 1, 1, 1,
                                                    false, rng));
  bn2 = register_module("bn2",
                        std::make_shared<fused::FusedBatchNorm2d>(B, out));
  if (stride != 1 || in != out) {
    down_conv = register_module(
        "down_conv", std::make_shared<fused::FusedConv2d>(B, in, out, 1,
                                                          stride, 0, 1, false,
                                                          rng));
    down_bn = register_module(
        "down_bn", std::make_shared<fused::FusedBatchNorm2d>(B, out));
  }
}

ag::Variable FusedBasicBlock::forward(const ag::Variable& x) {
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = bn2->forward(conv2->forward(h));
  ag::Variable skip = down_conv ? down_bn->forward(down_conv->forward(x)) : x;
  return ag::relu(ag::add(h, skip));
}

ResNetFusionMask ResNetFusionMask::partially_unfused(int64_t n) {
  ResNetFusionMask m;
  int64_t left = n;
  if (left-- > 0) m.head = false;
  for (int64_t i = 7; i >= 0 && left > 0; --i, --left)
    m.block[static_cast<size_t>(i)] = false;
  if (left > 0) m.stem = false;
  return m;
}

int64_t ResNetFusionMask::fused_units() const {
  int64_t n = stem + head;
  for (bool b : block) n += b;
  return n;
}

std::vector<bool> ResNetFusionMask::to_fuse_mask() const {
  std::vector<bool> mask;
  mask.push_back(stem);
  for (bool b : block) mask.push_back(b);
  mask.push_back(true);  // pool
  mask.push_back(true);  // flatten
  mask.push_back(head);
  return mask;
}

FusedResNet18::FusedResNet18(int64_t B, const ResNetConfig& cfg, Rng& rng,
                             ResNetFusionMask mask)
    : fused::FusedModule(B), cfg(cfg), mask(mask) {
  // ONE structural template instead of B donor models: the fused units
  // random-init once through the lowering registry, and callers load real
  // weights via load_model — so construction no longer pays B donor inits
  // plus a full copy of every donor into the array.
  const ResNet18 template_model(cfg, rng);
  fused::FusionOptions opts;
  opts.fuse_mask = mask.to_fuse_mask();
  opts.output_layout = fused::Layout::kModelMajor;
  array = register_module("array", fused::FusionPlan(B, opts)
                                       .compile_structure_only(
                                           template_model.net, rng));
}

ag::Variable FusedResNet18::forward(const ag::Variable& x) {
  return array->forward(x);  // [B, N, classes]
}

void FusedResNet18::load_model(int64_t b, const ResNet18& m) {
  array->load_model(b, *m.net);
}

}  // namespace hfta::models
