#include "models/pointnet.h"

#include "tensor/ops.h"

namespace hfta::models {

namespace {
// Flattened identity matrix, used to initialize STN outputs near identity.
Tensor flat_identity(int64_t C) {
  Tensor t({C * C});
  for (int64_t i = 0; i < C; ++i) t.data()[i * C + i] = 1.f;
  return t;
}
}  // namespace

// ---- STN ----------------------------------------------------------------------

STN::STN(int64_t channels, const PointNetConfig& cfg, Rng& rng)
    : channels(channels) {
  conv1 = register_module("conv1", std::make_shared<nn::Conv1d>(
                                       channels, cfg.w1, 1, 1, 0, 1, true, rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       cfg.w1, cfg.w2, 1, 1, 0, 1, true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(cfg.w1));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(cfg.w2));
  fc1 = register_module("fc1",
                        std::make_shared<nn::Linear>(cfg.w2, cfg.fc1, true, rng));
  fc2 = register_module(
      "fc2", std::make_shared<nn::Linear>(cfg.fc1, channels * channels, true,
                                          rng));
}

ag::Variable STN::forward(const ag::Variable& x) {
  const int64_t N = x.size(0);
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  ag::Variable g = ag::global_max_pool1d(h);  // [N, w2]
  h = ag::relu(fc1->forward(g));
  h = fc2->forward(h);  // [N, C*C]
  ag::Variable iden =
      ag::constant(ops::stack_repeat(flat_identity(channels), N));
  return ag::reshape(ag::add(h, iden), {N, channels, channels});
}

// ---- trunk ---------------------------------------------------------------------

PointNetTrunk::PointNetTrunk(const PointNetConfig& cfg, Rng& rng) : cfg(cfg) {
  if (cfg.input_transform)
    stn = register_module("stn", std::make_shared<STN>(3, cfg, rng));
  conv1 = register_module(
      "conv1", std::make_shared<nn::Conv1d>(3, cfg.w1, 1, 1, 0, 1, true, rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       cfg.w1, cfg.w2, 1, 1, 0, 1, true, rng));
  conv3 = register_module("conv3", std::make_shared<nn::Conv1d>(
                                       cfg.w2, cfg.w3, 1, 1, 0, 1, true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(cfg.w1));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(cfg.w2));
  bn3 = register_module("bn3", std::make_shared<nn::BatchNorm1d>(cfg.w3));
}

std::pair<ag::Variable, ag::Variable> PointNetTrunk::forward_both(
    const ag::Variable& x) {
  ag::Variable h = x;
  if (stn) {
    // x' = T^T x, computed as (x^T T)^T — matches pointnet.pytorch.
    ag::Variable t = stn->forward(x);                      // [N, 3, 3]
    ag::Variable xt = ag::transpose(x, 1, 2);              // [N, L, 3]
    h = ag::transpose(ag::bmm(xt, t), 1, 2);               // [N, 3, L]
  }
  ag::Variable pointfeat = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(pointfeat)));
  h = bn3->forward(conv3->forward(h));
  ag::Variable global = ag::global_max_pool1d(h);  // [N, w3]
  return {pointfeat, global};
}

ag::Variable PointNetTrunk::forward(const ag::Variable& x) {
  return forward_both(x).second;
}

nn::ModuleConfig PointNetTrunk::config() const {
  nn::ModuleConfig c;
  c.set("w1", cfg.w1);
  c.set("w2", cfg.w2);
  c.set("w3", cfg.w3);
  c.set("fc1", cfg.fc1);
  c.set("input_transform", static_cast<int64_t>(cfg.input_transform));
  return c;
}

// The planner lowering for the trunk (B congruent trunks become one
// FusedPointNetTrunk on the channel-fused layout) plus the clone factory
// Module::clone() falls back to when the trunk runs unfused. State transfer
// needs no per-kind code: the fused trunk's child names mirror the
// per-model trunk's, so the planner derives load/store from its StateMap.
static const fused::LoweringRegistrar kTrunkLowering(
    "models::PointNetTrunk",
    [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const PointNetTrunk&>(ctx.reference());
      auto m = std::make_shared<FusedPointNetTrunk>(ctx.array_size, ref.cfg,
                                                    *ctx.rng);
      return fused::Lowered{m, fused::Layout::kChannelFused,
                            fused::Layout::kChannelFused};
    },
    [](const nn::Module& src) -> std::shared_ptr<nn::Module> {
      const auto& ref = static_cast<const PointNetTrunk&>(src);
      Rng rng(0);
      return nn::Module::cloned(src,
                                std::make_shared<PointNetTrunk>(ref.cfg, rng));
    });

// ---- classification head ----------------------------------------------------------

PointNetCls::PointNetCls(const PointNetConfig& cfg, Rng& rng) : cfg(cfg) {
  net = register_module("net", std::make_shared<nn::Sequential>());
  trunk = std::make_shared<PointNetTrunk>(cfg, rng);
  fc1 = std::make_shared<nn::Linear>(cfg.w3, cfg.fc1, true, rng);
  fc2 = std::make_shared<nn::Linear>(cfg.fc1, cfg.fc2, true, rng);
  fc3 = std::make_shared<nn::Linear>(cfg.fc2, cfg.num_classes, true, rng);
  bn1 = std::make_shared<nn::BatchNorm1d>(cfg.fc1);
  bn2 = std::make_shared<nn::BatchNorm1d>(cfg.fc2);
  drop = std::make_shared<nn::Dropout>(cfg.dropout_p);
  net->push_back("trunk", trunk);
  net->push_back("fc1", fc1);
  net->push_back("bn1", bn1);
  net->push_back("relu1", std::make_shared<nn::ReLU>());
  net->push_back("fc2", fc2);
  net->push_back("bn2", bn2);
  net->push_back("relu2", std::make_shared<nn::ReLU>());
  net->push_back("drop", drop);
  net->push_back("fc3", fc3);
}

ag::Variable PointNetCls::forward(const ag::Variable& x) {
  return net->forward(x);  // [N, classes]
}

std::shared_ptr<nn::Module> PointNetCls::clone() const {
  Rng rng(0);
  return cloned(*this, std::make_shared<PointNetCls>(cfg, rng));
}

// ---- segmentation head ----------------------------------------------------------------

PointNetSeg::PointNetSeg(const PointNetConfig& cfg, Rng& rng) : cfg(cfg) {
  trunk = register_module("trunk", std::make_shared<PointNetTrunk>(cfg, rng));
  conv1 = register_module(
      "conv1", std::make_shared<nn::Conv1d>(cfg.w1 + cfg.w3, cfg.w2, 1, 1, 0,
                                            1, true, rng));
  conv2 = register_module("conv2", std::make_shared<nn::Conv1d>(
                                       cfg.w2, cfg.w1, 1, 1, 0, 1, true, rng));
  conv3 = register_module(
      "conv3", std::make_shared<nn::Conv1d>(cfg.w1, cfg.num_parts, 1, 1, 0, 1,
                                            true, rng));
  bn1 = register_module("bn1", std::make_shared<nn::BatchNorm1d>(cfg.w2));
  bn2 = register_module("bn2", std::make_shared<nn::BatchNorm1d>(cfg.w1));
}

ag::Variable PointNetSeg::forward(const ag::Variable& x) {
  const int64_t L = x.size(2);
  auto [pointfeat, global] = trunk->forward_both(x);
  // Broadcast the global feature along the point dimension and concat.
  ag::Variable g3 = ag::reshape(global, {global.size(0), global.size(1), 1});
  ag::Variable gexp = ag::mul(g3, ag::constant(Tensor::ones({1, 1, L})));
  ag::Variable h = ag::concat({pointfeat, gexp}, 1);  // [N, w1+w3, L]
  h = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  return conv3->forward(h);  // [N, parts, L]
}

// ---- fused STN -----------------------------------------------------------------------

FusedSTN::FusedSTN(int64_t B, int64_t channels, const PointNetConfig& cfg,
                   Rng& rng)
    : fused::FusedModule(B), channels(channels) {
  conv1 = register_module("conv1", std::make_shared<fused::FusedConv1d>(
                                       B, channels, cfg.w1, 1, 1, 0, 1, true,
                                       rng));
  conv2 = register_module("conv2", std::make_shared<fused::FusedConv1d>(
                                       B, cfg.w1, cfg.w2, 1, 1, 0, 1, true,
                                       rng));
  bn1 = register_module("bn1",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w1));
  bn2 = register_module("bn2",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w2));
  fc1 = register_module(
      "fc1", std::make_shared<fused::FusedLinear>(B, cfg.w2, cfg.fc1, true,
                                                  rng));
  fc2 = register_module(
      "fc2", std::make_shared<fused::FusedLinear>(B, cfg.fc1,
                                                  channels * channels, true,
                                                  rng));
}

ag::Variable FusedSTN::forward(const ag::Variable& x) {
  const int64_t N = x.size(0);
  ag::Variable h = ag::relu(bn1->forward(conv1->forward(x)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  ag::Variable g = ag::global_max_pool1d(h);              // [N, B*w2]
  ag::Variable mm = fused::to_model_major(g, array_size_);  // [B, N, w2]
  h = ag::relu(fc1->forward(mm));
  h = fc2->forward(h);  // [B, N, C*C]
  Tensor iden = ops::stack_repeat(
      ops::stack_repeat(flat_identity(channels), N), array_size_);
  return ag::reshape(ag::add(h, ag::constant(iden)),
                     {array_size_, N, channels, channels});
}

// ---- fused trunk ------------------------------------------------------------------------

FusedPointNetTrunk::FusedPointNetTrunk(int64_t B, const PointNetConfig& cfg,
                                       Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  if (cfg.input_transform)
    stn = register_module("stn", std::make_shared<FusedSTN>(B, 3, cfg, rng));
  conv1 = register_module("conv1", std::make_shared<fused::FusedConv1d>(
                                       B, 3, cfg.w1, 1, 1, 0, 1, true, rng));
  conv2 = register_module("conv2", std::make_shared<fused::FusedConv1d>(
                                       B, cfg.w1, cfg.w2, 1, 1, 0, 1, true,
                                       rng));
  conv3 = register_module("conv3", std::make_shared<fused::FusedConv1d>(
                                       B, cfg.w2, cfg.w3, 1, 1, 0, 1, true,
                                       rng));
  bn1 = register_module("bn1",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w1));
  bn2 = register_module("bn2",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w2));
  bn3 = register_module("bn3",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w3));
}

std::pair<ag::Variable, ag::Variable> FusedPointNetTrunk::forward_both(
    const ag::Variable& x) {
  const int64_t B = array_size_;
  const int64_t N = x.size(0);
  const int64_t L = x.size(2);
  ag::Variable h = x;
  if (stn) {
    ag::Variable t = stn->forward(x);  // [B, N, 3, 3]
    ag::Variable xm = fused::to_model_major(x, B);          // [B, N, 3, L]
    ag::Variable xf = ag::reshape(xm, {B * N, 3, L});
    ag::Variable tf = ag::reshape(t, {B * N, 3, 3});
    ag::Variable xt = ag::transpose(xf, 1, 2);              // [B*N, L, 3]
    ag::Variable y = ag::transpose(ag::bmm(xt, tf), 1, 2);  // [B*N, 3, L]
    h = fused::to_channel_fused(ag::reshape(y, {B, N, 3, L}));
  }
  ag::Variable pointfeat = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(pointfeat)));
  h = bn3->forward(conv3->forward(h));
  ag::Variable global = ag::global_max_pool1d(h);  // [N, B*w3]
  return {pointfeat, global};
}

ag::Variable FusedPointNetTrunk::forward(const ag::Variable& x) {
  return forward_both(x).second;
}

// ---- fused classification --------------------------------------------------------------------

FusedPointNetCls::FusedPointNetCls(int64_t B, const PointNetConfig& cfg,
                                   Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  // ONE structural template instead of B donors; load_model supplies the
  // actual weights (see FusionPlan::compile_structure_only).
  const PointNetCls template_model(cfg, rng);
  fused::FusionOptions opts;
  opts.output_layout = fused::Layout::kModelMajor;
  array = register_module("array",
                          fused::FusionPlan(B, opts).compile_structure_only(
                              template_model.net, rng));
}

ag::Variable FusedPointNetCls::forward(const ag::Variable& x) {
  return array->forward(x);  // [B, N, classes]
}

void FusedPointNetCls::load_model(int64_t b, const PointNetCls& m) {
  array->load_model(b, *m.net);
}

// ---- fused segmentation ------------------------------------------------------------------------

FusedPointNetSeg::FusedPointNetSeg(int64_t B, const PointNetConfig& cfg,
                                   Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  trunk = register_module("trunk",
                          std::make_shared<FusedPointNetTrunk>(B, cfg, rng));
  conv1 = register_module(
      "conv1", std::make_shared<fused::FusedConv1d>(
                   B, cfg.w1 + cfg.w3, cfg.w2, 1, 1, 0, 1, true, rng));
  conv2 = register_module("conv2", std::make_shared<fused::FusedConv1d>(
                                       B, cfg.w2, cfg.w1, 1, 1, 0, 1, true,
                                       rng));
  conv3 = register_module(
      "conv3", std::make_shared<fused::FusedConv1d>(
                   B, cfg.w1, cfg.num_parts, 1, 1, 0, 1, true, rng));
  bn1 = register_module("bn1",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w2));
  bn2 = register_module("bn2",
                        std::make_shared<fused::FusedBatchNorm1d>(B, cfg.w1));
}

ag::Variable FusedPointNetSeg::forward(const ag::Variable& x) {
  const int64_t B = array_size_;
  const int64_t L = x.size(2);
  auto [pointfeat, global] = trunk->forward_both(x);
  // Broadcast global along points, then interleave per model so that each
  // model's (w1 + w3) channels stay contiguous for the grouped conv.
  ag::Variable g3 = ag::reshape(global, {global.size(0), global.size(1), 1});
  ag::Variable gexp = ag::mul(g3, ag::constant(Tensor::ones({1, 1, L})));
  ag::Variable pf_mm = fused::to_model_major(pointfeat, B);  // [B,N,w1,L]
  ag::Variable g_mm = fused::to_model_major(gexp, B);        // [B,N,w3,L]
  ag::Variable h = fused::to_channel_fused(ag::concat({pf_mm, g_mm}, 2));
  h = ag::relu(bn1->forward(conv1->forward(h)));
  h = ag::relu(bn2->forward(conv2->forward(h)));
  return conv3->forward(h);  // [N, B*parts, L]
}

}  // namespace hfta::models
