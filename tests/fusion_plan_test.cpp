// FusionPlan coverage: fuse -> forward equivalence against B independently
// run models for Linear/Conv/BN/LayerNorm stacks, congruence-rejection
// diagnostics (which layer, which model, why), fuse_mask partial-fusion
// round-trips, the unfused fallback, and planner-driven weight (re)loading.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>

#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/bert.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "models/resnet.h"
#include "models/transformer.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "nn/optim.h"
#include "tensor/ops.h"

#include "kind_factories.h"

namespace hfta::fused {
namespace {

constexpr int64_t kB = 3;

double rel_err(const Tensor& got, const Tensor& want) {
  double scale = 1e-12;
  for (int64_t i = 0; i < want.numel(); ++i)
    scale = std::max(scale, static_cast<double>(std::fabs(want.data()[i])));
  return ops::max_abs_diff(got, want) / scale;
}

// Forwards the fused array and every per-model net, then checks per-model
// slices agree. Input xs[b]: one per-model batch; fused input is
// channel-fused packing. Expects model-major output.
void expect_equivalent(FusedArray& array,
                       const std::vector<std::shared_ptr<nn::Module>>& nets,
                       const std::vector<Tensor>& xs, double tol = 1e-4) {
  Tensor yf = array.forward(ag::Variable(pack_channel_fused(xs))).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = nets[ub]->forward(ag::Variable(xs[ub])).value();
    Tensor yf_b = yf.slice(0, b, b + 1).reshape(yb.shape());
    EXPECT_LT(rel_err(yf_b, yb), tol) << "model " << b;
  }
}

std::shared_ptr<nn::Sequential> mlp(int64_t in, int64_t hidden, int64_t out,
                                    Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("fc1", std::make_shared<nn::Linear>(in, hidden, true, rng));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("fc2", std::make_shared<nn::Linear>(hidden, out, true, rng));
  return net;
}

TEST(FusionPlan, LinearStackMatchesIndependentModels) {
  Rng rng(1);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  EXPECT_EQ(array->num_units(), 3);
  EXPECT_EQ(array->output_layout(), Layout::kModelMajor);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, ConvBatchNormStackMatchesIndependentModels) {
  Rng rng(2);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("conv1",
                   std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, 1, true, rng));
    net->push_back("bn1", std::make_shared<nn::BatchNorm2d>(8));
    net->push_back("relu", std::make_shared<nn::ReLU>());
    net->push_back("pool", std::make_shared<nn::MaxPool2d>(2, 2));
    net->push_back("conv2",
                   std::make_shared<nn::Conv2d>(8, 4, 3, 2, 1, 1, true, rng));
    net->push_back("flatten", std::make_shared<nn::Flatten>());
    net->push_back("fc", std::make_shared<nn::Linear>(4 * 2 * 2, 5, true,
                                                      rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 3, 8, 8}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, LayerNormStackMatchesIndependentModels) {
  Rng rng(3);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 12, true, rng));
    net->push_back("ln", std::make_shared<nn::LayerNorm>(Shape{12}, 1e-5f,
                                                         rng));
    net->push_back("gelu", std::make_shared<nn::GELU>());
    net->push_back("fc2", std::make_shared<nn::Linear>(12, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({7, 6}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, Conv1dBatchNorm1dStackMatchesIndependentModels) {
  Rng rng(4);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("conv",
                   std::make_shared<nn::Conv1d>(3, 6, 1, 1, 0, 1, true, rng));
    net->push_back("bn", std::make_shared<nn::BatchNorm1d>(6));
    net->push_back("relu", std::make_shared<nn::ReLU>());
    net->push_back("gpool", std::make_shared<nn::GlobalMaxPool1d>());
    net->push_back("fc", std::make_shared<nn::Linear>(6, 2, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 3, 10}, rng));
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, RejectsStructuralHyperParameterMismatch) {
  Rng rng(5);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b)
    nets.push_back(mlp(6, b == 1 ? 9 : 10, 4, rng));  // model 1 differs

  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].path, "fc1");
  EXPECT_EQ(diags[0].model_index, 1);
  EXPECT_NE(diags[0].reason.find("out"), std::string::npos);

  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "compile must throw on incongruent models";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "fc1");
    EXPECT_EQ(e.diagnostic.model_index, 1);
    EXPECT_NE(std::string(e.what()).find("fc1"), std::string::npos);
  }
}

TEST(FusionPlan, RejectsLayerKindMismatch) {
  Rng rng(6);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    if (b == 2) {
      net->push_back("act", std::make_shared<nn::Tanh>());
    } else {
      net->push_back("act", std::make_shared<nn::ReLU>());
    }
    nets.push_back(net);
  }
  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].path, "act");
  EXPECT_EQ(diags[0].model_index, 2);
  EXPECT_NE(diags[0].reason.find("kind mismatch"), std::string::npos);
}

TEST(FusionPlan, RejectsTopologyMismatch) {
  Rng rng(7);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    if (b == 0) net->push_back("extra", std::make_shared<nn::ReLU>());
    nets.push_back(net);
  }
  std::vector<const nn::Module*> raw;
  for (const auto& n : nets) raw.push_back(n.get());
  std::vector<FusionDiagnostic> diags = FusionPlan(kB).analyze(raw);
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags[0].reason.find("submodule count"), std::string::npos);
}

// A composite custom module without a registered lowering.
class Doubler : public nn::Module {
 public:
  ag::Variable forward(const ag::Variable& x) override {
    return ag::mul_scalar(x, 2.f);
  }
  std::string kind_name() const override { return "test::Doubler"; }
};

TEST(FusionPlan, UnsupportedKindYieldsStructuredDiagnostic) {
  Rng rng(8);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    nets.push_back(net);
  }
  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "compile must throw on an unregistered kind";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "dbl");
    EXPECT_NE(e.diagnostic.reason.find("no fusion rule"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("test::Doubler"), std::string::npos);
  }
}

TEST(FusionPlan, UnfusedFallbackRunsUnsupportedKind) {
  Rng rng(9);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 8, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    net->push_back("fc2", std::make_shared<nn::Linear>(8, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 6}, rng));
  }
  FusionOptions opts;
  opts.allow_unfused_fallback = true;
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  EXPECT_FALSE(array->unit_fused(1));
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, FuseMaskPartialFusionRoundTrips) {
  Rng rng(10);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  Tensor x = pack_channel_fused(xs);

  FusionOptions full_opts;
  full_opts.output_layout = Layout::kModelMajor;
  auto full = FusionPlan(kB, full_opts).compile(nets, rng);

  // Every 3-unit mask: the math must be identical regardless of which units
  // run fused and which run as B per-model replicas (Appendix H.4).
  for (int m = 0; m < 8; ++m) {
    FusionOptions opts;
    opts.output_layout = Layout::kModelMajor;
    opts.fuse_mask = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    auto partial = FusionPlan(kB, opts).compile(nets, rng);
    for (int64_t u = 0; u < 3; ++u)
      EXPECT_EQ(partial->unit_fused(u), opts.fuse_mask[static_cast<size_t>(u)]);
    Tensor y_full = full->forward(ag::Variable(x)).value();
    Tensor y_part = partial->forward(ag::Variable(x)).value();
    EXPECT_LT(rel_err(y_part, y_full), 1e-4) << "mask " << m;
  }
}

TEST(FusionPlan, FuseMaskSizeMismatchIsDiagnosed) {
  Rng rng(11);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(mlp(4, 6, 2, rng));
  FusionOptions opts;
  opts.fuse_mask = {true, false};  // model has 3 units
  try {
    FusionPlan(kB, opts).compile(nets, rng);
    FAIL() << "compile must reject a wrong-sized fuse_mask";
  } catch (const FusionError& e) {
    EXPECT_NE(e.diagnostic.reason.find("fuse_mask"), std::string::npos);
  }
}

TEST(FusionPlan, LoadModelReloadsFromNewDonors) {
  Rng rng(12);
  std::vector<std::shared_ptr<nn::Module>> nets, fresh;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    fresh.push_back(mlp(6, 10, 4, rng));  // different weights
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  opts.fuse_mask = {true, true, false};  // exercise the adapter loader too
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  for (int64_t b = 0; b < kB; ++b)
    array->load_model(b, *fresh[static_cast<size_t>(b)]);
  expect_equivalent(*array, fresh, xs);
}

TEST(FusionPlan, UnfusedUnitsOwnClonedReplicas) {
  // Regression for the donor write-through footgun: unfused units used to
  // alias the donor models' own submodules, so load_model (and training)
  // silently mutated the donors. They now own Module::clone() replicas.
  Rng rng(20);
  std::vector<std::shared_ptr<nn::Module>> nets, fresh;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    fresh.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  opts.fuse_mask = {true, true, false};  // fc2 runs as B unfused replicas
  auto array = FusionPlan(kB, opts).compile(nets, rng);

  // The adapter's replicas are distinct objects, not the donors.
  auto adapter = std::dynamic_pointer_cast<UnfusedBlockAdapter>(
      array->steps().back().module);
  ASSERT_NE(adapter, nullptr);
  for (int64_t b = 0; b < kB; ++b) {
    const auto& donor_fc2 =
        static_cast<const nn::Sequential&>(*nets[static_cast<size_t>(b)])
            .at(2);
    EXPECT_NE(adapter->replicas()[static_cast<size_t>(b)].get(),
              donor_fc2.get())
        << "replica " << b << " aliases its donor";
  }

  // (1) load_model with new weights must not touch the donors.
  std::vector<Tensor> donor_before;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      donor_before.push_back(p.value().clone());
  for (int64_t b = 0; b < kB; ++b)
    array->load_model(b, *fresh[static_cast<size_t>(b)]);
  size_t i = 0;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      EXPECT_EQ(ops::max_abs_diff(donor_before[i++], p.value()), 0.f)
          << "load_model mutated a donor";

  // (2) mutating the array (an "optimizer step") must not touch the donors
  // either, and vice versa: donor edits must not change the array's output.
  Tensor x = pack_channel_fused(xs);
  for (auto& p : array->parameters()) {
    Tensor v = p.mutable_value();
    v.add_(Tensor::ones(v.shape()), 1e-2f);
  }
  i = 0;
  for (const auto& n : nets)
    for (const auto& p : n->parameters())
      EXPECT_EQ(ops::max_abs_diff(donor_before[i++], p.value()), 0.f)
          << "array mutation wrote through to a donor";
  Tensor y_before = array->forward(ag::Variable(x)).value();
  for (const auto& n : nets)
    for (auto& p : n->parameters()) {
      Tensor v = p.mutable_value();
      v.add_(Tensor::ones(v.shape()), 1.f);
    }
  Tensor y_after = array->forward(ag::Variable(x)).value();
  EXPECT_EQ(ops::max_abs_diff(y_before, y_after), 0.f)
      << "donor mutation changed the array";

  // (3) after reloading, the array still computes the fresh models exactly.
  for (int64_t b = 0; b < kB; ++b)
    array->load_model(b, *fresh[static_cast<size_t>(b)]);
  expect_equivalent(*array, fresh, xs);
}

TEST(FusionPlan, StructureOnlyCompileMatchesAfterLoad) {
  // compile_structure_only lowers ONE template graph and skips weight
  // loading; after load_model the array must be exactly equivalent to the
  // per-model nets — including across masked-off (cloned-replica) units.
  Rng rng(21);
  auto tmpl = mlp(6, 10, 4, rng);
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    xs.push_back(Tensor::randn({5, 6}, rng));
  }
  for (int m = 0; m < 8; ++m) {
    FusionOptions opts;
    opts.output_layout = Layout::kModelMajor;
    opts.fuse_mask = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    auto array = FusionPlan(kB, opts).compile_structure_only(tmpl, rng);
    for (int64_t b = 0; b < kB; ++b)
      array->load_model(b, *nets[static_cast<size_t>(b)]);
    expect_equivalent(*array, nets, xs);
  }
}

TEST(FusionPlan, StructureOnlyCompileLeavesTemplateUntouched) {
  Rng rng(22);
  auto tmpl = mlp(6, 10, 4, rng);
  std::vector<Tensor> before;
  for (const auto& p : tmpl->parameters()) before.push_back(p.value().clone());

  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  opts.fuse_mask = {true, false, false};
  auto array = FusionPlan(kB, opts).compile_structure_only(tmpl, rng);
  std::vector<std::shared_ptr<nn::Module>> fresh;
  for (int64_t b = 0; b < kB; ++b) {
    fresh.push_back(mlp(6, 10, 4, rng));
    array->load_model(b, *fresh.back());
  }
  for (auto& p : array->parameters()) {
    Tensor v = p.mutable_value();
    v.add_(Tensor::ones(v.shape()), 1.f);
  }
  const auto after = tmpl->parameters();
  for (size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(before[i], after[i].value()), 0.f)
        << "structure-only compile mutated the template";
}

// A stateful composite without lowering OR clone support.
class StatefulOpaque : public nn::Module {
 public:
  explicit StatefulOpaque(Rng& rng) {
    w = register_parameter("w", Tensor::randn({2}, rng));
  }
  ag::Variable forward(const ag::Variable& x) override { return x; }
  std::string kind_name() const override { return "test::StatefulOpaque"; }
  ag::Variable w;
};

TEST(FusionPlan, StatefulUncloneableUnfusedUnitIsDiagnosed) {
  // An unfused unit must own its replicas; a stateful kind that cannot be
  // cloned is a structured FusionError (which layer, why), not a crash.
  Rng rng(24);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc", std::make_shared<nn::Linear>(4, 4, true, rng));
    net->push_back("op", std::make_shared<StatefulOpaque>(rng));
    nets.push_back(net);
  }
  FusionOptions opts;
  opts.allow_unfused_fallback = true;
  try {
    FusionPlan(kB, opts).compile(nets, rng);
    FAIL() << "compile must reject a stateful, clone-less unfused unit";
  } catch (const FusionError& e) {
    EXPECT_EQ(e.diagnostic.path, "op");
    EXPECT_NE(e.diagnostic.reason.find("clone"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("test::StatefulOpaque"),
              std::string::npos);
  }
}

TEST(FusionPlan, StructureOnlyFallbackSharesStatelessKinds) {
  // An unregistered stateless kind behind allow_unfused_fallback may be
  // shared rather than cloned — nothing to write through — and the compile
  // still round-trips.
  Rng rng(23);
  auto tmpl = std::make_shared<nn::Sequential>();
  tmpl->push_back("fc1", std::make_shared<nn::Linear>(6, 8, true, rng));
  tmpl->push_back("dbl", std::make_shared<Doubler>());
  tmpl->push_back("fc2", std::make_shared<nn::Linear>(8, 3, true, rng));
  FusionOptions opts;
  opts.allow_unfused_fallback = true;
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile_structure_only(tmpl, rng);
  EXPECT_FALSE(array->unit_fused(1));

  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("fc1", std::make_shared<nn::Linear>(6, 8, true, rng));
    net->push_back("dbl", std::make_shared<Doubler>());
    net->push_back("fc2", std::make_shared<nn::Linear>(8, 3, true, rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({4, 6}, rng));
    array->load_model(b, *net);
  }
  expect_equivalent(*array, nets, xs);
}

TEST(FusionPlan, TransformerLMLowersThroughRegistry) {
  Rng rng(13);
  models::TransformerConfig cfg = models::TransformerConfig::tiny();
  std::vector<std::shared_ptr<nn::Module>> lms;
  for (int64_t b = 0; b < kB; ++b)
    lms.push_back(std::make_shared<models::TransformerLM>(cfg, rng));
  auto array = FusionPlan(kB).compile(lms, rng);
  ASSERT_EQ(array->steps().size(), 1u);
  auto fused_lm = std::dynamic_pointer_cast<models::FusedTransformerLM>(
      array->steps()[0].module);
  ASSERT_NE(fused_lm, nullptr);

  std::vector<Tensor> toks;
  for (int64_t b = 0; b < kB; ++b) {
    Tensor t({2, cfg.seq_len});
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = static_cast<float>(rng.uniform_int(cfg.vocab));
    toks.push_back(t);
  }
  Tensor yf = fused_lm->forward_tokens(pack_model_major(toks)).value();
  for (int64_t b = 0; b < kB; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = static_cast<models::TransformerLM&>(*lms[ub])
                    .forward_tokens(toks[ub])
                    .value();
    EXPECT_LT(rel_err(yf.slice(0, b, b + 1).reshape(yb.shape()), yb), 1e-3)
        << "model " << b;
  }
}

TEST(FusionPlan, EncoderLayerStackLowersThroughRegistry) {
  Rng rng(14);
  const int64_t E = 8, H = 2, FF = 16;
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("enc0", std::make_shared<models::TransformerEncoderLayer>(
                               E, H, FF, 0.f, "relu", rng));
    net->push_back("enc1", std::make_shared<models::TransformerEncoderLayer>(
                               E, H, FF, 0.f, "gelu", rng));
    nets.push_back(net);
    xs.push_back(Tensor::randn({2, 5, E}, rng));  // [N, S, E]
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  expect_equivalent(*array, nets, xs, 1e-3);
}

// ---- store_model / repack --------------------------------------------------

// conv/BN/linear stack with one masked-off (unfused-adapter) unit: exercises
// fused block storers, the adapter's copy_state storer, and BN buffers.
std::shared_ptr<nn::Sequential> conv_bn_mlp(Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("conv1",
                 std::make_shared<nn::Conv2d>(3, 8, 3, 1, 1, 1, true, rng));
  net->push_back("bn1", std::make_shared<nn::BatchNorm2d>(8));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("pool", std::make_shared<nn::MaxPool2d>(2, 2));
  net->push_back("conv2",
                 std::make_shared<nn::Conv2d>(8, 4, 3, 2, 1, 1, true, rng));
  net->push_back("flatten", std::make_shared<nn::Flatten>());
  net->push_back("fc", std::make_shared<nn::Linear>(4 * 2 * 2, 5, true, rng));
  return net;
}

TEST(SaveModel, TrainSaveReloadRoundTripIsBitExact) {
  Rng rng(21);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(conv_bn_mlp(rng));
  FusionOptions opts;
  opts.fuse_mask = {true, false, true, true, true, true, true};  // bn1 unfused
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);

  // Train a few steps so parameters AND BN running stats drift from init.
  // nn::SGD updates every parameter elementwise, which covers the unfused
  // adapter unit's owned replicas too (they are not FusedParams).
  nn::SGD opt(array->parameters(), {.lr = 0.05});
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  std::vector<Tensor> xs(static_cast<size_t>(kB), x);
  Tensor labels({kB, 2});
  for (int step = 0; step < 3; ++step) {
    opt.zero_grad();
    ag::Variable logits = array->forward(ag::Variable(pack_channel_fused(xs)));
    fused_cross_entropy(logits, labels, ag::Reduction::kMean).backward();
    opt.step();
  }

  // save -> reload into a second array; eval-mode forward (which consumes
  // the BN running stats) must agree to the last bit.
  std::vector<std::shared_ptr<nn::Module>> saved;
  for (int64_t b = 0; b < kB; ++b) {
    saved.push_back(nets[static_cast<size_t>(b)]->clone());
    array->store_model(b, *saved.back());
  }
  auto reloaded = FusionPlan(kB, opts).compile(saved, rng);
  array->eval();
  reloaded->eval();
  Tensor y1 = array->forward(ag::Variable(pack_channel_fused(xs))).value();
  Tensor y2 = reloaded->forward(ag::Variable(pack_channel_fused(xs))).value();
  EXPECT_DOUBLE_EQ(ops::max_abs_diff(y1, y2), 0.0);
}

TEST(SaveModel, CompositeEncoderLayerStoreIsDerivedFromStateMap) {
  // Store support used to be a per-kind hand-written lambda, and the
  // encoder layer shipped without one ("no store support"). Under the
  // schema-derived transfer it works like every other kind: store_model
  // round-trips every parameter bit-exactly.
  Rng rng(22);
  const int64_t E = 8, H = 2, FF = 16;
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) {
    auto net = std::make_shared<nn::Sequential>();
    net->push_back("enc", std::make_shared<models::TransformerEncoderLayer>(
                              E, H, FF, 0.f, "relu", rng));
    nets.push_back(net);
  }
  auto array = FusionPlan(kB).compile(nets, rng);
  for (int64_t b = 0; b < kB; ++b) {
    const std::shared_ptr<nn::Module> out = nets[b]->clone();
    // Scramble the clone so the comparison can only pass if store_model
    // actually wrote every tensor.
    for (auto& [name, p] : out->named_parameters())
      p.mutable_value().fill_(-7.5f);
    array->store_model(b, *out);
    const auto want = nets[b]->named_parameters();
    const auto got = out->named_parameters();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(ops::max_abs_diff(want[i].second.value(),
                                  got[i].second.value()),
                0.f)
          << want[i].first;
  }
}

TEST(Repack, SurvivorsContinueBitExactlyAfterHalving) {
  Rng rng(31);
  // Serial reference: three independent trainings with per-model lrs.
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::shared_ptr<nn::Module>> serial;
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  const HyperVec lrs = {1e-2, 2e-2, 3e-2};
  for (int64_t b = 0; b < kB; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    serial.push_back(nets.back()->clone());
    serial_opts.push_back(std::make_unique<nn::Adam>(
        serial.back()->parameters(),
        nn::Adam::Options{.lr = lrs[static_cast<size_t>(b)]}));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  auto opt = std::make_unique<FusedAdam>(collect_fused_parameters(*array, kB),
                                         kB, FusedAdam::Options{.lr = lrs});

  Tensor x = Tensor::randn({5, 6}, rng);
  Tensor y({5});  // class-0 labels
  auto train_fused = [&](FusedArray& a, FusedOptimizer& o, int64_t B,
                         int steps) {
    std::vector<Tensor> xb(static_cast<size_t>(B), x);
    Tensor lb({B, 5});
    for (int s = 0; s < steps; ++s) {
      o.zero_grad();
      ag::Variable logits = a.forward(ag::Variable(pack_channel_fused(xb)));
      // (1/N) * sum-CE: backward scales rows by the exact float(1/N) the
      // serial kMean loss uses — bit-exact for any B (see executor.cpp).
      ag::mul_scalar(fused_cross_entropy(logits, lb, ag::Reduction::kSum),
                     1.f / 5.f)
          .backward();
      o.step();
    }
  };
  auto train_serial = [&](size_t b, int steps) {
    for (int s = 0; s < steps; ++s) {
      serial_opts[b]->zero_grad();
      ag::cross_entropy(serial[b]->forward(ag::Variable(x)), y,
                        ag::Reduction::kMean)
          .backward();
      serial_opts[b]->step();
    }
  };

  train_fused(*array, *opt, kB, 4);
  for (size_t b = 0; b < static_cast<size_t>(kB); ++b) train_serial(b, 4);

  // Halve: keep models 2 and 0 (order scrambled on purpose); model 1 dies.
  const std::vector<int64_t> keep = {2, 0};
  std::vector<RepackPick> picks;
  for (int64_t b : keep) picks.push_back(RepackPick{0, b});
  const FusionPlan plan2(2, opts);
  auto array2 = plan2.repack_multi({array.get()}, picks, *nets[0], rng);
  auto opt2 = std::make_unique<FusedAdam>(
      collect_fused_parameters(*array2, 2), 2,
      FusedAdam::Options{.lr = select_hyper(lrs, keep)});
  opt2->repack_state_from({opt.get()}, picks);

  train_fused(*array2, *opt2, 2, 3);
  train_serial(2, 3);
  train_serial(0, 3);

  // The repacked array's models must equal the surviving serial runs to the
  // last bit — parameters and forward outputs alike.
  Tensor yf = array2->forward(ag::Variable(pack_channel_fused(
                                  std::vector<Tensor>(2, x))))
                  .value();
  for (size_t j = 0; j < keep.size(); ++j) {
    const size_t b = static_cast<size_t>(keep[j]);
    Tensor yb = serial[b]->forward(ag::Variable(x)).value();
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(
            yf.slice(0, static_cast<int64_t>(j), static_cast<int64_t>(j) + 1)
                .reshape(yb.shape()),
            yb),
        0.0)
        << "survivor " << j;
    auto tree = nets[0]->clone();
    array2->store_model(static_cast<int64_t>(j), *tree);
    const auto got = tree->named_parameters();
    const auto want = serial[b]->named_parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_DOUBLE_EQ(
          ops::max_abs_diff(got[i].second.value(), want[i].second.value()),
          0.0)
          << got[i].first;
  }
}

// ---- registry-parameterized state round-trip --------------------------------

// The per-kind factories live in kind_factories.h, shared with
// step_program_test so every registered lowering is covered by BOTH the
// state round-trip here and the capture/replay bit-exactness suite.
using tests::KindFactory;
using tests::kind_factories;

TEST(StateSchema, EveryRegisteredKindRoundTripsSaveLoadBitExactly) {
  // Parameterized over the ENTIRE LoweringRegistry: compile B congruent
  // replicas of each kind, then save every model back out into a scrambled
  // clone and demand bit equality for all parameters and buffers. The
  // companion guarantee is at compile time — a lowering whose StateMap
  // misses any per-model tensor throws a structured FusionError — so a
  // future registration cannot silently ship without (complete) state
  // transfer. The factory-coverage check below makes the same registration
  // fail THIS test until it is added here.
  const std::map<std::string, KindFactory> factories = kind_factories();
  for (const std::string& kind :
       LoweringRegistry::instance().supported_kinds()) {
    // "test::" kinds are deliberately-broken fixtures other tests register
    // into the process-wide registry (IncompleteStateMapFailsTheCompile);
    // order-independence demands they be excluded, not covered.
    if (kind.rfind("test::", 0) == 0) continue;
    ASSERT_TRUE(factories.count(kind))
        << "kind '" << kind
        << "' is registered but has no round-trip factory — add one to "
           "kind_factories()";
  }
  Rng rng(77);
  for (const auto& [kind, make] : factories) {
    ASSERT_NE(LoweringRegistry::instance().find(kind), nullptr)
        << "factory for '" << kind << "' has no registered lowering";
    std::vector<std::shared_ptr<nn::Module>> donors;
    for (int64_t b = 0; b < kB; ++b) donors.push_back(make(rng));
    std::shared_ptr<FusedArray> array;
    ASSERT_NO_THROW(array = FusionPlan(kB).compile(donors, rng))
        << "kind " << kind;
    for (int64_t b = 0; b < kB; ++b) {
      const size_t ub = static_cast<size_t>(b);
      std::shared_ptr<nn::Module> out = donors[ub]->clone();
      ASSERT_NE(out, nullptr) << "kind " << kind << " has no clone support";
      for (auto& [name, p] : out->named_parameters())
        p.mutable_value().fill_(-7.5f);
      for (auto& [name, t] : nn::named_buffers_recursive(*out)) {
        Tensor handle = t;
        handle.fill_(-7.5f);
      }
      array->store_model(b, *out);
      const auto wp = donors[ub]->named_parameters();
      const auto gp = out->named_parameters();
      ASSERT_EQ(wp.size(), gp.size()) << kind;
      for (size_t i = 0; i < wp.size(); ++i)
        EXPECT_EQ(ops::max_abs_diff(wp[i].second.value(),
                                    gp[i].second.value()),
                  0.f)
            << kind << " param " << wp[i].first << " model " << b;
      const auto wb = nn::named_buffers_recursive(*donors[ub]);
      const auto gb = nn::named_buffers_recursive(*out);
      ASSERT_EQ(wb.size(), gb.size()) << kind;
      for (size_t i = 0; i < wb.size(); ++i)
        EXPECT_EQ(ops::max_abs_diff(wb[i].second, gb[i].second), 0.f)
            << kind << " buffer " << wb[i].first << " model " << b;
    }
  }
}

TEST(StateSchema, IncompleteStateMapFailsTheCompile) {
  // A kind whose fused module forgets part of its state in state_map()
  // must be rejected at lowering time with a structured diagnostic — this
  // is the auto-fail that replaced the trailing-nullptr store footgun.
  struct HalfMapped : FusedModule {
    ag::Variable w;
    explicit HalfMapped(int64_t B) : FusedModule(B) {
      w = register_parameter("w", Tensor::zeros({B * 2}));
    }
    ag::Variable forward(const ag::Variable& x) override { return x; }
    StateMap state_map() const override { return {}; }  // forgets "w"
  };
  struct PlainPair : nn::Module {
    PlainPair() { register_parameter("w", Tensor::zeros({2})); }
    ag::Variable forward(const ag::Variable& x) override { return x; }
    std::string kind_name() const override { return "test::PlainPair"; }
  };
  // Register exactly once: the registry is a process-wide singleton, so
  // re-registering under --gtest_repeat would be harmless but sloppy.
  static const bool registered = [] {
    LoweringRegistry::instance().add(
        "test::PlainPair", [](const LoweringContext& ctx) {
          return Lowered{std::make_shared<HalfMapped>(ctx.array_size),
                         Layout::kAny, Layout::kAny};
        });
    return true;
  }();
  (void)registered;
  Rng rng(5);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(std::make_shared<PlainPair>());
  try {
    FusionPlan(kB).compile(nets, rng);
    FAIL() << "expected FusionError";
  } catch (const FusionError& e) {
    EXPECT_NE(e.diagnostic.reason.find("state"), std::string::npos);
    EXPECT_NE(e.diagnostic.reason.find("'w'"), std::string::npos);
  }
}

TEST(RepackMulti, SurvivorsFromTwoArraysMergeAndContinueBitExactly) {
  Rng rng(41);
  // Six independent serial trainings; the fused side trains them as TWO
  // B=3 arrays (the chunked-rung case), then merges one survivor of each
  // into a single B=2 array that must continue bit-exactly.
  std::vector<std::shared_ptr<nn::Module>> nets;
  std::vector<std::shared_ptr<nn::Module>> serial;
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  const HyperVec lrs = {1e-2, 2e-2, 3e-2, 4e-3, 5e-3, 6e-3};
  for (size_t b = 0; b < 6; ++b) {
    nets.push_back(mlp(6, 10, 4, rng));
    serial.push_back(nets.back()->clone());
    serial_opts.push_back(std::make_unique<nn::Adam>(
        serial.back()->parameters(), nn::Adam::Options{.lr = lrs[b]}));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  auto arrayA = FusionPlan(kB, opts).compile(
      {nets[0], nets[1], nets[2]}, rng);
  auto arrayB = FusionPlan(kB, opts).compile(
      {nets[3], nets[4], nets[5]}, rng);
  auto optA = std::make_unique<FusedAdam>(
      collect_fused_parameters(*arrayA, kB), kB,
      FusedAdam::Options{.lr = {lrs[0], lrs[1], lrs[2]}});
  auto optB = std::make_unique<FusedAdam>(
      collect_fused_parameters(*arrayB, kB), kB,
      FusedAdam::Options{.lr = {lrs[3], lrs[4], lrs[5]}});

  Tensor x = Tensor::randn({5, 6}, rng);
  Tensor y({5});  // class-0 labels
  auto train_fused = [&](FusedArray& a, FusedOptimizer& o, int64_t B,
                         int steps) {
    std::vector<Tensor> xb(static_cast<size_t>(B), x);
    Tensor lb({B, 5});
    for (int s = 0; s < steps; ++s) {
      o.zero_grad();
      ag::Variable logits = a.forward(ag::Variable(pack_channel_fused(xb)));
      ag::mul_scalar(fused_cross_entropy(logits, lb, ag::Reduction::kSum),
                     1.f / 5.f)
          .backward();
      o.step();
    }
  };
  auto train_serial = [&](size_t b, int steps) {
    for (int s = 0; s < steps; ++s) {
      serial_opts[b]->zero_grad();
      ag::cross_entropy(serial[b]->forward(ag::Variable(x)), y,
                        ag::Reduction::kMean)
          .backward();
      serial_opts[b]->step();
    }
  };

  train_fused(*arrayA, *optA, kB, 4);
  train_fused(*arrayB, *optB, kB, 4);
  for (size_t b = 0; b < 6; ++b) train_serial(b, 4);

  // Survivors: model 1 of array A and model 2 of array B.
  const std::vector<RepackPick> picks = {{0, 1}, {1, 2}};
  const FusionPlan plan2(2, opts);
  auto merged = plan2.repack_multi({arrayA.get(), arrayB.get()}, picks,
                                   *nets[0], rng);
  auto opt2 = std::make_unique<FusedAdam>(
      collect_fused_parameters(*merged, 2), 2,
      FusedAdam::Options{.lr = {lrs[1], lrs[5]}});
  opt2->repack_state_from({optA.get(), optB.get()}, picks);

  train_fused(*merged, *opt2, 2, 3);
  train_serial(1, 3);
  train_serial(5, 3);

  const size_t survivors[2] = {1, 5};
  Tensor yf = merged
                  ->forward(ag::Variable(
                      pack_channel_fused(std::vector<Tensor>(2, x))))
                  .value();
  for (size_t j = 0; j < 2; ++j) {
    const size_t b = survivors[j];
    Tensor yb = serial[b]->forward(ag::Variable(x)).value();
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(
            yf.slice(0, static_cast<int64_t>(j), static_cast<int64_t>(j) + 1)
                .reshape(yb.shape()),
            yb),
        0.0)
        << "survivor " << j;
    auto tree = nets[0]->clone();
    merged->store_model(static_cast<int64_t>(j), *tree);
    const auto got = tree->named_parameters();
    const auto want = serial[b]->named_parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_DOUBLE_EQ(
          ops::max_abs_diff(got[i].second.value(), want[i].second.value()),
          0.0)
          << got[i].first;
  }
}

TEST(RepackMulti, AdamRejectsSourcesWithMismatchedStepCounts) {
  Rng rng(43);
  std::vector<std::shared_ptr<nn::Module>> netsA, netsB;
  for (int64_t b = 0; b < 2; ++b) {
    netsA.push_back(mlp(4, 6, 2, rng));
    netsB.push_back(mlp(4, 6, 2, rng));
  }
  FusionOptions opts;
  opts.output_layout = Layout::kModelMajor;
  auto arrayA = FusionPlan(2, opts).compile(netsA, rng);
  auto arrayB = FusionPlan(2, opts).compile(netsB, rng);
  auto optA = std::make_unique<FusedAdam>(
      collect_fused_parameters(*arrayA, 2), 2, FusedAdam::Options{});
  auto optB = std::make_unique<FusedAdam>(
      collect_fused_parameters(*arrayB, 2), 2, FusedAdam::Options{});
  Tensor x = Tensor::randn({3, 4}, rng);
  Tensor lb({2, 3});
  auto step = [&](FusedArray& a, FusedAdam& o) {
    o.zero_grad();
    ag::Variable logits =
        a.forward(ag::Variable(pack_channel_fused({x, x})));
    ag::mul_scalar(fused_cross_entropy(logits, lb, ag::Reduction::kSum),
                   1.f / 3.f)
        .backward();
    o.step();
  };
  step(*arrayA, *optA);
  step(*arrayB, *optB);
  step(*arrayB, *optB);  // B is one step ahead of A

  auto merged = FusionPlan(2, opts).repack_multi(
      {arrayA.get(), arrayB.get()}, {{0, 0}, {1, 1}}, *netsA[0], rng);
  auto opt2 = std::make_unique<FusedAdam>(
      collect_fused_parameters(*merged, 2), 2, FusedAdam::Options{});
  EXPECT_THROW(
      opt2->repack_state_from({optA.get(), optB.get()},
                              std::vector<RepackPick>{{0, 0}, {1, 1}}),
      Error);
}

TEST(FusionPlan, DescribeListsUnitsAndLayouts) {
  Rng rng(15);
  std::vector<std::shared_ptr<nn::Module>> nets;
  for (int64_t b = 0; b < kB; ++b) nets.push_back(mlp(4, 6, 2, rng));
  FusionOptions opts;
  opts.fuse_mask = {true, true, false};
  auto array = FusionPlan(kB, opts).compile(nets, rng);
  const std::string d = array->describe();
  EXPECT_NE(d.find("unit 0"), std::string::npos);
  EXPECT_NE(d.find("Linear"), std::string::npos);
  EXPECT_NE(d.find("unfused"), std::string::npos);
  EXPECT_NE(d.find("model-major"), std::string::npos);
}

}  // namespace
}  // namespace hfta::fused
