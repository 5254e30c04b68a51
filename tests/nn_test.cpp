// nn module library tests: layers, normalization, dropout, optimizers,
// schedulers, and a small end-to-end training sanity check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/norm.h"
#include "hfta/fused_sched.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace hfta::nn {
namespace {

TEST(Module, ParameterRegistrationAndNames) {
  Rng rng(1);
  Sequential seq;
  seq.push_back(std::make_shared<Linear>(4, 8, true, rng));
  seq.push_back(std::make_shared<ReLU>());
  seq.push_back(std::make_shared<Linear>(8, 2, true, rng));
  auto named = seq.named_parameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[1].first, "0.bias");
  EXPECT_EQ(named[2].first, "2.weight");
  EXPECT_EQ(seq.num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(Module, ZeroGradClearsGrads) {
  Rng rng(2);
  Linear lin(3, 2, true, rng);
  ag::Variable x(Tensor::randn({4, 3}, rng));
  ag::sum_all(lin.forward(x)).backward();
  EXPECT_GT(ops::max_abs_diff(lin.weight.grad(),
                              Tensor::zeros(lin.weight.shape())),
            0.f);
  lin.zero_grad();
  EXPECT_EQ(ops::max_abs_diff(lin.weight.grad(),
                              Tensor::zeros(lin.weight.shape())),
            0.f);
}

TEST(Module, TrainEvalPropagates) {
  Rng rng(3);
  auto drop = std::make_shared<Dropout>(0.5f);
  Sequential seq;
  seq.push_back(drop);
  seq.eval();
  EXPECT_FALSE(drop->is_training());
  seq.train();
  EXPECT_TRUE(drop->is_training());
}

TEST(Layers, LinearShapes) {
  Rng rng(4);
  Linear lin(6, 3, true, rng);
  ag::Variable x(Tensor::randn({5, 6}, rng));
  EXPECT_EQ(lin.forward(x).shape(), (Shape{5, 3}));
}

TEST(Layers, Conv2dOutputShape) {
  Rng rng(5);
  Conv2d conv(3, 8, 3, 2, 1, 1, true, rng);
  ag::Variable x(Tensor::randn({2, 3, 16, 16}, rng));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 8, 8, 8}));
}

TEST(Layers, ConvTranspose2dUpsamples) {
  Rng rng(6);
  ConvTranspose2d conv(8, 4, 4, 2, 1, 0, 1, false, rng);
  ag::Variable x(Tensor::randn({2, 8, 5, 5}, rng));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 4, 10, 10}));
}

TEST(Layers, DropoutEvalIsIdentityAndTrainScales) {
  Rng rng(7);
  Dropout drop(0.5f, 99);
  ag::Variable x(Tensor::ones({1000}));
  drop.eval();
  EXPECT_EQ(ops::max_abs_diff(drop.forward(x).value(), x.value()), 0.f);
  drop.train();
  Tensor y = drop.forward(x).value();
  // Entries are 0 or 2; mean stays ~1.
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(y.data()[i] == 0.f || y.data()[i] == 2.f);
    zeros += y.data()[i] == 0.f;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
}

TEST(Layers, Dropout2dDropsWholeChannels) {
  Rng rng(8);
  Dropout2d drop(0.5f, 123);
  ag::Variable x(Tensor::ones({2, 16, 3, 3}));
  Tensor y = drop.forward(x).value();
  for (int64_t n = 0; n < 2; ++n)
    for (int64_t c = 0; c < 16; ++c) {
      const float first = y.at({n, c, 0, 0});
      for (int64_t h = 0; h < 3; ++h)
        for (int64_t w = 0; w < 3; ++w)
          EXPECT_EQ(y.at({n, c, h, w}), first);
    }
}

TEST(Norm, BatchNorm2dNormalizesBatch) {
  Rng rng(9);
  BatchNorm2d bn(4);
  ag::Variable x(Tensor::randn({8, 4, 5, 5}, rng));
  Tensor y = bn.forward(x).value();
  // Per-channel mean ~0, var ~1.
  Tensor m = ops::mean(y, {0, 2, 3}, false);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(m.at({c}), 0.f, 1e-4f);
  Tensor v = ops::mean(ops::mul(y, y), {0, 2, 3}, false);
  for (int64_t c = 0; c < 4; ++c) EXPECT_NEAR(v.at({c}), 1.f, 1e-2f);
}

TEST(Norm, BatchNormRunningStatsConvergeAndEvalUsesThem) {
  Rng rng(10);
  BatchNorm1d bn(3);
  // Feed batches with mean 2, std 1 -> running_mean -> 2.
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::randn({64, 3}, rng);
    x.add_(Tensor::full({64, 3}, 2.f));
    bn.forward(ag::Variable(x));
  }
  EXPECT_NEAR(bn.running_mean.at({0}), 2.f, 0.15f);
  EXPECT_NEAR(bn.running_var.at({0}), 1.f, 0.25f);
  bn.eval();
  Tensor x = Tensor::full({4, 3}, 2.f);
  Tensor y = bn.forward(ag::Variable(x)).value();
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y.data()[i], 0.f, 0.3f);
}

TEST(Norm, LayerNormPerRow) {
  Rng rng(11);
  LayerNorm ln({6}, 1e-5f, rng);
  ag::Variable x(Tensor::randn({4, 6}, rng));
  Tensor y = ln.forward(x).value();
  for (int64_t n = 0; n < 4; ++n) {
    float mean = 0.f, var = 0.f;
    for (int64_t e = 0; e < 6; ++e) mean += y.at({n, e});
    mean /= 6.f;
    for (int64_t e = 0; e < 6; ++e) {
      const float d = y.at({n, e}) - mean;
      var += d * d;
    }
    EXPECT_NEAR(mean, 0.f, 1e-4f);
    EXPECT_NEAR(var / 6.f, 1.f, 1e-2f);
  }
}

// ---- optimizers: closed-form single-step checks -----------------------------

TEST(Optim, SGDSingleStep) {
  ag::Variable p(Tensor::full({1}, 1.f), true);
  p.grad().fill_(0.5f);
  SGD opt({p}, {.lr = 0.1});
  opt.step();
  EXPECT_NEAR(p.value().item(), 1.f - 0.1f * 0.5f, 1e-6f);
}

TEST(Optim, SGDMomentumAccumulates) {
  ag::Variable p(Tensor::full({1}, 0.f), true);
  SGD opt({p}, {.lr = 1.0, .momentum = 0.9});
  p.grad().fill_(1.f);
  opt.step();  // buf = 1, p = -1
  EXPECT_NEAR(p.value().item(), -1.f, 1e-6f);
  opt.step();  // buf = 1.9, p = -2.9
  EXPECT_NEAR(p.value().item(), -2.9f, 1e-5f);
}

TEST(Optim, AdamFirstStepIsLrSized) {
  // With bias correction, |first step| == lr for any nonzero gradient.
  ag::Variable p(Tensor::full({1}, 0.f), true);
  Adam opt({p}, {.lr = 0.01});
  p.grad().fill_(123.f);
  opt.step();
  EXPECT_NEAR(p.value().item(), -0.01f, 1e-5f);
}

TEST(Optim, WeightDecayPullsTowardZero) {
  ag::Variable p(Tensor::full({1}, 10.f), true);
  SGD opt({p}, {.lr = 0.1, .weight_decay = 0.5});
  p.grad().fill_(0.f);
  opt.step();
  EXPECT_NEAR(p.value().item(), 10.f - 0.1f * 0.5f * 10.f, 1e-5f);
}

TEST(Optim, QuadraticBowlConvergence) {
  // min (p - 3)^2 with each optimizer.
  for (int which = 0; which < 3; ++which) {
    ag::Variable p(Tensor::zeros({1}), true);
    std::unique_ptr<fused::FusedOptimizer> opt;
    if (which == 0) opt = std::make_unique<SGD>(std::vector<ag::Variable>{p},
                                                SGD::Options{.lr = 0.1});
    if (which == 1) opt = std::make_unique<Adam>(std::vector<ag::Variable>{p},
                                                 Adam::Options{.lr = 0.3});
    if (which == 2)
      opt = std::make_unique<Adadelta>(std::vector<ag::Variable>{p},
                                       Adadelta::Options{.lr = 8.0});
    for (int i = 0; i < 300; ++i) {
      opt->zero_grad();
      ag::Variable loss =
          ag::pow_scalar(ag::add_scalar(p, -3.f), 2.f);
      loss.backward();
      opt->step();
    }
    EXPECT_NEAR(p.value().item(), 3.f, 0.2f) << "optimizer " << which;
  }
}

// ---- optimizers: hand-computed two-step references -------------------------
//
// The serial optimizers are the fused ones at B = 1, so a fused == serial
// comparison cannot catch a wrong update formula. These pin the formulas
// against values worked out by hand (in double) from the textbook updates,
// on p0 = [1, -2, 0.5] with grads g1 = [0.5, -1, 2] then g2 = [1, 1, -1].

const std::vector<float> kP0 = {1.f, -2.f, 0.5f};
const std::vector<std::vector<float>> kGrads = {{0.5f, -1.f, 2.f},
                                                {1.f, 1.f, -1.f}};

void expect_values(const ag::Variable& p, const std::vector<double>& want,
                   const char* what) {
  const std::vector<float> got = p.value().to_vector();
  for (size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 2e-6) << what << " element " << i;
}

TEST(Optim, AdamTwoStepsMatchHandComputedBiasCorrection) {
  // lr 0.1, betas (0.9, 0.999), eps 1e-8.
  // Step 1: m = 0.1 g1, v = 0.001 g1^2; bc1 = 0.1, bc2 = 0.001, so
  //   m/bc1 = g1 and sqrt(v/bc2) = |g1|: p1 = p0 - 0.1 sign(g1)
  //   = [0.9, -1.9, 0.4] (up to eps/|g|).
  // Step 2: m = 0.09 g1 + 0.1 g2 = [0.145, 0.01, 0.08],
  //   v = 0.000999 g1^2 + 0.001 g2^2 = [0.00124975, 0.001999, 0.004996],
  //   bc1 = 0.19, bc2 = 0.001999; p2 = p1 - 0.1 (m/0.19) / sqrt(v/0.001999).
  //   Element 1: v/bc2 = 1, so p2 = -1.9 - 0.1 * 0.01/0.19 = -1.90526316.
  ag::Variable p(Tensor::from_data({3}, kP0), true);
  Adam opt({p}, {.lr = 0.1, .beta1 = 0.9, .beta2 = 0.999, .eps = 1e-8});
  const std::vector<std::vector<double>> want = {
      {0.900000002, -1.900000001, 0.4000000005},
      {0.8034818006385094, -1.9052631588421052, 0.37336629670243154}};
  for (size_t t = 0; t < 2; ++t) {
    p.grad().copy_(Tensor::from_data({3}, kGrads[t]));
    opt.step();
    expect_values(p, want[t], t == 0 ? "adam step 1" : "adam step 2");
  }
}

TEST(Optim, AdadeltaTwoStepsMatchHandComputedWeightDecay) {
  // lr 1, rho 0.9, eps 1e-6, weight decay 0.1; per element:
  //   g = grad + 0.1 p;  sq = 0.9 sq + 0.1 g^2;
  //   delta = sqrt(ad + eps) / sqrt(sq + eps) * g;
  //   ad = 0.9 ad + 0.1 delta^2;  p -= delta.
  // Step 1 (sq = ad = 0): delta = 1e-3 g / sqrt(0.1 g^2 + 1e-6)
  //   ~= sqrt(10) 1e-3 sign(g), e.g. element 0: g = 0.6, p1 = 0.99683777.
  ag::Variable p(Tensor::from_data({3}, kP0), true);
  Adadelta opt({p}, {.lr = 1.0, .rho = 0.9, .eps = 1e-6,
                     .weight_decay = 0.1});
  const std::vector<std::vector<double>> want = {
      {0.9968377662594397, -1.9968377333199052, 0.49683772610220167},
      {0.9928661782428418, -1.9994096998607231, 0.49880113773038326}};
  for (size_t t = 0; t < 2; ++t) {
    p.grad().copy_(Tensor::from_data({3}, kGrads[t]));
    opt.step();
    expect_values(p, want[t], t == 0 ? "adadelta step 1" : "adadelta step 2");
  }
}

TEST(Optim, AdadeltaFoldedGradScaleIsBitIdentical) {
  // step(0.25) on 4x-scaled grads folds the 1/4 into the gradient read;
  // power-of-two scaling is exact, so it must equal step() on the unscaled
  // grads bit for bit, state included (checked by a second step).
  ag::Variable a(Tensor::from_data({3}, kP0), true);
  ag::Variable b(Tensor::from_data({3}, kP0), true);
  const Adadelta::Options o{.lr = 1.0, .rho = 0.9, .eps = 1e-6,
                            .weight_decay = 0.1};
  Adadelta plain({a}, o), folded({b}, o);
  for (const std::vector<float>& g : kGrads) {
    a.grad().copy_(Tensor::from_data({3}, g));
    Tensor g4 = Tensor::from_data({3}, g);
    g4.mul_(4.f);
    b.grad().copy_(g4);
    plain.step();
    folded.step(0.25);
    const std::vector<float> va = a.value().to_vector();
    const std::vector<float> vb = b.value().to_vector();
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)),
              0);
  }
}

// ---- schedulers: the fused schedulers at B = 1 ------------------------------

TEST(Sched, StepLRDecaysInStages) {
  ag::Variable p(Tensor::zeros({1}), true);
  SGD opt({p}, {.lr = 1.0});
  fused::FusedStepLR sched(opt, /*step_size=*/{3}, /*gamma=*/{0.1});
  std::vector<double> lrs;
  for (int e = 0; e < 7; ++e) {
    ASSERT_EQ(opt.lr().size(), 1u);
    lrs.push_back(opt.lr()[0]);
    sched.step();
  }
  EXPECT_DOUBLE_EQ(lrs[0], 1.0);
  EXPECT_DOUBLE_EQ(lrs[2], 1.0);
  EXPECT_NEAR(lrs[3], 0.1, 1e-12);
  EXPECT_NEAR(lrs[6], 0.01, 1e-12);
}

TEST(Sched, ExponentialAndCosine) {
  ag::Variable p(Tensor::zeros({1}), true);
  SGD opt({p}, {.lr = 1.0});
  fused::FusedExponentialLR exp_sched(opt, {0.5});
  EXPECT_NEAR(exp_sched.lr_at(3)[0], 0.125, 1e-12);
  fused::FusedCosineAnnealingLR cos_sched(opt, {10}, {0.0});
  EXPECT_NEAR(cos_sched.lr_at(0)[0], 1.0, 1e-12);
  EXPECT_NEAR(cos_sched.lr_at(10)[0], 0.0, 1e-12);
  EXPECT_NEAR(cos_sched.lr_at(5)[0], 0.5, 1e-12);
}

TEST(EndToEnd, TinyMLPLearnsXor) {
  Rng rng(12);
  Sequential net;
  net.push_back(std::make_shared<Linear>(2, 16, true, rng));
  net.push_back(std::make_shared<Tanh>());
  net.push_back(std::make_shared<Linear>(16, 2, true, rng));
  Tensor x = Tensor::from_data({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor labels = Tensor::from_data({4}, {0, 1, 1, 0});
  Adam opt(net.parameters(), {.lr = 0.05});
  float last_loss = 1e9f;
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    ag::Variable loss = ag::cross_entropy(net.forward(ag::Variable(x)), labels,
                                          ag::Reduction::kMean);
    loss.backward();
    opt.step();
    last_loss = loss.value().item();
  }
  EXPECT_LT(last_loss, 0.05f);
  EXPECT_EQ(ops::accuracy(net.forward(ag::Variable(x)).value(), labels), 1.0);
}

}  // namespace
}  // namespace hfta::nn
