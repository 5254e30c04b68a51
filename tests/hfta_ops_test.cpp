// Fusion-rule equivalence property tests (paper Appendix B, Table 6).
//
// For every fused operator, sweeping the array size B: the fused op applied
// to the packed inputs of B models with distinct weights must equal the B
// unfused ops applied per model — forward AND backward (parameter
// gradients) — to float tolerance. This is the mathematical-equivalence
// guarantee HFTA's convergence claim rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "hfta/fused_attention.h"
#include "hfta/fused_norm.h"
#include "hfta/fused_ops.h"
#include "hfta/fusion.h"
#include "tensor/ops.h"

namespace hfta::fused {
namespace {

constexpr float kTol = 1e-3f;

class FusionB : public ::testing::TestWithParam<int64_t> {};

// Sums y*probe for a deterministic scalar to backprop (probe fixed).
ag::Variable probe_loss(const ag::Variable& y, const Tensor& probe) {
  return ag::sum_all(ag::mul(y, ag::constant(probe)));
}

TEST_P(FusionB, LayoutRoundTrip) {
  const int64_t B = GetParam();
  Rng rng(100 + B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({2, 3, 4}, rng));
  Tensor packed = pack_channel_fused(xs);  // [2, B*3, 4]
  EXPECT_EQ(packed.shape(), (Shape{2, B * 3, 4}));
  auto back = unpack_channel_fused(packed, B);
  for (int64_t b = 0; b < B; ++b)
    EXPECT_EQ(ops::max_abs_diff(back[static_cast<size_t>(b)],
                                xs[static_cast<size_t>(b)]),
              0.f);
  // channel-fused -> model-major -> channel-fused round trip.
  ag::Variable mm = to_model_major(ag::constant(packed), B);
  EXPECT_EQ(mm.shape(), (Shape{B, 2, 3, 4}));
  for (int64_t b = 0; b < B; ++b) {
    Tensor per = mm.value().slice(0, b, b + 1).reshape({2, 3, 4});
    EXPECT_EQ(ops::max_abs_diff(per, xs[static_cast<size_t>(b)]), 0.f);
  }
  ag::Variable cf = to_channel_fused(mm);
  EXPECT_EQ(ops::max_abs_diff(cf.value(), packed), 0.f);
}

TEST_P(FusionB, Conv2dForwardAndBackward) {
  const int64_t B = GetParam();
  Rng rng(200 + B);
  const int64_t N = 2, Cin = 3, Cout = 5, H = 7, W = 7, k = 3;
  std::vector<std::shared_ptr<nn::Conv2d>> plain;
  std::vector<Tensor> xs, probes;
  FusedConv2d fused(B, Cin, Cout, k, /*stride=*/2, /*pad=*/1, /*groups=*/1,
                    /*bias=*/true, rng);
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Conv2d>(Cin, Cout, k, 2, 1, 1, true,
                                                 rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({N, Cin, H, W}, rng));
  }
  Tensor xf = pack_channel_fused(xs);
  ag::Variable yf = fused.forward(ag::Variable(xf));
  Tensor probe_f = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe_f).backward();
  auto probes_per = unpack_channel_fused(probe_f, B);

  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->forward(ag::Variable(xs[ub]));
    // forward equivalence
    Tensor yf_b = unpack_channel_fused(yf.value(), B)[ub];
    EXPECT_LT(ops::max_abs_diff(yf_b, yb.value()), kTol) << "model " << b;
    // backward equivalence (weight + bias grads)
    probe_loss(yb, probes_per[ub]).backward();
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B,
                                plain[ub]->weight.shape())[ub];
    EXPECT_LT(ops::max_abs_diff(gw_f, plain[ub]->weight.grad()), kTol);
    Tensor gb_f =
        unfuse_blocks(fused.bias.grad(), B, plain[ub]->bias.shape())[ub];
    EXPECT_LT(ops::max_abs_diff(gb_f, plain[ub]->bias.grad()), kTol);
  }
}

TEST_P(FusionB, Conv2dGroupedBecomesBTimesGroups) {
  // Per-model grouped conv (g=2) fuses into B*2 groups.
  const int64_t B = GetParam();
  Rng rng(300 + B);
  const int64_t Cin = 4, Cout = 6, g = 2;
  FusedConv2d fused(B, Cin, Cout, 3, 1, 1, g, true, rng);
  EXPECT_EQ(fused.fused_args.groups, B * g);
  std::vector<std::shared_ptr<nn::Conv2d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(
        std::make_shared<nn::Conv2d>(Cin, Cout, 3, 1, 1, g, true, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, 5, 5}, rng));
  }
  Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_per = unpack_channel_fused(yf, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    EXPECT_LT(ops::max_abs_diff(yf_per[ub], yb), kTol);
  }
}

TEST_P(FusionB, Conv1dEquivalence) {
  const int64_t B = GetParam();
  Rng rng(400 + B);
  const int64_t Cin = 3, Cout = 4, L = 12;
  FusedConv1d fused(B, Cin, Cout, 3, 1, 1, 1, true, rng);
  std::vector<std::shared_ptr<nn::Conv1d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(
        std::make_shared<nn::Conv1d>(Cin, Cout, 3, 1, 1, 1, true, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, L}, rng));
  }
  Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_per = unpack_channel_fused(yf, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    EXPECT_LT(ops::max_abs_diff(yf_per[ub], yb), kTol);
  }
}

TEST_P(FusionB, ConvTranspose2dEquivalence) {
  const int64_t B = GetParam();
  Rng rng(500 + B);
  const int64_t Cin = 6, Cout = 4;
  FusedConvTranspose2d fused(B, Cin, Cout, 4, 2, 1, 0, 1, true, rng);
  std::vector<std::shared_ptr<nn::ConvTranspose2d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::ConvTranspose2d>(Cin, Cout, 4, 2, 1,
                                                          0, 1, true, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({2, Cin, 5, 5}, rng));
  }
  ag::Variable yf_v = fused.forward(ag::Variable(pack_channel_fused(xs)));
  Tensor probe = Tensor::randn(yf_v.shape(), rng);
  probe_loss(yf_v, probe).backward();
  auto yf_per = unpack_channel_fused(yf_v.value(), B);
  auto probes = unpack_channel_fused(probe, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->forward(ag::Variable(xs[ub]));
    EXPECT_LT(ops::max_abs_diff(yf_per[ub], yb.value()), kTol);
    probe_loss(yb, probes[ub]).backward();
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B,
                                plain[ub]->weight.shape())[ub];
    EXPECT_LT(ops::max_abs_diff(gw_f, plain[ub]->weight.grad()), kTol);
  }
}

TEST_P(FusionB, LinearEquivalenceViaBaddbmm) {
  const int64_t B = GetParam();
  Rng rng(600 + B);
  const int64_t N = 4, in = 5, out = 3;
  FusedLinear fused(B, in, out, true, rng);
  std::vector<std::shared_ptr<nn::Linear>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Linear>(in, out, true, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({N, in}, rng));
  }
  ag::Variable yf = fused.forward(ag::Variable(pack_model_major(xs)));
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->forward(ag::Variable(xs[ub]));
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({N, out});
    EXPECT_LT(ops::max_abs_diff(yf_b, yb.value()), kTol);
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({N, out})).backward();
    // fused weight block is [in, out] = plain [out, in] transposed
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B, {in, out})[ub];
    EXPECT_LT(ops::max_abs_diff(gw_f.transpose(0, 1),
                                plain[ub]->weight.grad()),
              kTol);
    Tensor gb_f = unfuse_blocks(fused.bias.grad(), B, {out})[ub];
    EXPECT_LT(ops::max_abs_diff(gb_f, plain[ub]->bias.grad()), kTol);
  }
}

// One row per leaf kind with per-model state: a fused module of array size
// B and a congruent per-model layer.
struct LeafKind {
  const char* name;
  std::function<std::shared_ptr<FusedModule>(int64_t B, Rng&)> fused;
  std::function<std::shared_ptr<nn::Module>(Rng&)> plain;
};

std::vector<LeafKind> leaf_kinds() {
  using std::make_shared;
  return {
      {"Conv2d",
       [](int64_t B, Rng& r) {
         return make_shared<FusedConv2d>(B, 3, 4, 3, 1, 1, 1, true, r);
       },
       [](Rng& r) {
         return make_shared<nn::Conv2d>(3, 4, 3, 1, 1, 1, true, r);
       }},
      {"Conv1d",
       [](int64_t B, Rng& r) {
         return make_shared<FusedConv1d>(B, 3, 4, 2, 1, 0, 1, true, r);
       },
       [](Rng& r) {
         return make_shared<nn::Conv1d>(3, 4, 2, 1, 0, 1, true, r);
       }},
      {"ConvTranspose2d",
       [](int64_t B, Rng& r) {
         return make_shared<FusedConvTranspose2d>(B, 4, 3, 4, 2, 1, 0, 1,
                                                  true, r);
       },
       [](Rng& r) {
         return make_shared<nn::ConvTranspose2d>(4, 3, 4, 2, 1, 0, 1, true, r);
       }},
      {"ConvTranspose1d",
       [](int64_t B, Rng& r) {
         return make_shared<FusedConvTranspose1d>(B, 4, 3, 4, 2, 1, 0, 1,
                                                  true, r);
       },
       [](Rng& r) {
         return make_shared<nn::ConvTranspose1d>(4, 3, 4, 2, 1, 0, 1, true, r);
       }},
      {"Linear",
       [](int64_t B, Rng& r) {
         return make_shared<FusedLinear>(B, 4, 3, true, r);
       },
       [](Rng& r) { return make_shared<nn::Linear>(4, 3, true, r); }},
      {"Embedding",
       [](int64_t B, Rng& r) {
         return make_shared<FusedEmbedding>(B, 7, 4, r);
       },
       [](Rng& r) { return make_shared<nn::Embedding>(7, 4, r); }},
      {"BatchNorm2d",
       [](int64_t B, Rng&) { return make_shared<FusedBatchNorm2d>(B, 4); },
       [](Rng&) { return make_shared<nn::BatchNorm2d>(4); }},
      {"BatchNorm1d",
       [](int64_t B, Rng&) { return make_shared<FusedBatchNorm1d>(B, 4); },
       [](Rng&) { return make_shared<nn::BatchNorm1d>(4); }},
      {"LayerNorm",
       [](int64_t B, Rng& r) {
         return make_shared<FusedLayerNorm>(B, Shape{5}, 1e-5f, r);
       },
       [](Rng& r) { return make_shared<nn::LayerNorm>(Shape{5}, 1e-5f, r); }},
  };
}

// Every parameter and buffer of `m`, as storage-sharing handles.
std::vector<std::pair<std::string, Tensor>> state_tensors(
    const nn::Module& m) {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, var] : m.named_parameters())
    out.emplace_back(name, var.value());
  for (const auto& [name, t] : nn::named_buffers_recursive(m))
    out.emplace_back(name, t);
  return out;
}

// Overwrites all state (BatchNorm running stats included) with random
// values, so no tensor keeps its constructor default.
void randomize_state(const nn::Module& m, Rng& rng) {
  for (auto& [name, t] : state_tensors(m))
    t.copy_(Tensor::randn(t.shape(), rng));
}

bool bitwise_equal(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

TEST_P(FusionB, LeafStateRoundTrip) {
  const int64_t B = GetParam();
  Rng rng(650 + B);
  for (const LeafKind& kind : leaf_kinds()) {
    for (const int64_t b : {int64_t{0}, B - 1}) {
      SCOPED_TRACE(std::string(kind.name) + " b=" + std::to_string(b));
      std::shared_ptr<FusedModule> fused = kind.fused(B, rng);
      randomize_state(*fused, rng);
      std::shared_ptr<nn::Module> src = kind.plain(rng);
      std::shared_ptr<nn::Module> dst = kind.plain(rng);
      randomize_state(*src, rng);
      randomize_state(*dst, rng);
      const auto fused_state = state_tensors(*fused);
      std::vector<Tensor> before;
      for (const auto& [name, t] : fused_state) before.push_back(t.clone());

      fused->load_model(b, *src);
      // Only model b's block may change.
      for (size_t i = 0; i < fused_state.size(); ++i) {
        const Tensor& t = fused_state[i].second;
        const int64_t block = t.numel() / B;
        for (int64_t o = 0; o < B; ++o) {
          if (o == b) continue;
          EXPECT_TRUE(bitwise_equal(t.data() + o * block,
                                    before[i].data() + o * block, block))
              << fused_state[i].first << ": model " << o << "'s block changed";
        }
      }

      fused->store_model(b, *dst);
      const auto src_state = state_tensors(*src);
      const auto dst_state = state_tensors(*dst);
      ASSERT_EQ(src_state.size(), dst_state.size());
      for (size_t i = 0; i < src_state.size(); ++i) {
        const Tensor& want = src_state[i].second;
        const Tensor& got = dst_state[i].second;
        ASSERT_EQ(want.shape(), got.shape()) << src_state[i].first;
        EXPECT_TRUE(bitwise_equal(want.data(), got.data(), want.numel()))
            << src_state[i].first << " did not round-trip";
      }
    }
  }
}

TEST_P(FusionB, StateTransferRejectsBadIndexAndMismatchedModule) {
  const int64_t B = GetParam();
  Rng rng(660 + B);
  for (const LeafKind& kind : leaf_kinds()) {
    SCOPED_TRACE(kind.name);
    std::shared_ptr<FusedModule> fused = kind.fused(B, rng);
    std::shared_ptr<nn::Module> m = kind.plain(rng);
    EXPECT_THROW(fused->load_model(B, *m), hfta::Error);
    EXPECT_THROW(fused->load_model(-1, *m), hfta::Error);
    EXPECT_THROW(fused->store_model(B, *m), hfta::Error);
  }
  // A per-model layer of another size is a runtime error, not a silent
  // partial copy.
  FusedLinear fused(B, 4, 3, true, rng);
  nn::Linear wrong(5, 3, true, rng);
  EXPECT_THROW(fused.load_model(0, wrong), hfta::Error);
  EXPECT_THROW(fused.store_model(0, wrong), hfta::Error);
}

TEST_P(FusionB, BatchNorm2dTrainingAndEval) {
  const int64_t B = GetParam();
  Rng rng(700 + B);
  const int64_t C = 3;
  FusedBatchNorm2d fused(B, C);
  std::vector<std::shared_ptr<nn::BatchNorm2d>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::BatchNorm2d>(C));
    // randomize affine so models differ
    plain.back()->weight.mutable_value().copy_(Tensor::randn({C}, rng));
    plain.back()->bias.mutable_value().copy_(Tensor::randn({C}, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({4, C, 5, 5}, rng));
  }
  // training mode: batch statistics per (model, channel)
  Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_per = unpack_channel_fused(yf, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    EXPECT_LT(ops::max_abs_diff(yf_per[ub], yb), kTol);
  }
  // running stats updated identically -> eval mode also matches
  fused.eval();
  Tensor yf_eval = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
  auto yf_eval_per = unpack_channel_fused(yf_eval, B);
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    plain[ub]->eval();
    Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
    EXPECT_LT(ops::max_abs_diff(yf_eval_per[ub], yb), kTol);
  }
}

TEST_P(FusionB, BatchNorm1dOn2dAnd3dInputs) {
  const int64_t B = GetParam();
  Rng rng(800 + B);
  const int64_t C = 4;
  {
    FusedBatchNorm1d fused(B, C);
    std::vector<std::shared_ptr<nn::BatchNorm1d>> plain;
    std::vector<Tensor> xs;
    for (int64_t b = 0; b < B; ++b) {
      plain.push_back(std::make_shared<nn::BatchNorm1d>(C));
      plain.back()->weight.mutable_value().copy_(Tensor::randn({C}, rng));
      fused.load_model(b, *plain.back());
      xs.push_back(Tensor::randn({6, C}, rng));
    }
    Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
    auto per = unpack_channel_fused(yf, B);
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
      EXPECT_LT(ops::max_abs_diff(per[ub], yb), kTol);
    }
  }
  {
    FusedBatchNorm1d fused(B, C);
    std::vector<std::shared_ptr<nn::BatchNorm1d>> plain;
    std::vector<Tensor> xs;
    for (int64_t b = 0; b < B; ++b) {
      plain.push_back(std::make_shared<nn::BatchNorm1d>(C));
      plain.back()->bias.mutable_value().copy_(Tensor::randn({C}, rng));
      fused.load_model(b, *plain.back());
      xs.push_back(Tensor::randn({3, C, 7}, rng));
    }
    Tensor yf = fused.forward(ag::Variable(pack_channel_fused(xs))).value();
    auto per = unpack_channel_fused(yf, B);
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      Tensor yb = plain[ub]->forward(ag::Variable(xs[ub])).value();
      EXPECT_LT(ops::max_abs_diff(per[ub], yb), kTol);
    }
  }
}

TEST_P(FusionB, LayerNormPerModelAffine) {
  const int64_t B = GetParam();
  Rng rng(900 + B);
  const int64_t N = 3, E = 5;
  FusedLayerNorm fused(B, {E}, 1e-5f, rng);
  std::vector<std::shared_ptr<nn::LayerNorm>> plain;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::LayerNorm>(Shape{E}, 1e-5f, rng));
    plain.back()->weight.mutable_value().copy_(Tensor::randn({E}, rng));
    plain.back()->bias.mutable_value().copy_(Tensor::randn({E}, rng));
    fused.load_model(b, *plain.back());
    xs.push_back(Tensor::randn({N, E}, rng));
  }
  ag::Variable yf = fused.forward(ag::Variable(pack_model_major(xs)));
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->forward(ag::Variable(xs[ub]));
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({N, E});
    EXPECT_LT(ops::max_abs_diff(yf_b, yb.value()), kTol);
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({N, E})).backward();
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B, {E})[ub];
    EXPECT_LT(ops::max_abs_diff(gw_f, plain[ub]->weight.grad()), kTol);
  }
}

TEST_P(FusionB, EmbeddingWithIndexOffsets) {
  const int64_t B = GetParam();
  Rng rng(1000 + B);
  const int64_t V = 7, E = 4, L = 5;
  FusedEmbedding fused(B, V, E, rng);
  std::vector<std::shared_ptr<nn::Embedding>> plain;
  std::vector<Tensor> idxs;
  for (int64_t b = 0; b < B; ++b) {
    plain.push_back(std::make_shared<nn::Embedding>(V, E, rng));
    fused.load_model(b, *plain.back());
    Tensor idx({L});
    for (int64_t i = 0; i < L; ++i)
      idx.data()[i] = static_cast<float>(rng.uniform_int(V));
    idxs.push_back(idx);
  }
  Tensor fused_idx = pack_model_major(idxs);  // [B, L]
  ag::Variable yf = fused.lookup(fused_idx);  // [B, L, E]
  Tensor probe = Tensor::randn(yf.shape(), rng);
  probe_loss(yf, probe).backward();
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    ag::Variable yb = plain[ub]->lookup(idxs[ub]);
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({L, E});
    EXPECT_LT(ops::max_abs_diff(yf_b, yb.value()), kTol);
    probe_loss(yb, probe.slice(0, b, b + 1).reshape({L, E})).backward();
    Tensor gw_f = unfuse_blocks(fused.weight.grad(), B, {V, E})[ub];
    EXPECT_LT(ops::max_abs_diff(gw_f, plain[ub]->weight.grad()), kTol);
  }
}

TEST_P(FusionB, PoolingOnFusedLayout) {
  const int64_t B = GetParam();
  Rng rng(1100 + B);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b)
    xs.push_back(Tensor::randn({2, 3, 8, 8}, rng));
  Tensor xf = pack_channel_fused(xs);
  {
    FusedMaxPool2d fused(B, 2, 2);
    nn::MaxPool2d plain(2, 2);
    Tensor yf = fused.forward(ag::Variable(xf)).value();
    auto per = unpack_channel_fused(yf, B);
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      EXPECT_LT(ops::max_abs_diff(
                    per[ub], plain.forward(ag::Variable(xs[ub])).value()),
                kTol);
    }
  }
  {
    FusedAdaptiveAvgPool2d fused(B, 2, 2);
    nn::AdaptiveAvgPool2d plain(2, 2);
    Tensor yf = fused.forward(ag::Variable(xf)).value();
    auto per = unpack_channel_fused(yf, B);
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      EXPECT_LT(ops::max_abs_diff(
                    per[ub], plain.forward(ag::Variable(xs[ub])).value()),
                kTol);
    }
  }
}

TEST_P(FusionB, DropoutEvalIdentityOnFusedLayout) {
  const int64_t B = GetParam();
  Rng rng(1200 + B);
  Tensor x = Tensor::randn({2, B * 3, 4, 4}, rng);
  FusedDropout2d drop(B, 0.5f);
  drop.eval();
  EXPECT_EQ(ops::max_abs_diff(drop.forward(ag::Variable(x)).value(), x), 0.f);
  drop.train();
  Tensor y = drop.forward(ag::Variable(x)).value();
  // channel-granular: each (n, fused channel) plane all-zero or x*2
  for (int64_t n = 0; n < 2; ++n)
    for (int64_t c = 0; c < B * 3; ++c) {
      const bool dropped = y.at({n, c, 0, 0}) == 0.f && x.at({n, c, 0, 0}) != 0.f;
      for (int64_t h = 0; h < 4; ++h)
        for (int64_t w = 0; w < 4; ++w) {
          if (dropped) {
            EXPECT_EQ(y.at({n, c, h, w}), 0.f);
          } else {
            EXPECT_NEAR(y.at({n, c, h, w}), 2.f * x.at({n, c, h, w}), 1e-5f);
          }
        }
    }
}

TEST_P(FusionB, UnfusedBlockAdapterMatchesFusion) {
  // Partial-fusion adapter: per-model replicas on the fused layout produce
  // the same values as the fused op (the math is fusion-invariant).
  const int64_t B = GetParam();
  Rng rng(1300 + B);
  const int64_t Cin = 3, Cout = 4;
  FusedConv2d fused(B, Cin, Cout, 3, 1, 1, 1, true, rng);
  std::vector<std::shared_ptr<nn::Module>> reps;
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) {
    auto conv = std::make_shared<nn::Conv2d>(Cin, Cout, 3, 1, 1, 1, true, rng);
    fused.load_model(b, *conv);
    reps.push_back(conv);
    xs.push_back(Tensor::randn({2, Cin, 6, 6}, rng));
  }
  UnfusedBlockAdapter adapter(B, reps);
  Tensor xf = pack_channel_fused(xs);
  Tensor y_fused = fused.forward(ag::Variable(xf)).value();
  Tensor y_adapter = adapter.forward(ag::Variable(xf)).value();
  EXPECT_LT(ops::max_abs_diff(y_fused, y_adapter), kTol);
}

TEST_P(FusionB, CollectFusedParametersValidates) {
  const int64_t B = GetParam();
  Rng rng(1400 + B);
  FusedConv2d fused(B, 3, 4, 3, 1, 1, 1, true, rng);
  auto fps = collect_fused_parameters(fused, B);
  EXPECT_EQ(fps.size(), 2u);
  for (const auto& fp : fps) EXPECT_EQ(fp.array_size, B);
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, FusionB, ::testing::Values(1, 2, 3, 5, 8));

// ---- attention / transformer fusion (compared against an inline plain
// reference built from the same autograd primitives) --------------------------

ag::Variable plain_mha(const ag::Variable& x, const ag::Variable& wi,
                       const ag::Variable& bi, const ag::Variable& wo,
                       const ag::Variable& bo, int64_t H) {
  // x: [N, S, E]; wi: [E, 3E] (fused-layout block), bi: [3E].
  const int64_t N = x.size(0), S = x.size(1), E = x.size(2);
  const int64_t Dh = E / H;
  ag::Variable flat = ag::reshape(x, {N * S, E});
  ag::Variable qkv =
      ag::add(ag::matmul(flat, wi), bi);  // [N*S, 3E]
  auto parts = ag::chunk(qkv, 3, 1);
  auto heads = [&](const ag::Variable& t) {
    ag::Variable r = ag::reshape(t, {N, S, H, Dh});
    r = ag::permute(r, {0, 2, 1, 3});
    return ag::reshape(r, {N * H, S, Dh});
  };
  ag::Variable q = heads(parts[0]), k = heads(parts[1]), v = heads(parts[2]);
  ag::Variable scores = ag::mul_scalar(
      ag::bmm_nt(q, k), 1.f / std::sqrt(static_cast<float>(Dh)));
  ag::Variable ctx = ag::bmm(ag::softmax(scores, -1), v);
  ctx = ag::reshape(ctx, {N, H, S, Dh});
  ctx = ag::permute(ctx, {0, 2, 1, 3});
  ctx = ag::reshape(ctx, {N * S, E});
  ag::Variable out = ag::add(ag::matmul(ctx, wo), bo);
  return ag::reshape(out, {N, S, E});
}

TEST_P(FusionB, MultiheadAttentionEquivalence) {
  const int64_t B = GetParam();
  Rng rng(1500 + B);
  const int64_t N = 2, S = 4, E = 8, H = 2;
  FusedMultiheadAttention fused(B, E, H, rng);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({N, S, E}, rng));
  ag::Variable yf = fused.forward(ag::Variable(pack_model_major(xs)));
  for (int64_t b = 0; b < B; ++b) {
    const size_t ub = static_cast<size_t>(b);
    // Extract model b's projection weights from the fused modules.
    Tensor wi = fused.in_proj->weight.value().slice(0, b, b + 1)
                    .reshape({E, 3 * E});
    Tensor bi = fused.in_proj->bias.value().slice(0, b, b + 1)
                    .reshape({3 * E});
    Tensor wo = fused.out_proj->weight.value().slice(0, b, b + 1)
                    .reshape({E, E});
    Tensor bo = fused.out_proj->bias.value().slice(0, b, b + 1).reshape({E});
    ag::Variable yb =
        plain_mha(ag::Variable(xs[ub]), ag::Variable(wi), ag::Variable(bi),
                  ag::Variable(wo), ag::Variable(bo), H);
    Tensor yf_b = yf.value().slice(0, b, b + 1).reshape({N, S, E});
    EXPECT_LT(ops::max_abs_diff(yf_b, yb.value()), kTol) << "model " << b;
  }
}

TEST_P(FusionB, TransformerEncoderLayerRunsAndIsModelSeparable) {
  // Cross-model independence: perturbing model 0's input must not change
  // any other model's output (the fused encoder has no cross-model paths).
  const int64_t B = GetParam();
  if (B < 2) GTEST_SKIP() << "needs at least two models";
  Rng rng(1600 + B);
  const int64_t N = 2, S = 3, E = 8;
  FusedTransformerEncoderLayer layer(B, E, 2, 16, /*dropout=*/0.f, "relu", rng);
  std::vector<Tensor> xs;
  for (int64_t b = 0; b < B; ++b) xs.push_back(Tensor::randn({N, S, E}, rng));
  Tensor y1 = layer.forward(ag::Variable(pack_model_major(xs))).value();
  xs[0].add_(Tensor::full(xs[0].shape(), 0.5f));
  Tensor y2 = layer.forward(ag::Variable(pack_model_major(xs))).value();
  // model 0 changed
  EXPECT_GT(ops::max_abs_diff(y1.slice(0, 0, 1), y2.slice(0, 0, 1)), 1e-4f);
  // all other models unchanged
  for (int64_t b = 1; b < B; ++b)
    EXPECT_LT(ops::max_abs_diff(y1.slice(0, b, b + 1), y2.slice(0, b, b + 1)),
              1e-6f);
}

}  // namespace
}  // namespace hfta::fused
