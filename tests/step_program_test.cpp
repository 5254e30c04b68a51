// Step-program capture/replay: a capture-enabled TrainStep must train
// bit-identically to an eager one — for EVERY kind in the LoweringRegistry
// (fresh data staged each step, parameters/buffers compared to the last
// bit), across recaptures forced by shape, array-size, and fuse-mask
// changes, and with learning-rate schedules flowing through replay without
// recapture. Replay itself must be silent: zero tensor-storage heap
// allocations and zero autograd Node constructions per replayed step. The
// same replay == eager contract is also checked op by op, for every
// differentiable op in autograd/functions.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/autocast.h"
#include "autograd/functions.h"
#include "autograd/step_program.h"
#include "core/op_counters.h"
#include "core/storage_pool.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/train.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "tensor/ops.h"

#include "kind_factories.h"

namespace hfta {
namespace {

constexpr int64_t kN = 2;  // per-model batch

// One half of a lockstep pair: a module, its SGD, its own TrainStep, and a
// staging buffer the (possibly captured) loss graph reads its data from.
struct Twin {
  std::shared_ptr<nn::Module> module;
  std::unique_ptr<nn::SGD> opt;
  TrainStep step;
  Tensor staged;
};

void init_twin(Twin& t, const tests::KindFactory& make, uint64_t seed) {
  Rng rng(seed);
  t.module = make(rng);
  t.opt = std::make_unique<nn::SGD>(
      t.module->parameters(), nn::SGD::Options{.lr = 0.05, .momentum = 0.9});
}

// One training step on fresh data: stage, forward, square-loss, SGD.
float step_once(Twin& t, const std::string& kind, const Tensor& x) {
  t.step.stage(&t.staged, x);
  ag::Variable loss = t.step.run(*t.opt, [&] {
    ag::Variable y = tests::kind_forward(*t.module, kind, t.staged);
    return ag::mean_all(ag::mul(y, y));
  });
  return loss.value().item();
}

void expect_state_equal(const nn::Module& a, const nn::Module& b,
                        const std::string& tag) {
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size()) << tag;
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(pa[i].second.value(), pb[i].second.value()),
              0.f)
        << tag << " param " << pa[i].first;
  const auto ba = nn::named_buffers_recursive(const_cast<nn::Module&>(a));
  const auto bb = nn::named_buffers_recursive(const_cast<nn::Module&>(b));
  ASSERT_EQ(ba.size(), bb.size()) << tag;
  for (size_t i = 0; i < ba.size(); ++i)
    EXPECT_EQ(ops::max_abs_diff(ba[i].second, bb[i].second), 0.f)
        << tag << " buffer " << ba[i].first;
}

TEST(StepProgram, ReplayMatchesEagerBitExactlyForEveryRegisteredKind) {
  // Every kind with a round-trip factory: 12 steps of fresh staged data,
  // one twin eager, one capturing after the default 1-step warmup (so 10
  // of the 12 steps replay). Per-step losses and final parameters/buffers
  // must agree to the last bit — replay IS the eager step.
  const int kSteps = 12;
  for (const auto& [kind, make] : tests::kind_factories()) {
    Twin eager, replay;
    init_twin(eager, make, 42);
    init_twin(replay, make, 42);
    replay.step.enable_capture();
    Rng data_e(7), data_r(7);
    for (int s = 0; s < kSteps; ++s) {
      const float le = step_once(eager, kind, tests::kind_input(kind, kN, data_e));
      const float lr = step_once(replay, kind, tests::kind_input(kind, kN, data_r));
      EXPECT_EQ(le, lr) << kind << " step " << s;
    }
    const TrainStep::Stats& st = replay.step.stats();
    EXPECT_EQ(st.captures, 1) << kind;
    EXPECT_EQ(st.replays, kSteps - 2) << kind;  // 1 warmup + 1 capture step
    EXPECT_TRUE(st.last_was_replay) << kind;
    // A replayed step allocates and records nothing: warm pool serves every
    // tensor, and no ag::Node (or backward closure) is ever constructed.
    EXPECT_EQ(st.last_heap_allocs, 0u) << kind;
    EXPECT_EQ(st.last_node_constructions, 0u) << kind;
    expect_state_equal(*eager.module, *replay.module, kind);
  }
}

TEST(StepProgram, BatchShapeChangeInvalidatesAndRecaptures) {
  // Staging a differently-shaped batch reassigns the pinned input buffer,
  // so the program must be recaptured over the new graph — and the twin
  // pair must stay bit-exact straight through the boundary.
  const auto factories = tests::kind_factories();
  const tests::KindFactory& make = factories.at("Linear");
  Twin eager, replay;
  init_twin(eager, make, 3);
  init_twin(replay, make, 3);
  replay.step.enable_capture();
  Rng data_e(11), data_r(11);
  for (int s = 0; s < 4; ++s) {
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", 2, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", 2, data_r));
    EXPECT_EQ(le, lr) << "pre-change step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 1);
  for (int s = 0; s < 4; ++s) {  // batch 2 -> 5: a reshaped loss graph
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", 5, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", 5, data_r));
    EXPECT_EQ(le, lr) << "post-change step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 2);
  EXPECT_TRUE(replay.step.stats().last_was_replay);
  expect_state_equal(*eager.module, *replay.module, "shape change");
}

TEST(StepProgram, LrScheduleFlowsThroughReplayWithoutRecapture) {
  // Scalar hypers are replay-time inputs: the real optimizer step runs
  // around every replay, so a decaying lr needs no recapture — one capture
  // total, and still not a bit of drift against the eager twin.
  const auto factories = tests::kind_factories();
  const tests::KindFactory& make = factories.at("Linear");
  Twin eager, replay;
  init_twin(eager, make, 5);
  init_twin(replay, make, 5);
  replay.step.enable_capture();
  Rng data_e(13), data_r(13);
  for (int s = 0; s < 10; ++s) {
    const double lr_s = 0.05 * std::pow(0.9, s);
    eager.opt->set_lr({lr_s});
    replay.opt->set_lr({lr_s});
    const float le = step_once(eager, "Linear", tests::kind_input("Linear", kN, data_e));
    const float lr = step_once(replay, "Linear", tests::kind_input("Linear", kN, data_r));
    EXPECT_EQ(le, lr) << "step " << s;
  }
  EXPECT_EQ(replay.step.stats().captures, 1);
  EXPECT_EQ(replay.step.stats().replays, 8);
  expect_state_equal(*eager.module, *replay.module, "lr schedule");
}

// ---- fused arrays: B and fuse-mask changes -----------------------------

std::shared_ptr<nn::Sequential> mlp(Rng& rng) {
  auto net = std::make_shared<nn::Sequential>();
  net->push_back("fc1", std::make_shared<nn::Linear>(4, 6, true, rng));
  net->push_back("relu", std::make_shared<nn::ReLU>());
  net->push_back("fc2", std::make_shared<nn::Linear>(6, 3, true, rng));
  return net;
}

// One fused config: two same-weight arrays (capture twin, eager twin) and
// their optimizers. Kept alive across configs so program slots keyed by
// optimizer address cannot collide through stack reuse.
struct FusedCfg {
  std::shared_ptr<fused::FusedArray> array_c, array_e;
  std::unique_ptr<fused::FusedSGD> opt_c, opt_e;
  Tensor x;
};

FusedCfg make_cfg(int64_t B, fused::FusionOptions fopts) {
  FusedCfg c;
  Rng rng(21);
  std::vector<std::shared_ptr<nn::Module>> donors;
  for (int64_t b = 0; b < B; ++b) donors.push_back(mlp(rng));
  Rng crng(1), erng(1);
  c.array_c = fused::FusionPlan(B, fopts).compile(donors, crng);
  c.array_e = fused::FusionPlan(B, fopts).compile(donors, erng);
  const fused::FusedSGD::Options sopts{
      .lr = fused::HyperVec(static_cast<size_t>(B), 0.05)};
  c.opt_c = std::make_unique<fused::FusedSGD>(
      fused::collect_fused_parameters(*c.array_c, B), B, sopts);
  c.opt_e = std::make_unique<fused::FusedSGD>(
      fused::collect_fused_parameters(*c.array_e, B), B, sopts);
  Rng drng(31);
  c.x = fused::pack_channel_fused(
      std::vector<Tensor>(static_cast<size_t>(B), Tensor::randn({kN, 4}, drng)));
  return c;
}

// Drives the config's twins in lockstep (fixed data, so no staging
// needed): losses must be bit-equal every step and the capturing step must
// end up replaying.
void run_fused_pair(TrainStep& cap, TrainStep& eag, FusedCfg& c,
                    const std::string& tag) {
  auto loss_on = [&c](fused::FusedArray& a) {
    return [&a, &c] {
      ag::Variable y = a.forward(ag::Variable(c.x));
      return ag::mean_all(ag::mul(y, y));
    };
  };
  for (int s = 0; s < 6; ++s) {
    const float lc = cap.run(*c.opt_c, loss_on(*c.array_c)).value().item();
    const float le = eag.run(*c.opt_e, loss_on(*c.array_e)).value().item();
    EXPECT_EQ(lc, le) << tag << " step " << s;
  }
  EXPECT_TRUE(cap.stats().last_was_replay) << tag;
}

TEST(StepProgram, ArraySizeAndFuseMaskChangesGetFreshPrograms) {
  // Three configs through ONE capture-enabled TrainStep: B=2 fully fused,
  // B=3 (array-size change), and B=2 with the middle unit masked off
  // (fuse-mask change). Each new array/optimizer pair fingerprints
  // differently, so each gets its own program — three captures, three live
  // programs, no cross-talk, and bit-exactness against eager throughout.
  TrainStep cap;
  cap.enable_capture();
  TrainStep eag;
  FusedCfg b2 = make_cfg(2, {});
  run_fused_pair(cap, eag, b2, "B=2 fused");
  EXPECT_EQ(cap.stats().captures, 1);
  EXPECT_EQ(cap.program_count(), 1);
  FusedCfg b3 = make_cfg(3, {});
  run_fused_pair(cap, eag, b3, "B=3 fused");
  EXPECT_EQ(cap.stats().captures, 2);
  EXPECT_EQ(cap.program_count(), 2);
  fused::FusionOptions masked;
  masked.fuse_mask = {true, false, true};
  FusedCfg b2m = make_cfg(2, masked);
  run_fused_pair(cap, eag, b2m, "B=2 masked");
  EXPECT_EQ(cap.stats().captures, 3);
  EXPECT_EQ(cap.program_count(), 3);
  // A retired optimizer's program is dropped individually; the rest stay.
  cap.drop_program(b3.opt_c.get());
  EXPECT_EQ(cap.program_count(), 2);
  cap.invalidate_programs();
  EXPECT_EQ(cap.program_count(), 0);
}

// ---- every op: replay == eager -------------------------------------------

// One differentiable op under test. `leaves` are the shapes of its
// differentiable inputs; `consts` draws its non-differentiable inputs
// (labels, targets, masks, indices). Both are refilled with fresh data every
// step, so a replayed kernel that leans on anything but its inputs — a stale
// or assumed-zero output buffer above all — shows up as a bit difference.
using Leaves = std::vector<ag::Variable>;
using Consts = std::vector<Tensor>;
struct OpCase {
  std::string name;
  std::vector<Shape> leaves;
  std::function<ag::Variable(const Leaves&, const Consts&)> op;
  std::function<Consts(Rng&)> consts = nullptr;
  bool positive = false;  // leaves drawn from [0.5, 2): log, sqrt, pow, div
  bool amp = false;       // GEMM/conv/cast class: also run under autocast
};

Tensor int_tensor(Rng& r, const Shape& shape, int64_t n) {
  Tensor t = Tensor::empty(shape);
  for (int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = static_cast<float>(r.uniform_int(n));
  return t;
}

std::vector<OpCase> op_cases() {
  using ag::Variable;
  const ops::ConvTransposeArgs ct{.stride = 2, .pad = 1, .out_pad = 1,
                                  .groups = 1};
  const ops::ConvTransposeArgs ct1{.stride = 2, .pad = 1, .out_pad = 0,
                                   .groups = 2};
  std::vector<OpCase> c = {
      {"cast_bf16", {{3, 5}},
       [](const Leaves& v, const Consts&) {
         return ag::cast(v[0], DType::kBF16);
       }, nullptr, false, true},
      {"cast_f16", {{3, 5}},
       [](const Leaves& v, const Consts&) {
         return ag::cast(v[0], DType::kF16);
       }, nullptr, false, true},
      {"add", {{3, 4}, {3, 4}},
       [](const Leaves& v, const Consts&) { return ag::add(v[0], v[1]); }},
      {"add_broadcast", {{3, 4}, {4}},
       [](const Leaves& v, const Consts&) { return ag::add(v[0], v[1]); }},
      {"sub", {{2, 3, 4}, {3, 1}},
       [](const Leaves& v, const Consts&) { return ag::sub(v[0], v[1]); }},
      {"mul", {{2, 3, 4}, {3, 1}},
       [](const Leaves& v, const Consts&) { return ag::mul(v[0], v[1]); }},
      {"div", {{3, 4}, {3, 4}},
       [](const Leaves& v, const Consts&) { return ag::div(v[0], v[1]); },
       nullptr, true},
      {"add_scalar", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::add_scalar(v[0], 0.75f);
       }},
      {"mul_scalar", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::mul_scalar(v[0], -1.5f);
       }},
      {"neg", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::neg(v[0]); }},
      {"exp", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::exp(v[0]); }},
      {"log", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::log(v[0]); },
       nullptr, true},
      {"sqrt", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::sqrt(v[0]); },
       nullptr, true},
      {"pow_scalar", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::pow_scalar(v[0], 1.7f);
       }, nullptr, true},
      {"tanh", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::tanh(v[0]); }},
      {"sigmoid", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::sigmoid(v[0]); }},
      {"relu", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::relu(v[0]); }},
      {"relu6", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::relu6(ag::mul_scalar(v[0], 4.f));
       }},
      {"leaky_relu", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::leaky_relu(v[0], 0.2f);
       }},
      {"hardswish", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::hardswish(ag::mul_scalar(v[0], 3.f));
       }},
      {"hardsigmoid", {{3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::hardsigmoid(ag::mul_scalar(v[0], 3.f));
       }},
      {"gelu", {{3, 4}},
       [](const Leaves& v, const Consts&) { return ag::gelu(v[0]); }},
      {"matmul", {{3, 4}, {4, 5}},
       [](const Leaves& v, const Consts&) { return ag::matmul(v[0], v[1]); },
       nullptr, false, true},
      {"bmm", {{2, 3, 4}, {2, 4, 5}},
       [](const Leaves& v, const Consts&) { return ag::bmm(v[0], v[1]); },
       nullptr, false, true},
      {"bmm_nt", {{2, 3, 4}, {2, 5, 4}},
       [](const Leaves& v, const Consts&) { return ag::bmm_nt(v[0], v[1]); },
       nullptr, false, true},
      {"baddbmm", {{2, 1, 5}, {2, 3, 4}, {2, 4, 5}},
       [](const Leaves& v, const Consts&) {
         return ag::baddbmm(v[0], v[1], v[2]);
       }, nullptr, false, true},
      {"linear", {{2, 3, 4}, {5, 4}, {5}},
       [](const Leaves& v, const Consts&) {
         return ag::linear(v[0], v[1], v[2]);
       }, nullptr, false, true},
      {"linear_nobias", {{3, 4}, {5, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::linear(v[0], v[1], Variable());
       }, nullptr, false, true},
      {"conv2d", {{2, 4, 5, 5}, {6, 2, 3, 3}, {6}},
       [](const Leaves& v, const Consts&) {
         return ag::conv2d(v[0], v[1], v[2], ops::ConvArgs::make(1, 1, 2));
       }, nullptr, false, true},
      {"conv1d", {{2, 4, 7}, {6, 4, 3}, {6}},
       [](const Leaves& v, const Consts&) {
         return ag::conv1d(v[0], v[1], v[2], 2, 1, 1);
       }, nullptr, false, true},
      {"conv_transpose2d", {{2, 4, 3, 3}, {4, 3, 3, 3}, {3}},
       [ct](const Leaves& v, const Consts&) {
         return ag::conv_transpose2d(v[0], v[1], v[2], ct);
       }, nullptr, false, true},
      {"conv_transpose1d", {{2, 4, 5}, {4, 3, 3}, {6}},
       [ct1](const Leaves& v, const Consts&) {
         return ag::conv_transpose1d(v[0], v[1], v[2], ct1);
       }, nullptr, false, true},
      {"max_pool2d", {{2, 3, 6, 6}},
       [](const Leaves& v, const Consts&) {
         return ag::max_pool2d(v[0], ops::PoolArgs{3, 2, 1});
       }},
      {"avg_pool2d", {{2, 3, 6, 6}},
       [](const Leaves& v, const Consts&) {
         return ag::avg_pool2d(v[0], ops::PoolArgs{2, 2, 0});
       }},
      {"adaptive_avg_pool2d", {{2, 3, 5, 7}},
       [](const Leaves& v, const Consts&) {
         return ag::adaptive_avg_pool2d(v[0], 2, 3);
       }},
      {"global_max_pool1d", {{2, 3, 9}},
       [](const Leaves& v, const Consts&) {
         return ag::global_max_pool1d(v[0]);
       }},
      {"reshape", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::reshape(ag::exp(v[0]), {6, 4});
       }},
      {"transpose", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::transpose(v[0], 0, 2);
       }},
      {"permute", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::permute(v[0], {2, 0, 1});
       }},
      {"concat", {{2, 3, 4}, {2, 2, 4}},
       [](const Leaves& v, const Consts&) { return ag::concat(v, 1); }},
      {"slice", {{2, 5, 3}},
       [](const Leaves& v, const Consts&) { return ag::slice(v[0], 1, 1, 4); }},
      {"chunk", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         std::vector<Variable> parts = ag::chunk(v[0], 2, -1);
         return ag::mul(parts[0], parts[1]);
       }},
      {"sum_dims", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::sum(v[0], {0, 2}, false);
       }},
      {"sum_keepdim", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) { return ag::sum(v[0], {1}, true); }},
      {"mean", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) {
         return ag::mean(v[0], {-1}, false);
       }},
      {"sum_all", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) { return ag::sum_all(v[0]); }},
      {"mean_all", {{2, 3, 4}},
       [](const Leaves& v, const Consts&) { return ag::mean_all(v[0]); }},
      {"softmax", {{3, 5}},
       [](const Leaves& v, const Consts&) { return ag::softmax(v[0], 1); }},
      {"log_softmax", {{2, 3, 5}},
       [](const Leaves& v, const Consts&) {
         return ag::log_softmax(v[0], -1);
       }},
      {"embedding", {{7, 3}},
       [](const Leaves& v, const Consts& k) {
         return ag::embedding(k[0], v[0]);
       },
       [](Rng& r) { return Consts{int_tensor(r, {2, 4}, 7)}; }},
      {"mul_mask", {{3, 4}},
       [](const Leaves& v, const Consts& k) {
         return ag::mul_mask(v[0], k[0]);
       },
       [](Rng& r) {
         return Consts{ops::mul_scalar(int_tensor(r, {3, 4}, 2), 2.f)};
       }},
  };
  // Losses, per reduction: the 2-D and the [N, C, d] NLL layouts.
  const std::pair<const char*, ag::Reduction> reds[] = {
      {"mean", ag::Reduction::kMean},
      {"sum", ag::Reduction::kSum},
      {"none", ag::Reduction::kNone}};
  for (const auto& [rname, red] : reds) {
    const std::string sfx = std::string("_") + rname;
    c.push_back({"nll_loss" + sfx, {{4, 5}},
                 [red = red](const Leaves& v, const Consts& k) {
                   return ag::nll_loss(ag::log_softmax(v[0], 1), k[0], red);
                 },
                 [](Rng& r) { return Consts{int_tensor(r, {4}, 5)}; }});
    c.push_back({"nll_loss_3d" + sfx, {{2, 5, 3}},
                 [red = red](const Leaves& v, const Consts& k) {
                   return ag::nll_loss(v[0], k[0], red);
                 },
                 [](Rng& r) { return Consts{int_tensor(r, {2, 3}, 5)}; }});
    c.push_back({"cross_entropy" + sfx, {{4, 5}},
                 [red = red](const Leaves& v, const Consts& k) {
                   return ag::cross_entropy(v[0], k[0], red);
                 },
                 [](Rng& r) { return Consts{int_tensor(r, {4}, 5)}; }});
    c.push_back({"bce_with_logits" + sfx, {{3, 4}},
                 [red = red](const Leaves& v, const Consts& k) {
                   return ag::bce_with_logits(v[0], k[0], red);
                 },
                 [](Rng& r) { return Consts{Tensor::rand({3, 4}, r)}; }});
    c.push_back({"mse_loss" + sfx, {{3, 4}},
                 [red = red](const Leaves& v, const Consts& k) {
                   return ag::mse_loss(v[0], k[0], red);
                 },
                 [](Rng& r) { return Consts{Tensor::randn({3, 4}, r)}; }});
  }
  return c;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape() || a.dtype() != b.dtype()) return false;
  const void* pa = a.dtype() == DType::kF32
                       ? static_cast<const void*>(a.data())
                       : static_cast<const void*>(a.data_u16());
  const void* pb = b.dtype() == DType::kF32
                       ? static_cast<const void*>(b.data())
                       : static_cast<const void*>(b.data_u16());
  return std::memcmp(pa, pb, static_cast<size_t>(a.byte_size())) == 0;
}

// Fresh leaf and const data for one step; both twins draw from equal
// streams, so they see the same data every step.
std::pair<Consts, Consts> draw(const OpCase& c, Rng& r) {
  Consts leaves, consts;
  for (const Shape& s : c.leaves)
    leaves.push_back(c.positive ? Tensor::rand(s, r, 0.5f, 2.f)
                                : Tensor::randn(s, r));
  if (c.consts) consts = c.consts(r);
  return {leaves, consts};
}

// sum(y * w) for a fixed random w: every output element gets its own
// gradient weight, so a wrong element cannot hide in the loss.
ag::Variable weighted_loss(const ag::Variable& y, Tensor& w) {
  if (!w.defined()) {
    Rng wr(99);
    w = Tensor::randn(y.shape(), wr);
  }
  return ag::sum_all(ag::mul(ag::cast(y, DType::kF32), ag::constant(w)));
}

void run_op_case(const OpCase& c, DType amp) {
  const std::string tag = c.name + (amp == DType::kF32
                                        ? std::string()
                                        : std::string(" amp ") +
                                              dtype_name(amp));
  auto autocast = [amp](std::optional<ag::AutocastGuard>& g) {
    if (amp != DType::kF32) g.emplace(amp);
  };
  constexpr int kSteps = 4;  // one capture, three replays
  Rng data_e(17), data_r(17);
  Tensor w;
  ag::Engine eager_engine;
  // The replaying twin: leaves and consts staged in place every step.
  ag::StepProgram prog;
  ag::Engine capture_engine;
  Leaves leaves_r;
  Consts consts_r;
  ag::Variable y_r;
  for (int s = 0; s < kSteps; ++s) {
    // The replaying twin runs first, so the eager twin's live step cannot
    // hold the pool buffers a replay needs.
    auto [lr, kr] = draw(c, data_r);
    if (s == 0) {
      consts_r = kr;
      for (const Tensor& t : lr) leaves_r.emplace_back(t, true);
      ag::Variable loss;
      {
        ag::StepProgram::CaptureGuard cg(prog);
        std::optional<ag::AutocastGuard> g;
        autocast(g);
        y_r = c.op(leaves_r, consts_r);
        loss = weighted_loss(y_r, w);
      }
      prog.finish_capture(capture_engine, loss);
    } else {
      for (size_t i = 0; i < lr.size(); ++i)
        leaves_r[i].mutable_value().copy_(lr[i]);
      for (size_t i = 0; i < kr.size(); ++i) consts_r[i].copy_(kr[i]);
      const uint64_t nodes = counters::node_constructions();
      const uint64_t allocs = StoragePool::instance().stats().heap_allocs;
      prog.replay();
      EXPECT_EQ(counters::node_constructions() - nodes, 0u) << tag;
      EXPECT_EQ(StoragePool::instance().stats().heap_allocs - allocs, 0u)
          << tag << " step " << s;
    }
    // The eager twin: a fresh graph over fresh leaves.
    auto [le, ke] = draw(c, data_e);
    Leaves leaves_e;
    for (const Tensor& t : le) leaves_e.emplace_back(t, true);
    ag::Variable y_e;
    {
      std::optional<ag::AutocastGuard> g;
      autocast(g);
      y_e = c.op(leaves_e, ke);
    }
    eager_engine.run(weighted_loss(y_e, w));
    EXPECT_TRUE(same_bits(y_e.value(), y_r.value()))
        << tag << " output, step " << s;
    for (size_t i = 0; i < leaves_e.size(); ++i)
      EXPECT_TRUE(same_bits(leaves_e[i].grad(), leaves_r[i].grad()))
          << tag << " grad " << i << ", step " << s;
  }
}

TEST(StepProgram, ReplayMatchesEagerBitExactlyForEveryOp) {
  // Each op is captured once and replayed for three more steps of fresh
  // data; output and every input gradient must memcmp-equal an eager twin.
  // The GEMM/conv/cast class repeats under bf16 and f16 autocast.
  for (const OpCase& c : op_cases()) {
    run_op_case(c, DType::kF32);
    if (c.amp) {
      run_op_case(c, DType::kBF16);
      run_op_case(c, DType::kF16);
    }
  }
}

}  // namespace
}  // namespace hfta
