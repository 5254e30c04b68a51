// The two steady training loops: a fused array of B models against the same
// B models trained one after another, both captured and replayed.
//
//   mlp_b8_replay    deep-narrow fused MLP, fp32 FusedAdam vs 8 nn::Adam
//                    twins, fixed staged input, 2 lanes
//   pointnet_b8_amp  FusedPointNetCls under f16 autocast + dynamic loss
//                    scaling, batches streamed from a shuffled
//                    PointCloudDataset through TrainStep::stage, 2 lanes
//
// Throughput comes from alternating slices: a fused slice of k steps, then
// a serial slice of k steps for each of the B models, with the order
// flipped every round, so host frequency drift hits both sides alike. The
// serial side has one TrainStep per model (its own engine, programs and
// loss scaler), as B separate jobs would. After the timed window the fused
// parameters and buffers must equal the serial ones bit for bit.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "autograd/autocast.h"
#include "common.h"
#include "core/parallel.h"
#include "data/datasets.h"
#include "data/loader.h"
#include "hfta/fused_optim.h"
#include "hfta/loss_scaling.h"
#include "hfta/train.h"
#include "models/pointnet.h"
#include "nn/optim.h"

namespace perfbench {
namespace {

using namespace hfta;

// Optimizers that put a span around every step the TrainStep takes.
class TracedFusedAdam : public fused::FusedAdam {
 public:
  using fused::FusedAdam::FusedAdam;
  void step() override {
    ScopedSpan s(tracer, "optim.fused_step");
    fused::FusedAdam::step();
  }
  void step(double grad_scale) override {
    ScopedSpan s(tracer, "optim.fused_step");
    fused::FusedAdam::step(grad_scale);
  }
  Tracer* tracer = nullptr;
};

class TracedAdam : public nn::Adam {
 public:
  using nn::Adam::Adam;
  void step() override {
    ScopedSpan s(tracer, "optim.serial_step");
    nn::Adam::step();
  }
  void step(double grad_scale) override {
    ScopedSpan s(tracer, "optim.serial_step");
    nn::Adam::step(grad_scale);
  }
  Tracer* tracer = nullptr;
};

bool bits_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  const std::vector<float> va = a.to_vector(), vb = b.to_vector();
  return std::memcmp(va.data(), vb.data(), va.size() * sizeof(float)) == 0;
}

/// Compares every parameter and buffer of two congruent per-model trees;
/// returns the first differing path, or "" when all match bit for bit.
std::string first_difference(const nn::Module& fused_copy,
                             const nn::Module& serial) {
  const auto pa = fused_copy.named_parameters();
  const auto pb = serial.named_parameters();
  if (pa.size() != pb.size()) return "parameter count";
  for (size_t i = 0; i < pa.size(); ++i)
    if (!bits_equal(pa[i].second.value(), pb[i].second.value()))
      return pa[i].first;
  const auto ba = nn::named_buffers_recursive(fused_copy);
  const auto bb = nn::named_buffers_recursive(serial);
  if (ba.size() != bb.size()) return "buffer count";
  for (size_t i = 0; i < ba.size(); ++i)
    if (!bits_equal(ba[i].second, bb[i].second)) return ba[i].first;
  return "";
}

/// Per-model learning rates: distinct, so a slot mix-up cannot pass the
/// audit.
fused::HyperVec learning_rates(int64_t B) {
  fused::HyperVec lrs;
  for (int64_t b = 0; b < B; ++b)
    lrs.push_back(2e-4 * static_cast<double>(b + 1));
  return lrs;
}

/// One fused array plus its B serial twins. Subclasses build the models
/// and supply the loss builders and data staging; this class drives the
/// steps and puts spans around the library calls.
class SteadyBench {
 public:
  virtual ~SteadyBench() = default;

  /// GEMM-class FLOPs of one fused step (forward + 2x for backward).
  virtual double flops_per_step() const = 0;
  /// Empty when fused == serial bit for bit, else what differs.
  virtual std::vector<std::string> audit() = 0;

  void set_tracer(Tracer* t) {
    tracer_ = t;
    fused_opt_->tracer = t;
    for (auto& o : serial_opts_) o->tracer = t;
  }

  void fused_step() {
    if (tracer_ != nullptr) tracer_->set_step(fused_steps_);
    ScopedSpan it(tracer_, "train.iter");
    stage_fused();
    ScopedSpan run(tracer_, "train.run");
    fused_ts_.run(*fused_opt_, [this] {
      ScopedSpan fwd(tracer_, "models.forward");
      return fused_loss();
    });
    ++fused_steps_;
  }

  void serial_step(size_t b) {
    ScopedSpan it(tracer_, "train.serial_iter");
    stage_serial(b);
    ScopedSpan run(tracer_, "train.serial_run");
    serial_ts_[b]->run(*serial_opts_[b], [this, b] {
      ScopedSpan fwd(tracer_, "models.serial_forward");
      return serial_loss(b);
    });
  }

  /// The fused warmup: eager steps, then the step that captures. Returns
  /// the duration of the capturing run() call in ms.
  double warm_fused() {
    double capture_ms = 0;
    while (fused_ts_.stats().captures == 0) {
      const int64_t t0 = now_ns();
      ScopedSpan cap(tracer_, "train.warmup");
      fused_step();
      if (fused_ts_.stats().captures > 0)
        capture_ms = static_cast<double>(now_ns() - t0) / 1e6;
    }
    return capture_ms;
  }

  /// Brings every serial twin to the fused side's step count.
  void warm_serial() {
    for (size_t b = 0; b < serial_ts_.size(); ++b)
      for (int64_t s = 0; s < fused_steps_; ++s) serial_step(b);
  }

  /// Hand-assembled eager fused step (zero_grad, forward, backward through
  /// TrainStep::backward, optimizer step): the only place the backward
  /// pass can be timed on its own. Trains this instance away from its
  /// twins, so it runs only on a discarded set-up instance.
  void eager_probe_step() {
    if (tracer_ != nullptr) tracer_->set_step(fused_steps_);
    stage_fused();
    fused_opt_->zero_grad();
    ag::Variable loss;
    {
      ScopedSpan fwd(tracer_, "models.forward");
      std::unique_ptr<ag::AutocastGuard> cast;
      if (fused_ts_.amp_enabled())
        cast = std::make_unique<ag::AutocastGuard>(fused_ts_.amp_dtype());
      loss = fused_loss();
    }
    {
      ScopedSpan bwd(tracer_, "autograd.backward");
      probe_ts_.backward(loss);
    }
    fused_opt_->step();
    ++fused_steps_;
  }

  const TrainStep& fused_train_step() const { return fused_ts_; }
  int64_t array_size() const { return B_; }
  int64_t samples_per_model() const { return N_; }

 protected:
  SteadyBench(int64_t B, int64_t N) : B_(B), N_(N) {}

  void init_training(
      std::vector<fused::FusedParam> fused_params,
      const std::vector<std::vector<ag::Variable>>& serial_params,
      const TrainStep::AmpOptions* amp) {
    const fused::HyperVec lrs = learning_rates(B_);
    fused_opt_ = std::make_unique<TracedFusedAdam>(
        std::move(fused_params), B_, fused::FusedAdam::Options{.lr = lrs});
    fused_ts_.enable_capture();
    if (amp != nullptr) fused_ts_.enable_amp(*amp);
    for (int64_t b = 0; b < B_; ++b) {
      const size_t ub = static_cast<size_t>(b);
      serial_opts_.push_back(std::make_unique<TracedAdam>(
          serial_params[ub], nn::Adam::Options{.lr = lrs[ub]}));
      serial_ts_.push_back(std::make_unique<TrainStep>());
      serial_ts_.back()->enable_capture();
      if (amp != nullptr) serial_ts_.back()->enable_amp(*amp);
    }
  }

  /// Per-model mean cross-entropy of model-major logits, built as
  /// (1/N) * sum so its backward scales every row by the same float(1/N)
  /// the serial kMean loss uses.
  ag::Variable fused_mean_ce(const ag::Variable& logits,
                             const Tensor& labels) const {
    return ag::mul_scalar(
        fused::fused_cross_entropy(logits, labels, ag::Reduction::kSum),
        1.f / static_cast<float>(N_));
  }

  virtual void stage_fused() {}
  virtual void stage_serial(size_t) {}
  virtual ag::Variable fused_loss() = 0;
  virtual ag::Variable serial_loss(size_t b) = 0;

  int64_t B_, N_;
  Tracer* tracer_ = nullptr;
  TrainStep fused_ts_;
  TrainStep probe_ts_;
  std::unique_ptr<TracedFusedAdam> fused_opt_;
  std::vector<std::unique_ptr<TracedAdam>> serial_opts_;
  std::vector<std::unique_ptr<TrainStep>> serial_ts_;
  int64_t fused_steps_ = 0;
};

// ---- mlp_b8_replay ----------------------------------------------------------

constexpr int64_t kMlpB = 8, kMlpIn = 16, kMlpHidden = 16, kMlpDepth = 8,
                  kMlpClasses = 4, kMlpN = 8;

struct SerialMlp : nn::Module {
  explicit SerialMlp(Rng& rng) {
    int64_t prev = kMlpIn;
    for (int64_t d = 0; d < kMlpDepth; ++d) {
      layers.push_back(register_module(
          "fc" + std::to_string(d),
          std::make_shared<nn::Linear>(prev, kMlpHidden, true, rng)));
      prev = kMlpHidden;
    }
    head = register_module(
        "head", std::make_shared<nn::Linear>(prev, kMlpClasses, true, rng));
  }
  ag::Variable forward(const ag::Variable& x) override {
    ag::Variable h = x;
    for (auto& l : layers) h = ag::relu(l->forward(h));
    return head->forward(h);
  }
  std::vector<std::shared_ptr<nn::Linear>> layers;
  std::shared_ptr<nn::Linear> head;
};

struct FusedMlp : fused::FusedModule {
  FusedMlp(int64_t B, Rng& rng) : fused::FusedModule(B) {
    int64_t prev = kMlpIn;
    for (int64_t d = 0; d < kMlpDepth; ++d) {
      layers.push_back(register_module(
          "fc" + std::to_string(d),
          std::make_shared<fused::FusedLinear>(B, prev, kMlpHidden, true,
                                               rng)));
      prev = kMlpHidden;
    }
    head = register_module("head", std::make_shared<fused::FusedLinear>(
                                       B, prev, kMlpClasses, true, rng));
  }
  ag::Variable forward(const ag::Variable& x) override {
    ag::Variable h = x;
    for (auto& l : layers) h = ag::relu(l->forward(h));
    return head->forward(h);
  }
  std::vector<std::shared_ptr<fused::FusedLinear>> layers;
  std::shared_ptr<fused::FusedLinear> head;
};

class MlpBench : public SteadyBench {
 public:
  MlpBench(uint64_t seed, Tracer* t) : SteadyBench(kMlpB, kMlpN) {
    tracer_ = t;
    Rng rng(seed);
    for (int64_t b = 0; b < B_; ++b)
      serial_.push_back(std::make_shared<SerialMlp>(rng));
    {
      ScopedSpan compile(t, "fusion.compile");
      Rng init_rng(seed ^ 0x9e3779b97f4a7c15ULL);
      fused_ = std::make_unique<FusedMlp>(B_, init_rng);
      for (int64_t b = 0; b < B_; ++b) {
        const SerialMlp& m = *serial_[static_cast<size_t>(b)];
        for (size_t d = 0; d < m.layers.size(); ++d)
          fused_->layers[d]->load_model(b, *m.layers[d]);
        fused_->head->load_model(b, *m.head);
      }
    }
    std::vector<std::vector<ag::Variable>> serial_params;
    for (const auto& m : serial_) serial_params.push_back(m->parameters());
    init_training(fused::collect_fused_parameters(*fused_, B_), serial_params,
                  nullptr);

    Rng data_rng(seed + 1);
    const Tensor x = Tensor::randn({N_, kMlpIn}, data_rng);
    Tensor y({N_});
    for (int64_t n = 0; n < N_; ++n)
      y.at({n}) = static_cast<float>(data_rng.next_u64() % kMlpClasses);
    Tensor labels({B_, N_});
    for (int64_t b = 0; b < B_; ++b)
      for (int64_t n = 0; n < N_; ++n) labels.at({b, n}) = y.at({n});
    // Fixed input, staged once: every replay reads the same buffers.
    fused_ts_.stage(&fused_x_,
                    fused::pack_model_major(std::vector<Tensor>(B_, x)));
    fused_ts_.stage(&fused_labels_, labels);
    serial_x_.resize(serial_.size());
    serial_y_.resize(serial_.size());
    for (size_t b = 0; b < serial_.size(); ++b) {
      serial_ts_[b]->stage(&serial_x_[b], x);
      serial_ts_[b]->stage(&serial_y_[b], y);
    }
  }

  double flops_per_step() const override {
    const double per_sample =
        2.0 * (kMlpIn * kMlpHidden + (kMlpDepth - 1) * kMlpHidden * kMlpHidden +
               kMlpHidden * kMlpClasses);
    return 3.0 * per_sample * static_cast<double>(N_ * B_);
  }

  std::vector<std::string> audit() override {
    std::vector<std::string> bad;
    for (int64_t b = 0; b < B_; ++b) {
      Rng probe_rng(1);
      SerialMlp copy(probe_rng);
      for (size_t d = 0; d < copy.layers.size(); ++d)
        fused_->layers[d]->store_model(b, *copy.layers[d]);
      fused_->head->store_model(b, *copy.head);
      const std::string diff =
          first_difference(copy, *serial_[static_cast<size_t>(b)]);
      if (!diff.empty())
        bad.push_back("mlp model " + std::to_string(b) + ": fused " + diff +
                      " != serial");
    }
    return bad;
  }

 protected:
  ag::Variable fused_loss() override {
    return fused_mean_ce(fused_->forward(ag::Variable(fused_x_)),
                         fused_labels_);
  }
  ag::Variable serial_loss(size_t b) override {
    return ag::cross_entropy(serial_[b]->forward(ag::Variable(serial_x_[b])),
                             serial_y_[b], ag::Reduction::kMean);
  }

 private:
  std::vector<std::shared_ptr<SerialMlp>> serial_;
  std::unique_ptr<FusedMlp> fused_;
  Tensor fused_x_, fused_labels_;
  std::vector<Tensor> serial_x_, serial_y_;
};

// ---- pointnet_b8_amp --------------------------------------------------------

constexpr int64_t kPnB = 8, kPnN = 16, kPnDataset = 256;

models::PointNetConfig pointnet_config() {
  models::PointNetConfig cfg;
  cfg.num_points = 128;
  cfg.w1 = 32;
  cfg.w2 = 64;
  cfg.w3 = 128;
  cfg.fc1 = 64;
  cfg.fc2 = 32;
  cfg.num_classes = 8;
  cfg.input_transform = false;
  cfg.dropout_p = 0.f;
  return cfg;
}

/// An endless shuffled batch stream; two streams with one seed yield the
/// same batches, which is how the fused side and every serial twin see the
/// same data at the same step.
class BatchStream {
 public:
  BatchStream(int64_t dataset, int64_t batch, uint64_t seed)
      : sampler_(dataset, batch, true, seed) {}
  const std::vector<int64_t>& next() {
    if (pos_ == epoch_.size()) {
      epoch_ = sampler_.epoch();
      pos_ = 0;
    }
    return epoch_[pos_++];
  }

 private:
  data::BatchSampler sampler_;
  std::vector<std::vector<int64_t>> epoch_;
  size_t pos_ = 0;
};

class PointNetBench : public SteadyBench {
 public:
  PointNetBench(uint64_t seed, Tracer* t)
      : SteadyBench(kPnB, kPnN),
        cfg_(pointnet_config()),
        ds_(kPnDataset, cfg_.num_points, cfg_.num_classes, cfg_.num_parts,
            seed),
        fused_stream_(kPnDataset, kPnN, seed + 2) {
    tracer_ = t;
    Rng rng(seed);
    for (int64_t b = 0; b < B_; ++b) {
      serial_.push_back(std::make_shared<models::PointNetCls>(cfg_, rng));
      serial_streams_.emplace_back(kPnDataset, kPnN, seed + 2);
    }
    {
      ScopedSpan compile(t, "fusion.compile");
      Rng template_rng(seed ^ 0x9e3779b97f4a7c15ULL);
      fused_ = std::make_unique<models::FusedPointNetCls>(B_, cfg_,
                                                          template_rng);
      for (int64_t b = 0; b < B_; ++b)
        fused_->load_model(b, *serial_[static_cast<size_t>(b)]);
    }
    std::vector<std::vector<ag::Variable>> serial_params;
    for (const auto& m : serial_) serial_params.push_back(m->parameters());
    TrainStep::AmpOptions amp;
    amp.dtype = DType::kF16;
    init_training(fused::collect_fused_parameters(*fused_, B_), serial_params,
                  &amp);
    serial_x_.resize(serial_.size());
    serial_y_.resize(serial_.size());
  }

  double flops_per_step() const override {
    const double L = static_cast<double>(cfg_.num_points);
    const double conv = 2.0 * L *
                        (3.0 * cfg_.w1 + cfg_.w1 * cfg_.w2 + cfg_.w2 * cfg_.w3);
    const double fc = 2.0 * (cfg_.w3 * cfg_.fc1 + cfg_.fc1 * cfg_.fc2 +
                             cfg_.fc2 * cfg_.num_classes);
    return 3.0 * (conv + fc) * static_cast<double>(N_ * B_);
  }

  std::vector<std::string> audit() override {
    std::vector<std::string> bad;
    for (int64_t b = 0; b < B_; ++b) {
      const auto& twin = serial_[static_cast<size_t>(b)];
      auto copy = std::static_pointer_cast<models::PointNetCls>(twin->clone());
      fused_->array->save_model(b, *copy->net);
      const std::string diff = first_difference(*copy->net, *twin->net);
      if (!diff.empty())
        bad.push_back("pointnet model " + std::to_string(b) + ": fused " +
                      diff + " != serial");
    }
    // The same loss-scale trajectory on both sides is part of the contract.
    for (size_t b = 0; b < serial_ts_.size(); ++b)
      if (serial_ts_[b]->scaler().scale() != fused_ts_.scaler().scale())
        bad.push_back("pointnet model " + std::to_string(b) +
                      ": loss scale differs from the fused array's");
    return bad;
  }

 protected:
  void stage_fused() override {
    ScopedSpan data(tracer_, "data.batch");
    auto [x, y] = ds_.batch_cls(fused_stream_.next());
    Tensor labels({B_, N_});
    for (int64_t b = 0; b < B_; ++b)
      for (int64_t n = 0; n < N_; ++n) labels.at({b, n}) = y.at({n});
    fused_ts_.stage(&fused_x_,
                    fused::pack_channel_fused(std::vector<Tensor>(B_, x)));
    fused_ts_.stage(&fused_labels_, labels);
  }
  void stage_serial(size_t b) override {
    ScopedSpan data(tracer_, "data.serial_batch");
    auto [x, y] = ds_.batch_cls(serial_streams_[b].next());
    serial_ts_[b]->stage(&serial_x_[b], x);
    serial_ts_[b]->stage(&serial_y_[b], y);
  }
  ag::Variable fused_loss() override {
    return fused_mean_ce(fused_->forward(ag::Variable(fused_x_)),
                         fused_labels_);
  }
  ag::Variable serial_loss(size_t b) override {
    return ag::cross_entropy(serial_[b]->forward(ag::Variable(serial_x_[b])),
                             serial_y_[b], ag::Reduction::kMean);
  }

 private:
  models::PointNetConfig cfg_;
  data::PointCloudDataset ds_;
  BatchStream fused_stream_;
  std::vector<BatchStream> serial_streams_;
  std::vector<std::shared_ptr<models::PointNetCls>> serial_;
  std::unique_ptr<models::FusedPointNetCls> fused_;
  Tensor fused_x_, fused_labels_;
  std::vector<Tensor> serial_x_, serial_y_;
};

// ---- the shared measurement loop --------------------------------------------

struct SteadySpec {
  const char* name;
  int lanes;
  int64_t slice_steps;   // k: fused steps per fused slice
  int setup_reps;        // set-ups per run; setup_s is their median
  int64_t gemm_m, gemm_n, gemm_k, gemm_count;  // dominant GEMM shape
  int64_t bn_B, bn_channels, bn_N, bn_L;       // BatchNorm probe shape
};

using Factory = std::function<std::unique_ptr<SteadyBench>(uint64_t, Tracer*)>;

Result run_steady(const Options& opts, const SteadySpec& spec,
                  const Factory& make) {
  set_num_threads(spec.lanes);
  Result res;
  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>(20000);
  Tracer* const t = tracer.get();

  // One set-up: construction through both sides' warmup and capture, up to
  // the first timed step, from a trimmed pool. The first builds the
  // instance the window times; the other setup_reps - 1 run after the
  // window, away from the start of the process and the build check before
  // it, which otherwise weigh on every repeat at once.
  std::vector<double> setup_s, capture_ms;
  const auto set_up = [&] {
    trim_pool();
    if (t != nullptr) t->set_phase("setup");
    const int64_t t0 = now_ns();
    std::unique_ptr<SteadyBench> b;
    {
      ScopedSpan setup(t, "setup");
      b = make(opts.seed, t);
      capture_ms.push_back(b->warm_fused());
      b->warm_serial();
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    b->set_tracer(nullptr);
    return b;
  };
  std::unique_ptr<SteadyBench> bench = set_up();

  // Slice kinds of one round; odd rounds run them in reverse order. The
  // traced run adds traced slices of both sides (the serial ones keep the
  // two sides at equal step counts for the audit).
  struct Kind {
    bool fused;
    bool traced;
  };
  std::vector<Kind> kinds = {{true, false}, {false, false}};
  if (t != nullptr) kinds = {{true, true}, {true, false}, {false, true},
                             {false, false}};

  const int64_t B = bench->array_size();
  const int64_t k = spec.slice_steps;
  std::vector<double> fused_slice, serial_slice, traced_slice, ratios, step_ms;
  Counters fused_counts;
  int64_t plain_fused_steps = 0, steps_run = 0;
  CpuWindow cpu;
  cpu.start();
  const int64_t deadline =
      now_ns() + static_cast<int64_t>(opts.seconds * 1e9);
  for (int64_t round = 0;; ++round) {
    double f_round = 0, s_round = 0;
    for (size_t i = 0; i < kinds.size(); ++i) {
      const Kind kind = kinds[round % 2 == 0 ? i : kinds.size() - 1 - i];
      bench->set_tracer(kind.traced ? t : nullptr);
      if (kind.traced)
        t->set_phase(kind.fused ? "fused_steps" : "serial_steps");
      const Counters c0 = Counters::read();
      const int64_t t0 = now_ns();
      if (kind.fused) {
        for (int64_t s = 0; s < k; ++s) {
          const int64_t s0 = now_ns();
          bench->fused_step();
          if (!kind.traced)
            step_ms.push_back(static_cast<double>(now_ns() - s0) / 1e6);
        }
        steps_run += k;
      } else {
        for (int64_t b = 0; b < B; ++b)
          for (int64_t s = 0; s < k; ++s)
            bench->serial_step(static_cast<size_t>(b));
        steps_run += B * k;
      }
      const double dt = static_cast<double>(now_ns() - t0);
      if (kind.fused && kind.traced) {
        traced_slice.push_back(dt);
      } else if (kind.fused) {
        fused_slice.push_back(dt);
        f_round = dt;
        fused_counts += Counters::read() - c0;
        plain_fused_steps += k;
      } else if (!kind.traced) {
        serial_slice.push_back(dt);
        s_round = dt;
      }
    }
    ratios.push_back(s_round / f_round);
    if (now_ns() >= deadline && round >= 1) break;
  }
  cpu.stop();
  bench->set_tracer(nullptr);

  // Audit: fused == serial, bit for bit, after the timed run.
  res.attempted = steps_run + 1;
  for (const std::string& bad : bench->audit()) res.fail(bad);

  // What the per-layer metrics read from the timed instance, before the
  // eager probe trains it away from its twins.
  const double samples =
      static_cast<double>(B * bench->samples_per_model() * k);
  const double flops_per_step = bench->flops_per_step();
  const TrainStep::Stats ts = bench->fused_train_step().stats();
  const bool amp = bench->fused_train_step().amp_enabled();
  const double scale = bench->fused_train_step().scaler().scale();
  const double cached_mb =
      static_cast<double>(StoragePool::instance().stats().cached_bytes) /
      (1024.0 * 1024.0);
  if (t != nullptr) {
    // Eager probe: two untraced warm steps, then five traced.
    t->set_phase("eager_probe");
    for (int s = 0; s < 7; ++s) {
      bench->set_tracer(s < 2 ? nullptr : t);
      bench->eager_probe_step();
    }
  }
  const double peak_mb = peak_rss_mb();
  bench.reset();
  while (static_cast<int>(setup_s.size()) < spec.setup_reps) set_up();

  // Throughput is priced at the 10th-percentile slice of each side: other
  // load on the host only ever adds time to a slice, so the fast tail is the
  // code's own cost, and it moves far less from run to run than the median.
  const double fused_fast_ns = quantile(fused_slice, 0.1);
  const double step_p50 = quantile(step_ms, 0.5);
  res.note("rounds", static_cast<double>(ratios.size()));
  res.note("slice_steps", static_cast<double>(k));
  res.note("step_samples", static_cast<double>(step_ms.size()));
  res.note("setup_reps", static_cast<double>(setup_s.size()));
  res.note("audit", res.failed == 0 ? "fused == serial bitwise" : "MISMATCH");

  if (t == nullptr) {
    res.add("fusion_speedup", median(ratios), "x");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peak_mb, "MiB");
    return res;
  }

  // ---- per-layer metrics (traced run) ----
  const auto per_call_ms = [&](const char* phase, const char* name) {
    const LayerTotals lt = t->totals_of(phase, name);
    return lt.calls > 0 ? lt.total_ns / 1e6 / static_cast<double>(lt.calls)
                        : 0.0;
  };
  const LayerTotals run_tot = t->totals_of("fused_steps", "train.run");
  const LayerTotals opt_tot = t->totals_of("fused_steps", "optim.fused_step");
  const double traced_ns = [&] {
    double s = 0;
    for (double v : traced_slice) s += v;
    return s;
  }();
  const double pf = static_cast<double>(plain_fused_steps);

  res.add("array_samples_per_s", samples / (fused_fast_ns / 1e9), "1/s");
  res.add("serial_samples_per_s",
          samples / (quantile(serial_slice, 0.1) / 1e9), "1/s");
  res.add("tune_s", 0.0, "s");  // no tuning loop in this workload
  res.add("step_ms_p50", step_p50, "ms");
  res.add("step_ms_p90", quantile(step_ms, 0.9), "ms");
  res.add("parallel.launch_us", probe_launch_us(64), "us");
  res.add("parallel.sys_cpu_frac", cpu.sys_s() / (cpu.user_s() + cpu.sys_s()),
          "fraction");
  res.add("parallel.cpu_util",
          (cpu.user_s() + cpu.sys_s()) / (cpu.wall_s() * spec.lanes),
          "fraction");
  res.add("pool.heap_allocs_per_step",
          static_cast<double>(fused_counts.heap_allocs) / pf, "count");
  res.add("pool.hits_per_step",
          static_cast<double>(fused_counts.pool_hits) / pf, "count");
  res.add("pool.cached_mb", cached_mb, "MiB");
  res.add("autograd.nodes_per_step",
          static_cast<double>(fused_counts.nodes) / pf, "count");
  res.add("autograd.backward_ms",
          per_call_ms("eager_probe", "autograd.backward"), "ms");
  res.add("step_program.replay_ms",
          run_tot.calls > 0 ? (run_tot.total_ns - opt_tot.total_ns) / 1e6 /
                                  static_cast<double>(run_tot.calls)
                            : 0.0,
          "ms");
  res.add("train.capture_ms", median(capture_ms), "ms");
  res.add("models.forward_ms", per_call_ms("eager_probe", "models.forward"),
          "ms");
  res.add("optim.fused_step_ms",
          per_call_ms("fused_steps", "optim.fused_step"), "ms");
  res.add("optim.serial_step_ms",
          per_call_ms("serial_steps", "optim.serial_step"), "ms");
  res.add("norm.bn_fwd_bwd_ms",
          probe_bn_fwd_bwd_ms(spec.bn_B, spec.bn_channels, spec.bn_N,
                              spec.bn_L),
          "ms");
  res.add("vec.gemm_gflops",
          probe_gemm_gflops(spec.gemm_m, spec.gemm_n, spec.gemm_k,
                            spec.gemm_count),
          "GFLOP/s");
  res.add("step.achieved_gflops", flops_per_step / (step_p50 * 1e6),
          "GFLOP/s");
  res.add("amp.skip_frac",
          ts.steps > 0 ? static_cast<double>(ts.amp_overflow_skips) /
                             static_cast<double>(ts.steps)
                       : 0.0,
          "fraction");
  res.add("amp.final_scale_log2",
          amp ? std::log2(scale) : 0.0,
          "log2");
  res.add("data.batch_ms", per_call_ms("fused_steps", "data.batch"), "ms");
  res.add("fusion.compile_ms", per_call_ms("setup", "fusion.compile"), "ms");
  // The tuning loop is not part of this workload.
  for (const char* name : {"hfht.round_s_p50", "hfht.round_s_max"})
    res.add(name, 0.0, "s");
  for (const char* name :
       {"hfht.rounds", "hfht.arrays_compiled", "hfht.arrays_repacked",
        "hfht.multi_source_repacks", "hfht.captures", "hfht.replays"})
    res.add(name, 0.0, "count");
  res.add("trace.step_ms", median(traced_slice) / 1e6 / static_cast<double>(k),
          "ms");
  res.add("trace.overhead_frac",
          median(traced_slice) / median(fused_slice) - 1.0, "fraction");
  // The named layers' self times must account for the traced steps' wall
  // time. train.iter, the root of every step, is left out: its self time is
  // whatever the named layers do not cover.
  const double attributed =
      (t->phase_self_ns("fused_steps") -
       t->totals_of("fused_steps", "train.iter").self_ns) /
      traced_ns;
  res.add("trace.attributed_frac", attributed, "fraction");
  if (std::fabs(attributed - 1.0) > 0.1)
    res.fail("per-layer self times cover " + std::to_string(attributed) +
             " of the traced step wall time (must be within 10%)");

  res.note("traced_fused_steps",
           static_cast<double>(traced_slice.size() * static_cast<size_t>(k)));
  res.note("kept_spans", static_cast<double>(t->kept_spans()));
  const std::string stem =
      opts.out_dir + "/" + spec.name + "-seed" + std::to_string(opts.seed);
  if (!t->write_chrome_trace(stem + ".trace.json") ||
      !t->write_summary(stem + ".summary.json", "fused_steps", traced_ns))
    res.fail("cannot write trace files under " + opts.out_dir);
  res.note("trace_file", stem + ".trace.json");
  return res;
}

}  // namespace

Result run_mlp_b8_replay(const Options& opts) {
  // Dominant GEMM: one hidden layer, once per model. The model has no
  // BatchNorm; the probe runs at pointnet_b8_amp's largest BN shape.
  const models::PointNetConfig pn = pointnet_config();
  const SteadySpec spec{"mlp_b8_replay", 2, 25, 101,
                        kMlpN, kMlpHidden, kMlpHidden, kMlpB,
                        kPnB, pn.w3, kPnN, pn.num_points};
  return run_steady(opts, spec, [](uint64_t seed, Tracer* t) {
    return std::make_unique<MlpBench>(seed, t);
  });
}

Result run_pointnet_b8_amp(const Options& opts) {
  const models::PointNetConfig cfg = pointnet_config();
  // Dominant GEMM: conv3 (w2 -> w3) over the points of one cloud, once per
  // (sample, model) block.
  const SteadySpec spec{"pointnet_b8_amp", 2, 1, 5,
                        cfg.w3, cfg.num_points, cfg.w2, kPnN * kPnB,
                        kPnB, cfg.w3, kPnN, cfg.num_points};
  return run_steady(opts, spec, [](uint64_t seed, Tracer* t) {
    return std::make_unique<PointNetBench>(seed, t);
  });
}

}  // namespace perfbench
