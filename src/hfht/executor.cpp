#include "hfht/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <tuple>

#include "core/check.h"
#include "core/storage_pool.h"
#include "data/loader.h"
#include "hfta/fused_optim.h"
#include "hfta/fusion.h"
#include "hfta/loss_scaling.h"
#include "models/mobilenetv3.h"
#include "models/pointnet.h"
#include "nn/optim.h"
#include "sim/execution.h"

namespace hfta::hfht {

namespace {

constexpr double kUsPerHour = 3.6e9;

// Exact (bit-pattern) hash of a parameter set, used to derive each trial's
// deterministic weight-init stream and each group's data-shuffle stream.
uint64_t param_key(const ParamSet& p, uint64_t seed) {
  uint64_t key = seed;
  for (double v : p) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    key = hash_combine(key, bits);
  }
  return key;
}

models::MobileNetV3Config mobilenet_config(const SearchSpace& space,
                                           const ParamSet& p) {
  // A pure function of the ParamSet: the infusible "version" picks V2 vs
  // V3-Large (paper Table 12) and the infusible "width_mult" scales every
  // channel count — two structural axes the congruence check partitions on.
  models::MobileNetV3Config cfg = space.get(p, "version") == 2.0
                                      ? models::MobileNetV3Config::tiny_v2()
                                      : models::MobileNetV3Config::tiny();
  cfg.width_mult = static_cast<float>(space.get(p, "width_mult"));
  return cfg;
}

}  // namespace

// ---- SyntheticExecutor -----------------------------------------------------

SyntheticExecutor::SyntheticExecutor(Task task, SchedulerKind scheduler,
                                     sim::DeviceSpec dev)
    : task_(task),
      scheduler_(scheduler),
      dev_(dev),
      space_(task == Task::kPointNet ? SearchSpace::pointnet()
                                     : SearchSpace::mobilenet()),
      workload_(task == Task::kPointNet ? sim::Workload::kPointNetCls
                                        : sim::Workload::kMobileNetV3) {}

ExecutionReport SyntheticExecutor::run(const std::vector<Trial>& batch) {
  ExecutionReport rep;
  rep.cost = schedule_cost(batch, space_, workload_, dev_, scheduler_);
  rep.scores.reserve(batch.size());
  for (const Trial& t : batch)
    rep.scores.push_back(synthetic_accuracy(space_, t.params, t.epochs, task_));
  return rep;
}

// ---- FusedTrainingExecutor -------------------------------------------------

/// One live fused array: the planner-compiled trials of one infusible
/// partition, with the optimizer, the data-shuffle stream (kept so rung
/// survivors resume mid-stream), and — under verify_against_serial — the B
/// independently trained twin models the array must match bit-for-bit.
struct FusedTrainingExecutor::Group {
  std::vector<ParamSet> members;  // slot b trains members[b]
  int64_t batch_size = 0;
  // Congruent per-model graph kept as the repack clone template (its weight
  // values are irrelevant — store_model overwrites every survivor clone).
  std::shared_ptr<nn::Module> tmpl;
  std::shared_ptr<fused::FusedArray> array;
  std::unique_ptr<fused::FusedAdam> opt;
  std::unique_ptr<data::BatchSampler> sampler;
  int64_t epochs_trained = 0;
  bool ever_repacked = false;
  bool ever_merged = false;  // lineage crossed a chunk boundary
  // Slot state moved into a repacked array: the weights left behind are
  // stale, so retired slots never match a later proposal. A group whose
  // slots all retire is dropped; one left with only killed-trial slots
  // ages out of the bounded live-group cache.
  std::vector<bool> retired;
  // serial verification twins (empty unless verify_against_serial)
  std::vector<std::shared_ptr<nn::Module>> serial;
  std::vector<std::unique_ptr<nn::Adam>> serial_opts;
  // Step-program staging (TrainStep::stage): per-batch data is copied in
  // place into these so a replayed program — which never re-runs the loss
  // builder — reads current data through its pinned input buffers.
  Tensor staged_x;       // packed fused input [N, B*C, ...]
  Tensor staged_labels;  // fused labels [B, N]
  Tensor staged_serial_x, staged_serial_y;  // twins' shared batch
  // The last loss graphs' logits, held so the serial-verification audit
  // can read them after the step (backward/step never mutates activation
  // values); on replay the underlying pinned buffers are refreshed.
  ag::Variable logits_hold;
  std::vector<ag::Variable> serial_hold;

  int64_t B() const { return static_cast<int64_t>(members.size()); }

  fused::HyperVec hyper(const SearchSpace& space, const char* name) const {
    fused::HyperVec v;
    v.reserve(members.size());
    for (const ParamSet& p : members) v.push_back(space.get(p, name));
    return v;
  }
};

/// One gathered survivor: slot `slot` of live group `group`.
struct FusedTrainingExecutor::Pick {
  size_t group = 0;
  int64_t slot = 0;
};

FusedTrainingExecutor::FusedTrainingExecutor(Task task, sim::DeviceSpec dev,
                                             Options opts)
    : task_(task),
      dev_(dev),
      opts_(opts),
      space_(task == Task::kPointNet ? SearchSpace::pointnet()
                                     : SearchSpace::mobilenet()),
      rng_(opts.seed) {
  HFTA_CHECK(opts_.max_array_size >= 1,
             "FusedTrainingExecutor: max_array_size must be >= 1, got ",
             opts_.max_array_size);
  HFTA_CHECK(opts_.dataset_size >= 1 && opts_.eval_size >= 1,
             "FusedTrainingExecutor: dataset/eval sizes must be >= 1");
  // Trial steps are captured into replayable step programs: train() stages
  // each batch in place, so after one eager warmup + one capture step per
  // optimizer every iteration runs tape-free. Repacks build a new
  // array/optimizer, which fingerprints differently and recaptures.
  train_step_.enable_capture();
  if (opts_.amp) {
    TrainStep::AmpOptions amp;
    amp.dtype = opts_.amp_dtype;
    // Short rungs + a shared scaler (the serial twins update it too): keep
    // the scale fixed unless an overflow forces a backoff, so fused and
    // serial runs see identical scales at every logical step.
    amp.scaler.growth_interval = 1 << 30;
    train_step_.enable_amp(amp);
  }
  // The held-out scoring batch is fixed for the executor's lifetime.
  std::vector<int64_t> idx(static_cast<size_t>(opts_.eval_size));
  for (int64_t i = 0; i < opts_.eval_size; ++i)
    idx[static_cast<size_t>(i)] = i;
  if (task_ == Task::kPointNet) {
    const models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cloud_ds_ = std::make_unique<data::PointCloudDataset>(
        opts_.dataset_size, cfg.num_points, cfg.num_classes, cfg.num_parts,
        opts_.seed);
    const data::PointCloudDataset eval_ds(opts_.eval_size, cfg.num_points,
                                          cfg.num_classes, cfg.num_parts,
                                          opts_.seed + 1);
    std::tie(eval_x_, eval_y_) = eval_ds.batch_cls(idx);
  } else {
    // Structural widths are shared across versions at the tiny scale, so
    // one image set scores both V2 and V3-Large trials.
    const models::MobileNetV3Config cfg = models::MobileNetV3Config::tiny();
    image_ds_ = std::make_unique<data::ImageDataset>(
        opts_.dataset_size, cfg.image_size, 3, cfg.num_classes, opts_.seed);
    const data::ImageDataset eval_ds(opts_.eval_size, cfg.image_size, 3,
                                     cfg.num_classes, opts_.seed + 1);
    std::tie(eval_x_, eval_y_) = eval_ds.batch(idx);
  }
}

FusedTrainingExecutor::~FusedTrainingExecutor() = default;

std::shared_ptr<nn::Module> FusedTrainingExecutor::build_trial_net(
    const ParamSet& p) const {
  Rng donor_rng(param_key(p, opts_.seed ^ 0xD0));
  if (task_ == Task::kPointNet) {
    models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cfg.input_transform = space_.get(p, "feature_transform") != 0.0;
    // The classifier's Sequential graph is the per-model tree (the
    // PointNetCls wrapper only forwards to it).
    return models::PointNetCls(cfg, donor_rng).net;
  }
  return std::make_shared<models::MobileNetV3>(mobilenet_config(space_, p),
                                               donor_rng);
}

std::pair<Tensor, Tensor> FusedTrainingExecutor::train_batch(
    const std::vector<int64_t>& idx) const {
  return task_ == Task::kPointNet ? cloud_ds_->batch_cls(idx)
                                  : image_ds_->batch(idx);
}

std::unique_ptr<data::BatchSampler> FusedTrainingExecutor::make_sampler(
    const Group& g) const {
  // The shuffle stream is a pure function of the partition's infusible
  // values, so it can always be reconstructed and fast-forwarded to the
  // group's epoch count — this is what lets a repack take ANY source's
  // sampler (or none, when every source already handed its sampler to an
  // earlier merge) and still draw the exact batches the serial reruns do.
  std::vector<double> inf_vals;
  for (size_t i : space_.infusible_indices())
    inf_vals.push_back(g.members[0][i]);
  const int64_t ds_size =
      task_ == Task::kPointNet ? cloud_ds_->size() : image_ds_->size();
  auto s = std::make_unique<data::BatchSampler>(
      ds_size, g.batch_size, /*shuffle=*/true,
      param_key(inf_vals, opts_.seed ^ 0xDA7A));
  for (int64_t e = 0; e < g.epochs_trained; ++e) s->epoch();  // fast-forward
  return s;
}

std::unique_ptr<fused::FusedAdam> FusedTrainingExecutor::make_optimizer(
    const Group& g) const {
  const int64_t B = g.B();
  return std::make_unique<fused::FusedAdam>(
      fused::collect_fused_parameters(*g.array, B), B,
      fused::FusedAdam::Options{g.hyper(space_, "lr"),
                                g.hyper(space_, "adam_beta1"),
                                g.hyper(space_, "adam_beta2"),
                                {1e-8},
                                g.hyper(space_, "weight_decay")});
}

FusedTrainingExecutor::Group* FusedTrainingExecutor::repack_groups(
    const std::vector<ParamSet>& members, const std::vector<Pick>& picks,
    int64_t src_epochs) {
  // Unique source groups in first-appearance order; picks re-indexed onto
  // them so FusionPlan::repack_multi and the optimizer gather agree.
  std::vector<size_t> gidx;
  std::vector<fused::RepackPick> rp;
  rp.reserve(picks.size());
  for (const Pick& p : picks) {
    size_t si = gidx.size();
    for (size_t i = 0; i < gidx.size(); ++i)
      if (gidx[i] == p.group) {
        si = i;
        break;
      }
    if (si == gidx.size()) gidx.push_back(p.group);
    rp.push_back(fused::RepackPick{si, p.slot});
  }

  const int64_t newB = static_cast<int64_t>(members.size());
  fused::FusionOptions fopts;
  fopts.output_layout = fused::Layout::kModelMajor;
  const fused::FusionPlan plan(newB, fopts);
  std::vector<const fused::FusedArray*> arrays;
  std::vector<const fused::FusedOptimizer*> opt_srcs;
  for (size_t gi : gidx) {
    arrays.push_back(groups_[gi]->array.get());
    opt_srcs.push_back(groups_[gi]->opt.get());
  }

  auto merged = std::make_unique<Group>();
  merged->members = members;
  merged->batch_size = groups_[gidx[0]]->batch_size;
  merged->tmpl = groups_[gidx[0]]->tmpl;
  merged->array = plan.repack_multi(arrays, rp, *merged->tmpl, rng_);
  merged->opt = make_optimizer(*merged);
  merged->opt->repack_state_from(opt_srcs, rp);
  merged->epochs_trained = src_epochs;
  // Every source belongs to the same infusible partition and epoch count,
  // so all samplers sit at the same position of the same shuffle stream —
  // continuing any of them continues them all. A source may have handed
  // its sampler to an earlier merge already; reconstruct deterministically
  // when none is left.
  for (size_t gi : gidx) {
    if (groups_[gi]->sampler != nullptr) {
      merged->sampler = std::move(groups_[gi]->sampler);
      break;
    }
  }
  if (merged->sampler == nullptr) merged->sampler = make_sampler(*merged);
  merged->ever_repacked = true;
  merged->ever_merged = gidx.size() > 1;
  for (size_t gi : gidx) merged->ever_merged |= groups_[gi]->ever_merged;
  merged->retired.assign(static_cast<size_t>(newB), false);
  for (const Pick& p : picks) {
    Group& src = *groups_[p.group];
    src.retired[static_cast<size_t>(p.slot)] = true;
    if (!src.serial.empty()) {
      // A moved twin's captured program reads the source group's staged
      // input buffers, which stop being updated — drop it so the twin
      // recaptures under the merged group's staging.
      train_step_.drop_program(src.serial_opts[static_cast<size_t>(p.slot)].get());
      merged->serial.push_back(
          std::move(src.serial[static_cast<size_t>(p.slot)]));
      merged->serial_opts.push_back(
          std::move(src.serial_opts[static_cast<size_t>(p.slot)]));
    }
  }
  ++repacked_;
  if (gidx.size() > 1) {
    ++multi_repacked_;
    arrays_merged_ += static_cast<int64_t>(gidx.size());
  }
  // Fully consumed sources can never match a later proposal; free them,
  // and hand their parked storage back to the OS — a halving boundary is
  // exactly where the working set shrinks, so without the trim the pool
  // would pin the union of every retired array's peak for the process
  // lifetime. The live arrays re-warm the pool within one iteration.
  const size_t before = groups_.size();
  const auto fully_retired = [](const std::unique_ptr<Group>& g) {
    return !g->retired.empty() &&
           std::all_of(g->retired.begin(), g->retired.end(),
                       [](bool r) { return r; });
  };
  // Drop the dying groups' step programs first: a program's tape keeps the
  // whole captured graph (the retired array's weights) alive.
  for (const auto& g : groups_)
    if (fully_retired(g)) drop_group_programs(*g);
  groups_.erase(std::remove_if(groups_.begin(), groups_.end(), fully_retired),
                groups_.end());
  if (groups_.size() != before) StoragePool::instance().trim();
  groups_.push_back(std::move(merged));
  return groups_.back().get();
}

FusedTrainingExecutor::Group* FusedTrainingExecutor::find_or_create(
    const std::vector<ParamSet>& members, int64_t epoch_budget) {
  // Gather the requested members across ALL live arrays, not just one:
  // slot-injective (duplicate parameter sets map to distinct slots),
  // skipping retired slots, with every source pinned to one shared
  // epochs_trained <= budget (survivors of one rung trained equally).
  // Epoch counts are tried from most-trained down, so the gather always
  // continues the furthest-progressed copies.
  std::set<int64_t, std::greater<int64_t>> epoch_candidates;
  for (const auto& gp : groups_)
    if (gp->epochs_trained <= epoch_budget)
      epoch_candidates.insert(gp->epochs_trained);

  for (int64_t src_epochs : epoch_candidates) {
    std::vector<Pick> picks;
    auto taken = [&](size_t gi, int64_t slot) {
      for (const Pick& p : picks)
        if (p.group == gi && p.slot == slot) return true;
      return false;
    };
    for (const ParamSet& want : members) {
      bool found = false;
      for (size_t gi = 0; gi < groups_.size() && !found; ++gi) {
        Group& g = *groups_[gi];
        if (g.epochs_trained != src_epochs) continue;
        for (int64_t s = 0; s < g.B(); ++s) {
          if (g.retired[static_cast<size_t>(s)] || taken(gi, s)) continue;
          if (g.members[static_cast<size_t>(s)] == want) {
            picks.push_back(Pick{gi, s});
            found = true;
            break;
          }
        }
      }
      if (!found) {
        picks.clear();
        break;
      }
    }
    if (picks.empty()) continue;

    // Identity — one group, same order, full size: continue in place.
    const size_t gi0 = picks[0].group;
    bool identity = groups_[gi0]->B() == static_cast<int64_t>(members.size());
    for (size_t j = 0; identity && j < picks.size(); ++j)
      identity =
          picks[j].group == gi0 && picks[j].slot == static_cast<int64_t>(j);
    if (identity) return groups_[gi0].get();

    // Halving boundary: gather the survivors — possibly from several
    // chunked arrays — into one fresh array and continue.
    return repack_groups(members, picks, src_epochs);
  }

  // Fresh partition: build one congruent per-model graph per trial (each
  // trial's weight init is a pure function of its parameter set, so serial
  // reruns reproduce it) and compile them into a fused array.
  auto g = std::make_unique<Group>();
  g->members = members;
  g->batch_size = static_cast<int64_t>(space_.get(members[0], "batch_size"));
  const int64_t ds_size =
      task_ == Task::kPointNet ? cloud_ds_->size() : image_ds_->size();
  HFTA_CHECK(g->batch_size >= 1 && g->batch_size <= ds_size,
             "FusedTrainingExecutor: batch size ", g->batch_size,
             " does not fit the dataset (", ds_size, " samples)");
  const int64_t B = g->B();
  std::vector<std::shared_ptr<nn::Module>> nets;
  nets.reserve(members.size());
  for (const ParamSet& p : members) nets.push_back(build_trial_net(p));
  g->tmpl = nets[0];  // doubles as the future repack clone template
  fused::FusionOptions fopts;
  fopts.output_layout = fused::Layout::kModelMajor;
  g->array = fused::FusionPlan(B, fopts).compile(nets, rng_);
  g->opt = make_optimizer(*g);
  g->retired.assign(static_cast<size_t>(B), false);
  g->sampler = make_sampler(*g);
  if (opts_.verify_against_serial) {
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      g->serial.push_back(nets[ub]);
      g->serial_opts.push_back(std::make_unique<nn::Adam>(
          nets[ub]->parameters(),
          nn::Adam::Options{space_.get(members[ub], "lr"),
                            space_.get(members[ub], "adam_beta1"),
                            space_.get(members[ub], "adam_beta2"),
                            1e-8,
                            space_.get(members[ub], "weight_decay")}));
    }
  }
  ++compiled_;
  groups_.push_back(std::move(g));
  // Bound the live-array cache: fresh brackets sample fresh parameter sets,
  // so the oldest groups can never be continued and are safe to drop. The
  // cap comfortably exceeds the chunks of any single proposal round.
  constexpr size_t kMaxLiveGroups = 64;
  if (groups_.size() > kMaxLiveGroups) {
    drop_group_programs(*groups_.front());  // programs pin the captured graph
    groups_.erase(groups_.begin());
    StoragePool::instance().trim();  // the evicted array's storage with it
  }
  return groups_.back().get();
}

void FusedTrainingExecutor::train(Group& g, int64_t delta_epochs,
                                  CostReport* cost) {
  if (g.sampler == nullptr) g.sampler = make_sampler(g);
  const int64_t B = g.B();
  const int64_t N = g.batch_size;
  const fused::HyperVec base_lr = g.hyper(space_, "lr");
  const fused::HyperVec decay = g.hyper(space_, "lr_decay_factor");
  const fused::HyperVec period = g.hyper(space_, "lr_decay_period");
  for (int64_t e = 0; e < delta_epochs; ++e) {
    // Per-trial StepLR, computed once in double and fed to both the fused
    // lr vector and the serial twins so the float paths are identical.
    const int64_t epoch = g.epochs_trained + e;
    fused::HyperVec lrs(static_cast<size_t>(B));
    for (int64_t b = 0; b < B; ++b) {
      const size_t ub = static_cast<size_t>(b);
      const double k = std::floor(static_cast<double>(epoch) / period[ub]);
      lrs[ub] = base_lr[ub] * std::pow(decay[ub], k);
    }
    g.opt->set_lr(lrs);
    for (size_t b = 0; b < g.serial_opts.size(); ++b)
      g.serial_opts[b]->set_lr({lrs[b]});

    for (const auto& bidx : g.sampler->epoch()) {
      auto [x, y] = train_batch(bidx);
      std::vector<Tensor> xs(static_cast<size_t>(B), x);
      Tensor labels({B, N});
      for (int64_t b = 0; b < B; ++b)
        for (int64_t n = 0; n < N; ++n) labels.at({b, n}) = y.at({n});
      // Stage the batch in place: a captured program replays without
      // calling the loss builder, reading this data through its pinned
      // input buffers.
      train_step_.stage(&g.staged_x, fused::pack_channel_fused(xs));
      train_step_.stage(&g.staged_labels, labels);
      train_step_.run(*g.opt, [&] {
        ag::Variable logits = g.array->forward(ag::Variable(g.staged_x));
        g.logits_hold = logits;
        // Per-model mean CE built as (1/N) * sum: its backward scales every
        // row by the same float(1/N) the serial kMean loss uses, so the
        // gradients match the B serial runs bit-for-bit regardless of how
        // float(1/(B*N)) * B would round (Appendix C, Eq. 5 route).
        return ag::mul_scalar(
            fused::fused_cross_entropy(logits, g.staged_labels,
                                       ag::Reduction::kSum),
            1.f / static_cast<float>(N));
      });
      // Only the serial-verification audit reads the per-model losses —
      // skip the extra softmax pass on plain tuning runs. Runs after the
      // step (not inside the loss builder, which replay skips): the logits
      // values it reads are untouched by backward/step, and a replay has
      // refreshed logits_hold's pinned buffer.
      std::vector<double> fused_losses;
      if (!g.serial.empty())
        fused_losses = fused::per_model_cross_entropy(g.logits_hold.value(),
                                                      g.staged_labels);

      if (!g.serial.empty()) {
        train_step_.stage(&g.staged_serial_x, x);
        train_step_.stage(&g.staged_serial_y, y);
        g.serial_hold.resize(g.serial.size());
      }
      for (size_t b = 0; b < g.serial.size(); ++b) {
        train_step_.run(*g.serial_opts[b], [&] {
          ag::Variable sl =
              g.serial[b]->forward(ag::Variable(g.staged_serial_x));
          g.serial_hold[b] = sl;
          return ag::cross_entropy(sl, g.staged_serial_y,
                                   ag::Reduction::kMean);
        });
        // Same per-model reduction routine on both sides: the comparison
        // detects logits drift, not reduction-order noise.
        const Tensor& slv = g.serial_hold[b].value();
        const double serial_loss = fused::per_model_cross_entropy(
            slv.reshape({1, N, slv.size(1)}),
            g.staged_serial_y.reshape({1, N}))[0];
        max_diff_ = std::max(max_diff_,
                             std::fabs(fused_losses[b] - serial_loss));
        if (g.ever_repacked) ++post_repack_verified_;
        if (g.ever_merged) ++post_merge_verified_;
      }
    }
  }
  price(g, delta_epochs, cost);
  g.epochs_trained += delta_epochs;
}

void FusedTrainingExecutor::drop_group_programs(const Group& g) {
  train_step_.drop_program(g.opt.get());
  for (const auto& so : g.serial_opts)
    if (so != nullptr) train_step_.drop_program(so.get());
}

std::vector<double> FusedTrainingExecutor::score(Group& g) {
  // Held-out score on the fixed eval batch: per-model CE mapped to
  // 1/(1+loss) so higher is better and values live in (0, 1].
  const int64_t B = g.B();
  const int64_t N = eval_x_.size(0);
  std::vector<Tensor> xs(static_cast<size_t>(B), eval_x_);
  Tensor labels({B, N});
  for (int64_t b = 0; b < B; ++b)
    for (int64_t n = 0; n < N; ++n) labels.at({b, n}) = eval_y_.at({n});
  g.array->eval();
  ag::Variable logits =
      g.array->forward(ag::Variable(fused::pack_channel_fused(xs)));
  g.array->train();
  std::vector<double> losses =
      fused::per_model_cross_entropy(logits.value(), labels);
  std::vector<double> scores;
  scores.reserve(losses.size());
  for (double l : losses) scores.push_back(1.0 / (1.0 + l));
  return scores;
}

sim::IterationTrace FusedTrainingExecutor::build_group_trace(
    const Group& g, int64_t B) const {
  if (task_ == Task::kPointNet) {
    models::PointNetConfig cfg = models::PointNetConfig::tiny();
    cfg.input_transform =
        space_.get(g.members[0], "feature_transform") != 0.0;
    sim::PointNetTraceSpec spec;
    spec.batch = g.batch_size;
    spec.points = cfg.num_points;
    spec.w1 = cfg.w1;
    spec.w2 = cfg.w2;
    spec.w3 = cfg.w3;
    spec.fc1 = cfg.fc1;
    spec.fc2 = cfg.fc2;
    spec.num_classes = cfg.num_classes;
    spec.input_transform = cfg.input_transform;
    return sim::build_pointnet_cls_trace(spec, B);
  }
  const models::MobileNetV3Config cfg = mobilenet_config(space_, g.members[0]);
  sim::MobileNetTraceSpec spec;
  spec.batch = g.batch_size;
  spec.image = cfg.image_size;
  spec.stem = cfg.scaled(cfg.stem_channels());
  for (const models::BneckSpec& r : cfg.rows())
    spec.rows.push_back(sim::MobileNetTraceSpec::Row{
        r.kernel, cfg.scaled(r.expand), cfg.scaled(r.out), r.stride, r.se});
  spec.last = cfg.scaled(cfg.rows().back().expand);
  spec.head = cfg.head_dim;
  spec.num_classes = cfg.num_classes;
  return sim::build_mobilenet_trace(spec, B);
}

void FusedTrainingExecutor::price(const Group& g, int64_t delta_epochs,
                                  CostReport* cost) const {
  if (cost == nullptr || delta_epochs <= 0) return;
  // Price the trace the group actually ran — its batch size, widths, and
  // structure — instead of the canned paper-scale traces.
  const int64_t B = g.B();
  const sim::IterationTrace single = build_group_trace(g, 1);
  const sim::IterationTrace fused_tr =
      B == 1 ? single : build_group_trace(g, B);
  const sim::RunResult r = sim::simulate_traces(
      dev_, single, fused_tr, B == 1 ? sim::Mode::kSerial : sim::Mode::kHfta,
      B, sim::Precision::kFP32);
  const int64_t ds_size =
      task_ == Task::kPointNet ? cloud_ds_->size() : image_ds_->size();
  const int64_t iters = ds_size / g.batch_size;
  cost->gpu_hours += static_cast<double>(delta_epochs) *
                     static_cast<double>(iters) * r.round_us / kUsPerHour;
  ++cost->jobs_launched;
}

ExecutionReport FusedTrainingExecutor::run(const std::vector<Trial>& batch) {
  ExecutionReport rep;
  rep.scores.assign(batch.size(), 0.0);
  if (batch.empty()) return rep;
  std::vector<ParamSet> sets;
  sets.reserve(batch.size());
  for (const Trial& t : batch) sets.push_back(t.params);
  const auto partitions = partition_by_infusible(space_, sets);
  for (const auto& part : partitions) {
    // Chunk oversized partitions (stand-in for the device-memory cap).
    for (size_t start = 0; start < part.size();) {
      const size_t n = std::min<size_t>(
          static_cast<size_t>(opts_.max_array_size), part.size() - start);
      std::vector<size_t> chunk(part.begin() + start, part.begin() + start + n);
      start += n;
      const int64_t epochs = batch[chunk[0]].epochs;
      std::vector<ParamSet> members;
      members.reserve(chunk.size());
      for (size_t i : chunk) {
        HFTA_CHECK(batch[i].epochs == epochs,
                   "FusedTrainingExecutor: mixed epoch budgets in one batch");
        members.push_back(batch[i].params);
      }
      Group* g = find_or_create(members, epochs);
      if (epochs > g->epochs_trained)
        train(*g, epochs - g->epochs_trained, &rep.cost);
      const std::vector<double> s = score(*g);
      for (size_t j = 0; j < chunk.size(); ++j) rep.scores[chunk[j]] = s[j];
    }
  }
  return rep;
}

}  // namespace hfta::hfht
