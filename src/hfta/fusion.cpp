#include "hfta/fusion.h"

#include <sstream>

#include "hfta/fused_norm.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "tensor/ops.h"

namespace hfta::fused {

UnfusedBlockAdapter::UnfusedBlockAdapter(
    int64_t B, std::vector<std::shared_ptr<nn::Module>> mods)
    : FusedModule(B) {
  HFTA_CHECK(static_cast<int64_t>(mods.size()) == B,
             "UnfusedBlockAdapter: need exactly B replicas");
  mods_.reserve(mods.size());
  for (auto& donor : mods) {
    std::shared_ptr<nn::Module> owned = donor->clone();
    if (owned == nullptr) {
      // Stateless kinds are pure functions of their input: sharing the
      // donor module cannot write through to anything.
      HFTA_CHECK(!nn::has_state(*donor),
                 "UnfusedBlockAdapter: stateful kind '", donor->kind_name(),
                 "' has no clone support — override Module::clone() or "
                 "register a clone factory with the LoweringRegistry");
      owned = std::move(donor);
    }
    mods_.push_back(std::move(owned));
  }
  for (size_t b = 0; b < mods_.size(); ++b)
    register_module("replica" + std::to_string(b), mods_[b]);
}

ag::Variable UnfusedBlockAdapter::forward(const ag::Variable& x) {
  std::vector<ag::Variable> chunks = ag::chunk(x, array_size_, 1);
  std::vector<ag::Variable> outs;
  outs.reserve(chunks.size());
  for (size_t b = 0; b < chunks.size(); ++b)
    outs.push_back(mods_[b]->forward(chunks[b]));
  return ag::concat(outs, 1);
}

Tensor fuse_blocks(const std::vector<Tensor>& per_model) {
  HFTA_CHECK(!per_model.empty(), "fuse_blocks: empty");
  const int64_t block = per_model[0].numel();
  Tensor out({static_cast<int64_t>(per_model.size()) * block});
  for (size_t b = 0; b < per_model.size(); ++b) {
    HFTA_CHECK(per_model[b].numel() == block, "fuse_blocks: numel mismatch");
    std::copy(per_model[b].data(), per_model[b].data() + block,
              out.data() + static_cast<int64_t>(b) * block);
  }
  return out;
}

std::vector<Tensor> unfuse_blocks(const Tensor& fused, int64_t B, Shape shape) {
  const int64_t block = shape_numel(shape);
  HFTA_CHECK(fused.numel() == B * block, "unfuse_blocks: numel mismatch");
  std::vector<Tensor> out;
  for (int64_t b = 0; b < B; ++b) {
    Tensor t(shape);
    std::copy(fused.data() + b * block, fused.data() + (b + 1) * block,
              t.data());
    out.push_back(std::move(t));
  }
  return out;
}

// ---- diagnostics -----------------------------------------------------------

const char* layout_name(Layout l) {
  switch (l) {
    case Layout::kChannelFused: return "channel-fused";
    case Layout::kModelMajor: return "model-major";
    case Layout::kAny: return "any";
  }
  return "?";
}

std::string FusionDiagnostic::str() const {
  std::ostringstream os;
  os << "fusion: " << reason << " (at '" << (path.empty() ? "<root>" : path)
     << "', model ";
  if (model_index < 0) {
    os << "all";
  } else {
    os << model_index;
  }
  os << ")";
  return os.str();
}

FusionError::FusionError(FusionDiagnostic d)
    : std::runtime_error(d.str()), diagnostic(std::move(d)) {}

// ---- registry --------------------------------------------------------------

namespace {

Lowered stateless(std::shared_ptr<nn::Module> m, Layout in = Layout::kAny,
                  Layout out = Layout::kAny) {
  return Lowered{std::move(m), in, out};
}

}  // namespace

LoweringRegistry& LoweringRegistry::instance() {
  static LoweringRegistry* reg = new LoweringRegistry();
  return *reg;
}

void LoweringRegistry::add(const std::string& kind_name, LoweringFn fn) {
  rules_[kind_name] = std::move(fn);
}

const LoweringFn* LoweringRegistry::find(const std::string& kind_name) const {
  auto it = rules_.find(kind_name);
  return it == rules_.end() ? nullptr : &it->second;
}

void LoweringRegistry::add_clone_factory(const std::string& kind_name,
                                         CloneFactory fn) {
  clone_factories_[kind_name] = std::move(fn);
}

const CloneFactory* LoweringRegistry::find_clone_factory(
    const std::string& kind_name) const {
  auto it = clone_factories_.find(kind_name);
  return it == clone_factories_.end() ? nullptr : &it->second;
}

std::vector<std::string> LoweringRegistry::supported_kinds() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : rules_) out.push_back(k);
  return out;
}

LoweringRegistry::LoweringRegistry() {
  // Route Module::clone()'s default implementation through the per-kind
  // clone factories, so composite kinds registered via LoweringRegistrar
  // clone without a clone() override.
  nn::Module::set_clone_fallback(
      [](const nn::Module& m) -> std::shared_ptr<nn::Module> {
        const CloneFactory* fn =
            LoweringRegistry::instance().find_clone_factory(m.kind_name());
        return fn ? (*fn)(m) : nullptr;
      });

  // -- model-major family ----------------------------------------------------
  add(nn::layer_kind_name(nn::LayerKind::kLinear),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedLinear>(
            ctx.array_size, c.get_int("in"), c.get_int("out"),
            c.get_int("bias") != 0, *ctx.rng);
        return Lowered{m, Layout::kModelMajor, Layout::kModelMajor};
      });
  add(nn::layer_kind_name(nn::LayerKind::kLayerNorm),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedLayerNorm>(
            ctx.array_size, c.dims, static_cast<float>(c.get_float("eps")),
            *ctx.rng);
        return Lowered{m, Layout::kModelMajor, Layout::kModelMajor};
      });
  add(nn::layer_kind_name(nn::LayerKind::kFlatten),
      [](const LoweringContext& ctx) {
        return stateless(std::make_shared<FusedFlatten>(ctx.array_size),
                         Layout::kModelMajor, Layout::kModelMajor);
      });

  // -- channel-fused family --------------------------------------------------
  add(nn::layer_kind_name(nn::LayerKind::kConv2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedConv2d>(
            ctx.array_size, c.get_int("in"), c.get_int("out"),
            c.get_int("kernel"), c.get_int("stride"), c.get_int("pad"),
            c.get_int("groups"), c.get_int("bias") != 0, *ctx.rng);
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kConv1d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedConv1d>(
            ctx.array_size, c.get_int("in"), c.get_int("out"),
            c.get_int("kernel"), c.get_int("stride"), c.get_int("pad"),
            c.get_int("groups"), c.get_int("bias") != 0, *ctx.rng);
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kConvTranspose2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedConvTranspose2d>(
            ctx.array_size, c.get_int("in"), c.get_int("out"),
            c.get_int("kernel"), c.get_int("stride"), c.get_int("pad"),
            c.get_int("out_pad"), c.get_int("groups"), c.get_int("bias") != 0,
            *ctx.rng);
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kConvTranspose1d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedConvTranspose1d>(
            ctx.array_size, c.get_int("in"), c.get_int("out"),
            c.get_int("kernel"), c.get_int("stride"), c.get_int("pad"),
            c.get_int("out_pad"), c.get_int("groups"), c.get_int("bias") != 0,
            *ctx.rng);
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kBatchNorm2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedBatchNorm2d>(
            ctx.array_size, c.get_int("channels"),
            static_cast<float>(c.get_float("eps")),
            static_cast<float>(c.get_float("momentum")));
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kBatchNorm1d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        auto m = std::make_shared<FusedBatchNorm1d>(
            ctx.array_size, c.get_int("channels"),
            static_cast<float>(c.get_float("eps")),
            static_cast<float>(c.get_float("momentum")));
        return Lowered{m, Layout::kChannelFused, Layout::kChannelFused};
      });
  add(nn::layer_kind_name(nn::LayerKind::kMaxPool2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        return stateless(
            std::make_shared<FusedMaxPool2d>(ctx.array_size,
                                             c.get_int("kernel"),
                                             c.get_int("stride"),
                                             c.get_int("pad")),
            Layout::kChannelFused, Layout::kChannelFused);
      });
  add(nn::layer_kind_name(nn::LayerKind::kAdaptiveAvgPool2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        return stateless(
            std::make_shared<FusedAdaptiveAvgPool2d>(
                ctx.array_size, c.get_int("out_h"), c.get_int("out_w")),
            Layout::kChannelFused, Layout::kChannelFused);
      });
  add(nn::layer_kind_name(nn::LayerKind::kDropout2d),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        return stateless(
            std::make_shared<FusedDropout2d>(
                ctx.array_size, static_cast<float>(c.get_float("p"))),
            Layout::kChannelFused, Layout::kChannelFused);
      });

  // -- layout-agnostic steps -------------------------------------------------
  add(nn::layer_kind_name(nn::LayerKind::kDropout),
      [](const LoweringContext& ctx) {
        const nn::ModuleConfig c = ctx.reference().config();
        return stateless(std::make_shared<FusedDropout>(
            ctx.array_size, static_cast<float>(c.get_float("p"))));
      });
  add(nn::layer_kind_name(nn::LayerKind::kGlobalMaxPool1d),
      [](const LoweringContext&) {
        return stateless(std::make_shared<nn::GlobalMaxPool1d>());
      });
  add(nn::layer_kind_name(nn::LayerKind::kReLU), [](const LoweringContext&) {
    return stateless(std::make_shared<nn::ReLU>());
  });
  add(nn::layer_kind_name(nn::LayerKind::kReLU6), [](const LoweringContext&) {
    return stateless(std::make_shared<nn::ReLU6>());
  });
  add(nn::layer_kind_name(nn::LayerKind::kLeakyReLU),
      [](const LoweringContext& ctx) {
        const auto& ref = static_cast<const nn::LeakyReLU&>(ctx.reference());
        return stateless(std::make_shared<nn::LeakyReLU>(ref.slope));
      });
  add(nn::layer_kind_name(nn::LayerKind::kTanh), [](const LoweringContext&) {
    return stateless(std::make_shared<nn::Tanh>());
  });
  add(nn::layer_kind_name(nn::LayerKind::kSigmoid),
      [](const LoweringContext&) {
        return stateless(std::make_shared<nn::Sigmoid>());
      });
  add(nn::layer_kind_name(nn::LayerKind::kHardswish),
      [](const LoweringContext&) {
        return stateless(std::make_shared<nn::Hardswish>());
      });
  add(nn::layer_kind_name(nn::LayerKind::kGELU), [](const LoweringContext&) {
    return stateless(std::make_shared<nn::GELU>());
  });
}

// ---- congruence ------------------------------------------------------------

namespace {

std::string join_path(const std::string& a, const std::string& b) {
  return a.empty() ? b : a + "." + b;
}

void check_congruent(const std::string& path,
                     const std::vector<const nn::Module*>& mods,
                     std::vector<FusionDiagnostic>* out) {
  const nn::Module& ref = *mods[0];
  const std::string ref_kind = ref.kind_name();
  const nn::ModuleConfig ref_cfg = ref.config();
  for (size_t b = 1; b < mods.size(); ++b) {
    if (mods[b]->kind_name() != ref_kind) {
      out->push_back({path, static_cast<int64_t>(b),
                      "layer kind mismatch: model 0 is '" + ref_kind +
                          "' but model " + std::to_string(b) + " is '" +
                          mods[b]->kind_name() + "'"});
      return;  // no point comparing configs/children of different kinds
    }
    const nn::ModuleConfig cfg = mods[b]->config();
    if (cfg.ints.size() != ref_cfg.ints.size() ||
        cfg.floats.size() != ref_cfg.floats.size()) {
      out->push_back({path, static_cast<int64_t>(b),
                      "config arity mismatch for '" + ref_kind + "'"});
      continue;
    }
    for (size_t i = 0; i < ref_cfg.ints.size(); ++i) {
      if (cfg.ints[i].second != ref_cfg.ints[i].second) {
        out->push_back(
            {path, static_cast<int64_t>(b),
             "structural hyper-parameter '" + ref_cfg.ints[i].first +
                 "' differs: model 0 has " +
                 std::to_string(ref_cfg.ints[i].second) + ", model " +
                 std::to_string(b) + " has " +
                 std::to_string(cfg.ints[i].second)});
      }
    }
    for (size_t i = 0; i < ref_cfg.floats.size(); ++i) {
      if (cfg.floats[i].second != ref_cfg.floats[i].second) {
        out->push_back(
            {path, static_cast<int64_t>(b),
             "hyper-parameter '" + ref_cfg.floats[i].first +
                 "' differs: model 0 has " +
                 std::to_string(ref_cfg.floats[i].second) + ", model " +
                 std::to_string(b) + " has " +
                 std::to_string(cfg.floats[i].second)});
      }
    }
    if (cfg.dims != ref_cfg.dims) {
      out->push_back({path, static_cast<int64_t>(b),
                      "shape hyper-parameter differs: " +
                          shape_str(ref_cfg.dims) + " vs " +
                          shape_str(cfg.dims)});
    }
  }

  const auto& ref_children = ref.named_children();
  for (size_t b = 1; b < mods.size(); ++b) {
    if (mods[b]->named_children().size() != ref_children.size()) {
      out->push_back(
          {path, static_cast<int64_t>(b),
           "submodule count differs: model 0 has " +
               std::to_string(ref_children.size()) + ", model " +
               std::to_string(b) + " has " +
               std::to_string(mods[b]->named_children().size())});
      return;
    }
  }
  for (size_t i = 0; i < ref_children.size(); ++i) {
    std::vector<const nn::Module*> child_mods;
    bool names_ok = true;
    for (const nn::Module* m : mods) {
      const auto& kv = m->named_children()[i];
      if (kv.first != ref_children[i].first) {
        out->push_back({path, static_cast<int64_t>(child_mods.size()),
                        "submodule name differs: '" + ref_children[i].first +
                            "' vs '" + kv.first + "'"});
        names_ok = false;
        break;
      }
      child_mods.push_back(kv.second.get());
    }
    if (names_ok)
      check_congruent(join_path(path, ref_children[i].first), child_mods, out);
  }
}

}  // namespace

// ---- FusedArray ------------------------------------------------------------

FusedArray::FusedArray(int64_t B, FusionOptions opts)
    : FusedModule(B), opts_(std::move(opts)) {}

ag::Variable FusedArray::forward(const ag::Variable& x) {
  ag::Variable h = x;
  Layout cur = Layout::kChannelFused;
  auto convert_to = [&](Layout want) {
    if (want == Layout::kAny || want == cur) return;
    h = want == Layout::kModelMajor ? to_model_major(h, array_size_)
                                    : to_channel_fused(h);
    cur = want;
  };
  for (const Step& s : steps_) {
    convert_to(s.in);
    h = s.module->forward(h);
    if (s.out != Layout::kAny) cur = s.out;
  }
  convert_to(opts_.output_layout);
  return h;
}

void FusedArray::load_model(int64_t b, const nn::Module& per_model_root) {
  HFTA_CHECK(b >= 0 && b < array_size_, "FusedArray::load_model: bad index");
  for (Step& s : steps_) {
    if (s.fused && s.state.empty()) continue;  // stateless step
    const nn::Module* src = per_model_root.find(s.path);
    HFTA_CHECK(src != nullptr, "FusedArray::load_model: path '", s.path,
               "' not found in the per-model tree");
    if (!s.fused) {
      auto& adapter = static_cast<UnfusedBlockAdapter&>(*s.module);
      nn::copy_state(*src, *adapter.replicas()[static_cast<size_t>(b)]);
    } else {
      load_state(s.state, array_size_, b, *src);
    }
  }
}

void FusedArray::store_model(int64_t b, nn::Module& per_model_root) const {
  HFTA_CHECK(b >= 0 && b < array_size_, "FusedArray::store_model: bad index");
  for (const Step& s : steps_) {
    if (s.fused && s.state.empty()) continue;  // stateless step
    nn::Module* dst = per_model_root.find(s.path);
    HFTA_CHECK(dst != nullptr, "FusedArray::store_model: path '", s.path,
               "' not found in the per-model tree");
    if (!s.fused) {
      const auto& adapter =
          static_cast<const UnfusedBlockAdapter&>(*s.module);
      nn::copy_state(*adapter.replicas()[static_cast<size_t>(b)], *dst);
    } else {
      store_state(s.state, array_size_, b, *dst);
    }
  }
}

bool FusedArray::unit_fused(int64_t u) const {
  for (const Step& s : steps_)
    if (s.unit == u && !s.fused) return false;
  return true;
}

Layout FusedArray::output_layout() const {
  if (opts_.output_layout != Layout::kAny) return opts_.output_layout;
  Layout cur = Layout::kChannelFused;
  for (const Step& s : steps_) {
    if (s.out != Layout::kAny) {
      cur = s.out;
    } else if (s.in != Layout::kAny) {
      cur = s.in;
    }
  }
  return cur;
}

std::string FusedArray::describe() const {
  std::ostringstream os;
  os << "FusedArray(B=" << array_size_ << ", " << num_units_ << " units)\n";
  for (const Step& s : steps_) {
    os << "  [unit " << s.unit << "] "
       << (s.path.empty() ? "<root>" : s.path) << ": " << s.kind
       << (s.fused ? "" : " (unfused x" + std::to_string(array_size_) + ")")
       << "  (" << layout_name(s.in) << " -> " << layout_name(s.out) << ")\n";
  }
  return os.str();
}

// ---- FusionPlan ------------------------------------------------------------

FusionPlan::FusionPlan(int64_t array_size, FusionOptions opts)
    : array_size_(array_size), opts_(std::move(opts)) {
  HFTA_CHECK(array_size_ >= 1, "FusionPlan: array size must be >= 1");
}

std::vector<FusionDiagnostic> FusionPlan::analyze(
    const std::vector<const nn::Module*>& models) const {
  std::vector<FusionDiagnostic> out;
  if (static_cast<int64_t>(models.size()) != array_size_) {
    out.push_back({"", -1,
                   "expected " + std::to_string(array_size_) +
                       " models, got " + std::to_string(models.size())});
    return out;
  }
  check_congruent("", models, &out);
  return out;
}

namespace {

FusedArray::Step make_adapter_step(
    int64_t B, const std::string& path,
    std::vector<std::shared_ptr<nn::Module>> reps, int64_t unit) {
  FusedArray::Step s;
  s.kind = reps[0]->kind_name();
  // A stateful kind without clone support cannot become an owned replica:
  // report it as a structured planner diagnostic, not a bare Error. Clone
  // support is per-kind and the replicas are congruent, so probing the
  // reference replica suffices.
  if (nn::has_state(*reps[0]) && reps[0]->clone() == nullptr) {
    throw FusionError(
        {path, -1,
         "unfused unit of stateful kind '" + reps[0]->kind_name() +
             "' has no clone support — override Module::clone() or "
             "register a clone factory with the LoweringRegistry"});
  }
  s.module = std::make_shared<UnfusedBlockAdapter>(B, std::move(reps));
  s.in = Layout::kChannelFused;
  s.out = Layout::kChannelFused;
  s.path = path;
  // No StateMap: adapter replicas are whole per-model modules, transferred
  // by nn::copy_state in FusedArray::{load,store}_model.
  s.fused = false;
  s.unit = unit;
  return s;
}

/// Derives the state schema of a lowered step's module and validates it
/// against the per-model reference layer: every per-model parameter and
/// buffer must be covered by exactly one entry, sized B x the per-model
/// numel (shape-checked through the slice rule at transfer time). A
/// registration that forgets part of its state — the old "ships a loader,
/// silently lacks store support" class of bug — now fails the compile with
/// a structured diagnostic instead of surfacing as drift after a repack.
StateMap derive_step_state(const nn::Module& fused_mod, int64_t B,
                           const nn::Module& ref, const std::string& path) {
  const auto* fm = dynamic_cast<const FusedModule*>(&fused_mod);
  const StateMap map = fm ? fm->state_map() : StateMap{};
  std::map<std::string, int64_t> want;  // per-model tensor path -> numel
  for (const auto& [n, v] : ref.named_parameters()) want.emplace(n, v.numel());
  for (const auto& [n, t] : nn::named_buffers_recursive(ref))
    want.emplace(n, t.numel());
  std::map<std::string, int64_t> seen;
  for (const StateEntry& e : map) {
    if (++seen[e.path] > 1) {
      throw FusionError({path, -1,
                         "state schema for kind '" + ref.kind_name() +
                             "' lists '" + e.path + "' twice"});
    }
    const auto it = want.find(e.path);
    if (it == want.end()) {
      throw FusionError({path, -1,
                         "state schema entry '" + e.path +
                             "' has no per-model counterpart in kind '" +
                             ref.kind_name() + "'"});
    }
    const int64_t fused_numel =
        e.is_buffer() ? e.fused_buffer.numel() : e.fused_param.numel();
    if (fused_numel != B * it->second) {
      throw FusionError(
          {path, -1,
           "state entry '" + e.path + "' of kind '" + ref.kind_name() +
               "': fused numel " + std::to_string(fused_numel) + " != B(" +
               std::to_string(B) + ") x per-model numel " +
               std::to_string(it->second)});
    }
  }
  for (const auto& [n, numel] : want) {
    (void)numel;
    if (seen.count(n) == 0) {
      throw FusionError(
          {path, -1,
           "lowering for kind '" + ref.kind_name() +
               "' covers no state entry for per-model tensor '" + n +
               "' — describe it in the fused module's state_map()"});
    }
  }
  return map;
}

void lower_into(int64_t B, Rng& rng, const std::string& path,
                const std::vector<std::shared_ptr<nn::Module>>& reps,
                int64_t unit, bool allow_fallback,
                std::vector<FusedArray::Step>* steps) {
  const nn::Module& ref = *reps[0];
  if (ref.kind() == nn::LayerKind::kSequential) {
    const auto& ref_children = ref.named_children();
    for (size_t i = 0; i < ref_children.size(); ++i) {
      std::vector<std::shared_ptr<nn::Module>> child_reps;
      for (const auto& r : reps)
        child_reps.push_back(r->named_children()[i].second);
      lower_into(B, rng, join_path(path, ref_children[i].first), child_reps,
                 unit, allow_fallback, steps);
    }
    return;
  }
  const LoweringFn* fn = LoweringRegistry::instance().find(ref.kind_name());
  if (fn == nullptr) {
    if (allow_fallback) {
      steps->push_back(make_adapter_step(B, path, reps, unit));
      return;
    }
    throw FusionError(
        {path, -1,
         "no fusion rule registered for layer kind '" + ref.kind_name() +
             "'; register a lowering, enable allow_unfused_fallback, or turn "
             "this unit off in fuse_mask"});
  }
  LoweringContext ctx;
  ctx.array_size = B;
  for (const auto& r : reps) ctx.replicas.push_back(r.get());
  ctx.rng = &rng;
  ctx.path = path;
  Lowered l = (*fn)(ctx);
  HFTA_CHECK(l.module != nullptr, "lowering for '", ref.kind_name(),
             "' returned no module");
  FusedArray::Step s;
  s.state = derive_step_state(*l.module, B, ref, path);
  s.module = std::move(l.module);
  s.in = l.in;
  s.out = l.out;
  s.path = path;
  s.kind = ref.kind_name();
  s.fused = true;
  s.unit = unit;
  steps->push_back(std::move(s));
}

}  // namespace

std::shared_ptr<FusedArray> FusionPlan::compile(
    const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng) const {
  std::vector<const nn::Module*> raw;
  for (const auto& m : models) raw.push_back(m.get());
  std::vector<FusionDiagnostic> diags = analyze(raw);
  if (!diags.empty()) throw FusionError(diags.front());
  return compile_impl(models, rng, /*load_weights=*/true);
}

std::shared_ptr<FusedArray> FusionPlan::compile_structure_only(
    const std::shared_ptr<nn::Module>& template_model, Rng& rng) const {
  HFTA_CHECK(template_model != nullptr,
             "compile_structure_only: null template");
  // B references to the one template: trivially congruent, so no analyze()
  // pass; unfused units clone the template into owned replicas.
  std::vector<std::shared_ptr<nn::Module>> models(
      static_cast<size_t>(array_size_), template_model);
  return compile_impl(models, rng, /*load_weights=*/false);
}

std::shared_ptr<FusedArray> FusionPlan::repack_multi(
    const std::vector<const FusedArray*>& sources,
    const std::vector<RepackPick>& picks, const nn::Module& template_model,
    Rng& rng) const {
  HFTA_CHECK(!sources.empty(), "FusionPlan::repack_multi: no sources");
  HFTA_CHECK(static_cast<int64_t>(picks.size()) == array_size_,
             "FusionPlan::repack_multi: plan is sized for ", array_size_,
             " models but picks has ", picks.size());
  // Extract each survivor from its source array into its own per-model
  // tree, then compile the smaller array from those trees — compile copies
  // their exact weights and buffers, so every survivor's state carries over
  // bit-for-bit no matter which chunked array it trained in.
  std::vector<std::shared_ptr<nn::Module>> survivors;
  survivors.reserve(picks.size());
  for (const RepackPick& p : picks) {
    HFTA_CHECK(p.source < sources.size() && sources[p.source] != nullptr,
               "FusionPlan::repack_multi: pick references source ", p.source,
               " of ", sources.size());
    std::shared_ptr<nn::Module> tree = template_model.clone();
    HFTA_CHECK(tree != nullptr, "FusionPlan::repack_multi: template kind '",
               template_model.kind_name(), "' has no clone support");
    sources[p.source]->store_model(p.model, *tree);
    survivors.push_back(std::move(tree));
  }
  return compile(survivors, rng);
}

std::shared_ptr<FusedArray> FusionPlan::compile_impl(
    const std::vector<std::shared_ptr<nn::Module>>& models, Rng& rng,
    bool load_weights) const {
  // Top-level fusion units: the children of a root Sequential, or the root
  // itself. This is the granularity of fuse_mask (paper Fig. 17).
  std::vector<std::pair<std::string, std::vector<std::shared_ptr<nn::Module>>>>
      units;
  if (models[0]->kind() == nn::LayerKind::kSequential) {
    const auto& ref_children = models[0]->named_children();
    for (size_t i = 0; i < ref_children.size(); ++i) {
      std::vector<std::shared_ptr<nn::Module>> reps;
      for (const auto& m : models)
        reps.push_back(m->named_children()[i].second);
      units.emplace_back(ref_children[i].first, std::move(reps));
    }
  } else {
    units.emplace_back("", models);
  }
  if (!opts_.fuse_mask.empty() &&
      opts_.fuse_mask.size() != units.size()) {
    throw FusionError(
        {"", -1,
         "fuse_mask has " + std::to_string(opts_.fuse_mask.size()) +
             " entries but the model has " + std::to_string(units.size()) +
             " top-level fusion units"});
  }

  auto array = std::shared_ptr<FusedArray>(new FusedArray(array_size_, opts_));
  array->num_units_ = static_cast<int64_t>(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    auto& [path, reps] = units[u];
    const bool fuse = opts_.fuse_mask.empty() || opts_.fuse_mask[u];
    if (fuse) {
      lower_into(array_size_, rng, path, reps, static_cast<int64_t>(u),
                 opts_.allow_unfused_fallback, &array->steps_);
    } else {
      array->steps_.push_back(make_adapter_step(
          array_size_, path, reps, static_cast<int64_t>(u)));
    }
  }

  for (size_t i = 0; i < array->steps_.size(); ++i) {
    FusedArray::Step& s = array->steps_[i];
    array->register_module("step" + std::to_string(i), s.module);
    // Adapter steps cloned the donors' state when they were built — only
    // fused steps still need the donors' weights copied in.
    if (!load_weights || !s.fused || s.state.empty()) continue;
    for (int64_t b = 0; b < array_size_; ++b) {
      const nn::Module* src = models[static_cast<size_t>(b)]->find(s.path);
      HFTA_CHECK(src != nullptr, "compile: path '", s.path, "' not found");
      load_state(s.state, array_size_, b, *src);
    }
  }
  return array;
}

// ---- planner-support modules ------------------------------------------------

ag::Variable FusedFlatten::forward(const ag::Variable& x) {
  HFTA_CHECK(x.dim() >= 2 && x.size(0) == array_size_,
             "FusedFlatten: expected model-major [B, N, ...], got ",
             shape_str(x.shape()));
  return ag::reshape(x, {x.size(0), x.size(1),
                         x.numel() / (x.size(0) * x.size(1))});
}

}  // namespace hfta::fused
