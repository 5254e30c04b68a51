#include "models/transformer.h"

#include <cmath>

#include "tensor/ops.h"

namespace hfta::models {

MultiheadAttention::MultiheadAttention(int64_t embed_dim, int64_t num_heads,
                                       Rng& rng)
    : embed_dim(embed_dim),
      num_heads(num_heads),
      head_dim(embed_dim / num_heads) {
  HFTA_CHECK(embed_dim % num_heads == 0, "embed_dim % num_heads != 0");
  in_proj = register_module(
      "in_proj", std::make_shared<nn::Linear>(embed_dim, 3 * embed_dim, true,
                                              rng));
  out_proj = register_module(
      "out_proj", std::make_shared<nn::Linear>(embed_dim, embed_dim, true,
                                               rng));
}

ag::Variable MultiheadAttention::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable MultiheadAttention::forward_masked(const ag::Variable& x,
                                                const Tensor& mask) {
  const int64_t N = x.size(0), S = x.size(1);
  const int64_t H = num_heads, Dh = head_dim;
  ag::Variable qkv = in_proj->forward(x);  // [N, S, 3E]
  auto parts = ag::chunk(qkv, 3, 2);
  auto heads = [&](const ag::Variable& t) {
    ag::Variable r = ag::reshape(t, {N, S, H, Dh});
    r = ag::permute(r, {0, 2, 1, 3});  // [N, H, S, Dh]
    return ag::reshape(r, {N * H, S, Dh});
  };
  ag::Variable q = heads(parts[0]), k = heads(parts[1]), v = heads(parts[2]);
  ag::Variable scores = ag::mul_scalar(
      ag::bmm_nt(q, k), 1.f / std::sqrt(static_cast<float>(Dh)));
  if (mask.defined()) scores = ag::add(scores, ag::constant(mask));
  ag::Variable ctx = ag::bmm(ag::softmax(scores, -1), v);  // [N*H, S, Dh]
  ctx = ag::reshape(ctx, {N, H, S, Dh});
  ctx = ag::permute(ctx, {0, 2, 1, 3});
  ctx = ag::reshape(ctx, {N, S, embed_dim});
  return out_proj->forward(ctx);
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t embed_dim,
                                                 int64_t num_heads,
                                                 int64_t ff_dim,
                                                 float dropout_p,
                                                 const std::string& activation,
                                                 Rng& rng)
    : use_gelu(activation == "gelu") {
  self_attn = register_module(
      "self_attn",
      std::make_shared<MultiheadAttention>(embed_dim, num_heads, rng));
  linear1 = register_module(
      "linear1", std::make_shared<nn::Linear>(embed_dim, ff_dim, true, rng));
  linear2 = register_module(
      "linear2", std::make_shared<nn::Linear>(ff_dim, embed_dim, true, rng));
  norm1 = register_module(
      "norm1", std::make_shared<nn::LayerNorm>(Shape{embed_dim}, 1e-5f, rng));
  norm2 = register_module(
      "norm2", std::make_shared<nn::LayerNorm>(Shape{embed_dim}, 1e-5f, rng));
  drop = register_module("drop", std::make_shared<nn::Dropout>(dropout_p));
}

ag::Variable TransformerEncoderLayer::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable TransformerEncoderLayer::forward_masked(const ag::Variable& x,
                                                     const Tensor& mask) {
  ag::Variable a = self_attn->forward_masked(x, mask);
  ag::Variable h = norm1->forward(ag::add(x, drop->forward(a)));
  ag::Variable f = linear1->forward(h);
  f = use_gelu ? ag::gelu(f) : ag::relu(f);
  f = linear2->forward(drop->forward(f));
  return norm2->forward(ag::add(h, drop->forward(f)));
}

nn::ModuleConfig TransformerEncoderLayer::config() const {
  nn::ModuleConfig c;
  c.set("embed_dim", self_attn->embed_dim);
  c.set("num_heads", self_attn->num_heads);
  c.set("ff_dim", linear1->out_features);
  c.set("gelu", static_cast<int64_t>(use_gelu));
  c.set("dropout_p", static_cast<double>(drop->p));
  return c;
}

// Planner lowering: B congruent encoder layers -> one fused layer on the
// model-major layout ([B, N, S, E]); plus the clone factory Module::clone()
// falls back to when a layer runs unfused. Load/store both derive from the
// fused layer's StateMap (child names mirror the per-model layer's), which
// is also what closed the encoder layer's old "no store support" gap.
static const fused::LoweringRegistrar kEncoderLayerLowering(
    "models::TransformerEncoderLayer",
    [](const fused::LoweringContext& ctx) {
      const nn::ModuleConfig c = ctx.reference().config();
      auto m = std::make_shared<fused::FusedTransformerEncoderLayer>(
          ctx.array_size, c.get_int("embed_dim"), c.get_int("num_heads"),
          c.get_int("ff_dim"), static_cast<float>(c.get_float("dropout_p")),
          c.get_int("gelu") != 0 ? "gelu" : "relu", *ctx.rng);
      return fused::Lowered{m, fused::Layout::kModelMajor,
                            fused::Layout::kModelMajor};
    },
    [](const nn::Module& src) -> std::shared_ptr<nn::Module> {
      const nn::ModuleConfig c = src.config();
      Rng rng(0);
      return nn::Module::cloned(
          src, std::make_shared<TransformerEncoderLayer>(
                   c.get_int("embed_dim"), c.get_int("num_heads"),
                   c.get_int("ff_dim"),
                   static_cast<float>(c.get_float("dropout_p")),
                   c.get_int("gelu") != 0 ? "gelu" : "relu", rng));
    });

Tensor sinusoidal_positions(int64_t seq_len, int64_t embed_dim) {
  Tensor pe({seq_len, embed_dim});
  for (int64_t s = 0; s < seq_len; ++s) {
    for (int64_t e = 0; e < embed_dim; e += 2) {
      const double freq =
          std::exp(-std::log(10000.0) * static_cast<double>(e) /
                   static_cast<double>(embed_dim));
      pe.at({s, e}) = static_cast<float>(std::sin(s * freq));
      if (e + 1 < embed_dim)
        pe.at({s, e + 1}) = static_cast<float>(std::cos(s * freq));
    }
  }
  return pe;
}

Tensor causal_mask(int64_t seq_len) {
  Tensor m({seq_len, seq_len});
  for (int64_t i = 0; i < seq_len; ++i)
    for (int64_t j = i + 1; j < seq_len; ++j) m.at({i, j}) = -1e9f;
  return m;
}

TransformerLM::TransformerLM(const TransformerConfig& cfg, Rng& rng)
    : cfg(cfg) {
  embed = register_module(
      "embed", std::make_shared<nn::Embedding>(cfg.vocab, cfg.embed_dim, rng));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<TransformerEncoderLayer>(cfg.embed_dim, cfg.num_heads,
                                                  cfg.ff_dim, cfg.dropout_p,
                                                  "relu", rng)));
  decoder = register_module(
      "decoder",
      std::make_shared<nn::Linear>(cfg.embed_dim, cfg.vocab, true, rng));
}

ag::Variable TransformerLM::forward(const ag::Variable&) {
  HFTA_CHECK(false, "TransformerLM: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable TransformerLM::forward_tokens(const Tensor& tokens) {
  const int64_t S = tokens.size(1);
  ag::Variable h = embed->lookup(tokens);  // [N, S, E]
  h = ag::mul_scalar(h, std::sqrt(static_cast<float>(cfg.embed_dim)));
  Tensor pe = sinusoidal_positions(S, cfg.embed_dim);
  h = ag::add(h, ag::constant(pe.reshape({1, S, cfg.embed_dim})));
  const Tensor mask = causal_mask(S);
  for (auto& l : layers) h = l->forward_masked(h, mask);
  return decoder->forward(h);  // [N, S, V]
}

// Hand-fused wrapper (driven through forward_tokens, so not a planner
// chain): initializes its fused parameters exactly once — the
// structure-only analogue of the planner-compiled wrappers; load_model
// supplies real weights.
FusedTransformerLM::FusedTransformerLM(int64_t B, const TransformerConfig& cfg,
                                       Rng& rng)
    : fused::FusedModule(B), cfg(cfg) {
  embed = register_module("embed", std::make_shared<fused::FusedEmbedding>(
                                       B, cfg.vocab, cfg.embed_dim, rng));
  for (int64_t l = 0; l < cfg.num_layers; ++l)
    layers.push_back(register_module(
        "layer" + std::to_string(l),
        std::make_shared<fused::FusedTransformerEncoderLayer>(
            B, cfg.embed_dim, cfg.num_heads, cfg.ff_dim, cfg.dropout_p, "relu",
            rng)));
  decoder = register_module(
      "decoder", std::make_shared<fused::FusedLinear>(B, cfg.embed_dim,
                                                      cfg.vocab, true, rng));
}

ag::Variable FusedTransformerLM::forward(const ag::Variable&) {
  HFTA_CHECK(false, "FusedTransformerLM: use forward_tokens(tokens)");
  return ag::Variable();
}

ag::Variable FusedTransformerLM::forward_tokens(const Tensor& tokens) {
  HFTA_CHECK(tokens.dim() == 3 && tokens.size(0) == array_size_,
             "FusedTransformerLM: tokens must be [B, N, S]");
  const int64_t B = array_size_, N = tokens.size(1), S = tokens.size(2);
  ag::Variable h = embed->lookup(tokens);  // [B, N, S, E]
  h = ag::mul_scalar(h, std::sqrt(static_cast<float>(cfg.embed_dim)));
  Tensor pe = sinusoidal_positions(S, cfg.embed_dim);
  h = ag::add(h, ag::constant(pe.reshape({1, 1, S, cfg.embed_dim})));
  const Tensor mask = causal_mask(S);
  for (auto& l : layers) h = l->forward_masked(h, mask);
  ag::Variable flat = ag::reshape(h, {B, N * S, cfg.embed_dim});
  return ag::reshape(decoder->forward(flat), {B, N, S, cfg.vocab});
}

nn::ModuleConfig TransformerLM::config() const {
  nn::ModuleConfig c;
  c.set("vocab", cfg.vocab);
  c.set("embed_dim", cfg.embed_dim);
  c.set("num_heads", cfg.num_heads);
  c.set("num_layers", cfg.num_layers);
  c.set("ff_dim", cfg.ff_dim);
  c.set("dropout_p", static_cast<double>(cfg.dropout_p));
  return c;
}

// Planner lowering for the whole LM: the fused module is driven through
// forward_tokens, so the plan is a single unit rather than a chain. The
// clone factory lets a masked-off / fallback LM unit own its replicas.
static const fused::LoweringRegistrar kTransformerLMLowering(
    "models::TransformerLM",
    [](const fused::LoweringContext& ctx) {
      const auto& ref = static_cast<const TransformerLM&>(ctx.reference());
      auto m = std::make_shared<FusedTransformerLM>(ctx.array_size, ref.cfg,
                                                    *ctx.rng);
      return fused::Lowered{m, fused::Layout::kAny, fused::Layout::kAny};
    },
    [](const nn::Module& src) -> std::shared_ptr<nn::Module> {
      const auto& ref = static_cast<const TransformerLM&>(src);
      Rng rng(0);
      return nn::Module::cloned(src,
                                std::make_shared<TransformerLM>(ref.cfg, rng));
    });

}  // namespace hfta::models
