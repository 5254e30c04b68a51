#include "hfta/fused_attention.h"

#include <cmath>

#include "tensor/ops.h"

namespace hfta::fused {

FusedMultiheadAttention::FusedMultiheadAttention(int64_t B, int64_t embed_dim,
                                                 int64_t num_heads, Rng& rng)
    : FusedModule(B),
      embed_dim(embed_dim),
      num_heads(num_heads),
      head_dim(embed_dim / num_heads) {
  HFTA_CHECK(embed_dim % num_heads == 0,
             "FusedMultiheadAttention: embed_dim % num_heads != 0");
  in_proj = register_module(
      "in_proj", std::make_shared<FusedLinear>(B, embed_dim, 3 * embed_dim,
                                               /*bias=*/true, rng));
  out_proj = register_module(
      "out_proj", std::make_shared<FusedLinear>(B, embed_dim, embed_dim,
                                                /*bias=*/true, rng));
}

ag::Variable FusedMultiheadAttention::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable FusedMultiheadAttention::forward_masked(const ag::Variable& x,
                                                     const Tensor& mask) {
  HFTA_CHECK(x.dim() == 4 && x.size(0) == array_size_ &&
                 x.size(3) == embed_dim,
             "FusedMultiheadAttention: expected [B, N, S, E], got ",
             shape_str(x.shape()));
  const int64_t B = array_size_, N = x.size(1), S = x.size(2);
  const int64_t H = num_heads, Dh = head_dim;

  ag::Variable flat = ag::reshape(x, {B, N * S, embed_dim});
  ag::Variable qkv = in_proj->forward(flat);  // [B, N*S, 3E]
  std::vector<ag::Variable> parts = ag::chunk(qkv, 3, 2);
  auto heads = [&](const ag::Variable& t) {
    // [B, N*S, E] -> [B*N*H, S, Dh]
    ag::Variable r = ag::reshape(t, {B, N, S, H, Dh});
    r = ag::permute(r, {0, 1, 3, 2, 4});  // [B, N, H, S, Dh]
    return ag::reshape(r, {B * N * H, S, Dh});
  };
  ag::Variable q = heads(parts[0]);
  ag::Variable k = heads(parts[1]);
  ag::Variable v = heads(parts[2]);

  ag::Variable scores = ag::mul_scalar(
      ag::bmm_nt(q, k), 1.f / std::sqrt(static_cast<float>(Dh)));
  if (mask.defined()) {
    HFTA_CHECK(mask.dim() == 2 && mask.size(0) == S && mask.size(1) == S,
               "attention mask must be [S, S]");
    scores = ag::add(scores, ag::constant(mask));
  }
  ag::Variable attn = ag::softmax(scores, -1);       // [B*N*H, S, S]
  ag::Variable ctx = ag::bmm(attn, v);               // [B*N*H, S, Dh]
  ctx = ag::reshape(ctx, {B, N, H, S, Dh});
  ctx = ag::permute(ctx, {0, 1, 3, 2, 4});           // [B, N, S, H, Dh]
  ctx = ag::reshape(ctx, {B, N * S, embed_dim});
  ag::Variable out = out_proj->forward(ctx);
  return ag::reshape(out, {B, N, S, embed_dim});
}

FusedTransformerEncoderLayer::FusedTransformerEncoderLayer(
    int64_t B, int64_t embed_dim, int64_t num_heads, int64_t ff_dim,
    float dropout_p, const std::string& activation, Rng& rng)
    : FusedModule(B), use_gelu(activation == "gelu") {
  HFTA_CHECK(activation == "relu" || activation == "gelu",
             "activation must be relu or gelu, got ", activation);
  self_attn = register_module(
      "self_attn",
      std::make_shared<FusedMultiheadAttention>(B, embed_dim, num_heads, rng));
  linear1 = register_module(
      "linear1", std::make_shared<FusedLinear>(B, embed_dim, ff_dim, true, rng));
  linear2 = register_module(
      "linear2", std::make_shared<FusedLinear>(B, ff_dim, embed_dim, true, rng));
  norm1 = register_module(
      "norm1", std::make_shared<FusedLayerNorm>(B, Shape{embed_dim}, 1e-5f, rng));
  norm2 = register_module(
      "norm2", std::make_shared<FusedLayerNorm>(B, Shape{embed_dim}, 1e-5f, rng));
  drop = register_module("drop",
                         std::make_shared<FusedDropout>(B, dropout_p));
}

ag::Variable FusedTransformerEncoderLayer::forward(const ag::Variable& x) {
  return forward_masked(x, Tensor());
}

ag::Variable FusedTransformerEncoderLayer::forward_masked(
    const ag::Variable& x, const Tensor& mask) {
  const int64_t B = array_size_, N = x.size(1), S = x.size(2);
  const int64_t E = x.size(3);
  ag::Variable a = self_attn->forward_masked(x, mask);
  ag::Variable h = norm1->forward(ag::add(x, drop->forward(a)));
  ag::Variable flat = ag::reshape(h, {B, N * S, E});
  ag::Variable f = linear1->forward(flat);
  f = use_gelu ? ag::gelu(f) : ag::relu(f);
  f = linear2->forward(drop->forward(f));
  f = ag::reshape(f, {B, N, S, E});
  return norm2->forward(ag::add(h, drop->forward(f)));
}

}  // namespace hfta::fused
