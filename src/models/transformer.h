// Transformer language model (Vaswani et al. 2017) following the PyTorch
// word-LM example the paper benchmarks: token embedding + sinusoidal
// positions, a post-norm encoder stack with a causal mask, and a linear
// decoder. The paper's variant: 2 layers, 2 heads, hidden 128 (BERT-Tiny
// sized), WikiText-2, batch = seq = 32.
#pragma once

#include "hfta/fused_attention.h"
#include "hfta/fusion.h"
#include "nn/norm.h"

namespace hfta::models {

/// Plain (unfused) multi-head self-attention over [N, S, E].
class MultiheadAttention : public nn::Module {
 public:
  MultiheadAttention(int64_t embed_dim, int64_t num_heads, Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);

  std::shared_ptr<nn::Linear> in_proj;   // E -> 3E
  std::shared_ptr<nn::Linear> out_proj;  // E -> E
  int64_t embed_dim, num_heads, head_dim;
};

/// Plain post-norm encoder layer (same op order as the fused one).
/// Registers the custom lowering "models::TransformerEncoderLayer": a
/// model-major planner step, so stacks of encoder layers fuse automatically.
class TransformerEncoderLayer : public nn::Module {
 public:
  TransformerEncoderLayer(int64_t embed_dim, int64_t num_heads, int64_t ff_dim,
                          float dropout_p, const std::string& activation,
                          Rng& rng);
  ag::Variable forward(const ag::Variable& x) override;
  ag::Variable forward_masked(const ag::Variable& x, const Tensor& mask);
  std::string kind_name() const override {
    return "models::TransformerEncoderLayer";
  }
  nn::ModuleConfig config() const override;

  std::shared_ptr<MultiheadAttention> self_attn;
  std::shared_ptr<nn::Linear> linear1, linear2;
  std::shared_ptr<nn::LayerNorm> norm1, norm2;
  std::shared_ptr<nn::Dropout> drop;
  bool use_gelu;
};

struct TransformerConfig {
  int64_t vocab = 50;
  int64_t embed_dim = 16;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ff_dim = 32;
  int64_t seq_len = 16;
  float dropout_p = 0.f;

  static TransformerConfig tiny() { return {}; }
  /// Paper §H.1: 2 encoder layers, 2 heads, hidden 128, seq 32.
  static TransformerConfig paper() {
    return {33278, 128, 2, 2, 128, 32, 0.2f};
  }
};

/// Sinusoidal positional table [S, E].
Tensor sinusoidal_positions(int64_t seq_len, int64_t embed_dim);
/// Causal attention mask [S, S]: 0 on/below diagonal, -1e9 above.
Tensor causal_mask(int64_t seq_len);

/// Registers the custom lowering "models::TransformerLM", so B per-model
/// LMs compile to a single-step FusedArray holding a FusedTransformerLM
/// (token input makes the LM a unit, not a chain).
class TransformerLM : public nn::Module {
 public:
  TransformerLM(const TransformerConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [N, S] integer ids -> logits [N, S, V].
  ag::Variable forward_tokens(const Tensor& tokens);
  std::string kind_name() const override { return "models::TransformerLM"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Embedding> embed;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> layers;
  std::shared_ptr<nn::Linear> decoder;
  TransformerConfig cfg;
};

class FusedTransformerLM : public fused::FusedModule {
 public:
  FusedTransformerLM(int64_t B, const TransformerConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [B, N, S] -> logits [B, N, S, V].
  ag::Variable forward_tokens(const Tensor& tokens);

  std::shared_ptr<fused::FusedEmbedding> embed;
  std::vector<std::shared_ptr<fused::FusedTransformerEncoderLayer>> layers;
  std::shared_ptr<fused::FusedLinear> decoder;
  TransformerConfig cfg;
};

}  // namespace hfta::models
