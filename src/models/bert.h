// BERT (Devlin et al. 2019) in the compact variants of Turc et al. 2019 —
// the paper benchmarks BERT-Medium (8 layers, hidden 512, 8 heads) on the
// masked-LM task over WikiText-2. Token + learned position embeddings,
// GELU encoder stack, linear MLM head.
#pragma once

#include "models/transformer.h"

namespace hfta::models {

struct BertConfig {
  int64_t vocab = 60;
  int64_t hidden = 16;
  int64_t num_heads = 2;
  int64_t num_layers = 2;
  int64_t ff_dim = 32;
  int64_t seq_len = 16;
  float dropout_p = 0.f;

  static BertConfig tiny() { return {}; }
  /// BERT-Medium (Turc et al.): L=8, H=512, A=8, FF=2048; paper: seq 32.
  static BertConfig medium() {
    return {30522, 512, 8, 8, 2048, 32, 0.1f};
  }
};

class BertModel : public nn::Module {
 public:
  BertModel(const BertConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [N, S] -> MLM logits [N, S, V].
  ag::Variable forward_tokens(const Tensor& tokens);
  std::shared_ptr<nn::Module> clone() const override;
  std::string kind_name() const override { return "models::BertModel"; }
  nn::ModuleConfig config() const override;

  std::shared_ptr<nn::Embedding> tok_embed, pos_embed;
  std::shared_ptr<nn::LayerNorm> embed_norm;
  std::vector<std::shared_ptr<TransformerEncoderLayer>> layers;
  std::shared_ptr<nn::Linear> mlm_head;
  BertConfig cfg;
};

class FusedBertModel : public fused::FusedModule {
 public:
  FusedBertModel(int64_t B, const BertConfig& cfg, Rng& rng);
  ag::Variable forward(const ag::Variable&) override;
  /// tokens: [B, N, S] -> [B, N, S, V].
  ag::Variable forward_tokens(const Tensor& tokens);

  std::shared_ptr<fused::FusedEmbedding> tok_embed, pos_embed;
  std::shared_ptr<fused::FusedLayerNorm> embed_norm;
  std::vector<std::shared_ptr<fused::FusedTransformerEncoderLayer>> layers;
  std::shared_ptr<fused::FusedLinear> mlm_head;
  BertConfig cfg;
};

}  // namespace hfta::models
