#include "hfta/loss_scaling.h"

#include "tensor/ops.h"

namespace hfta::fused {

ag::Variable fused_cross_entropy(const ag::Variable& logits,
                                 const Tensor& labels,
                                 ag::Reduction reduction) {
  HFTA_CHECK(logits.dim() == 3, "fused_cross_entropy: logits must be [B,N,C]");
  const int64_t B = logits.size(0);
  const int64_t N = logits.size(1);
  const int64_t C = logits.size(2);
  ag::Variable flat = ag::reshape(logits, {B * N, C});
  ag::Variable loss =
      ag::cross_entropy(flat, labels.reshape({B * N}), reduction);
  return scale_fused_loss(loss, B, reduction);
}

ag::Variable fused_nll_loss(const ag::Variable& log_probs,
                            const Tensor& labels, ag::Reduction reduction) {
  HFTA_CHECK(log_probs.dim() == 3, "fused_nll_loss: log_probs must be [B,N,C]");
  const int64_t B = log_probs.size(0);
  const int64_t N = log_probs.size(1);
  const int64_t C = log_probs.size(2);
  ag::Variable flat = ag::reshape(log_probs, {B * N, C});
  ag::Variable loss = ag::nll_loss(flat, labels.reshape({B * N}), reduction);
  return scale_fused_loss(loss, B, reduction);
}

ag::Variable fused_bce_with_logits(const ag::Variable& logits,
                                   const Tensor& targets,
                                   ag::Reduction reduction,
                                   int64_t array_size) {
  ag::Variable loss = ag::bce_with_logits(logits, targets, reduction);
  return scale_fused_loss(loss, array_size, reduction);
}

std::vector<double> per_model_cross_entropy(const Tensor& logits,
                                            const Tensor& labels) {
  HFTA_CHECK(logits.dim() == 3, "per_model_cross_entropy: [B,N,C] expected");
  const int64_t B = logits.size(0);
  const int64_t N = logits.size(1);
  Tensor logp = ops::log_softmax(logits, 2);
  std::vector<double> out(static_cast<size_t>(B), 0.0);
  const float* pl = labels.data();
  const float* pp = logp.data();
  const int64_t C = logits.size(2);
  for (int64_t b = 0; b < B; ++b) {
    double acc = 0.0;
    for (int64_t n = 0; n < N; ++n) {
      const int64_t cls = static_cast<int64_t>(pl[b * N + n]);
      acc -= pp[(b * N + n) * C + cls];
    }
    out[static_cast<size_t>(b)] = acc / static_cast<double>(N);
  }
  return out;
}

}  // namespace hfta::fused
