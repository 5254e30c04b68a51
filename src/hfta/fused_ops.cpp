#include "hfta/fused_ops.h"

#include <map>

#include "autograd/step_program.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace hfta::fused {

namespace {

// Writes `src` into the b-th of B equal blocks along dim 0 of `dst`.
void copy_into_block(Tensor& dst, const Tensor& src, int64_t b, int64_t B) {
  const int64_t block = dst.numel() / B;
  HFTA_CHECK(src.numel() == block, "fused block copy: numel mismatch ",
             src.numel(), " vs ", block);
  std::copy(src.data(), src.data() + block, dst.data() + b * block);
}

void copy_from_block(const Tensor& src, Tensor& dst, int64_t b, int64_t B) {
  const int64_t block = src.numel() / B;
  HFTA_CHECK(dst.numel() == block, "fused block copy: numel mismatch");
  std::copy(src.data() + b * block, src.data() + (b + 1) * block, dst.data());
}

}  // namespace

// ---- state schema -----------------------------------------------------------

StateMap FusedModule::state_map() const {
  StateMap out;
  for (const auto& [name, var] : own_named_parameters())
    out.push_back(param_entry(name, var));
  for (const auto& [name, buf] : named_buffers())
    out.push_back(buffer_entry(name, buf));
  for (const auto& [name, child] : named_children()) {
    const auto* f = dynamic_cast<const FusedModule*>(child.get());
    if (f == nullptr) {
      // A plain (per-model style) child has no block layout to derive. It
      // is fine only when stateless (activations wrapped for convenience);
      // anything stateful needs an explicit schema.
      HFTA_CHECK(!nn::has_state(*child), "FusedModule::state_map: kind '",
                 kind_name(), "' has stateful non-fused child '", name,
                 "' — override state_map() to describe its layout");
      continue;
    }
    for (StateEntry e : f->state_map()) {
      e.path = name + "." + e.path;
      out.push_back(std::move(e));
    }
  }
  return out;
}

namespace {

/// One pass over the per-model tree: every parameter and buffer as a
/// storage-sharing handle keyed by dotted path. Built once per
/// load_state/store_state call so whole-model schemas (MobileNet, BERT:
/// 100+ entries) stay O(T), not O(T^2).
std::map<std::string, Tensor> collect_per_model_tensors(
    const nn::Module& root) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, var] : root.named_parameters())
    out.emplace(name, var.value());
  for (const auto& [name, t] : nn::named_buffers_recursive(root))
    out.emplace(name, t);
  return out;
}

Tensor find_per_model_tensor(const std::map<std::string, Tensor>& tensors,
                             const std::string& path) {
  const auto it = tensors.find(path);
  HFTA_CHECK(it != tensors.end(), "state transfer: per-model tensor '", path,
             "' not found in the per-model tree");
  return it->second;
}

/// Moves model b's slice between the fused tensor and the per-model one,
/// in either direction, following the entry's slice rule.
void transfer_slice(const StateEntry& e, int64_t B, int64_t b,
                    Tensor per_model, bool to_fused) {
  // StateEntry holds handles; copying re-opens mutable access to storage.
  Tensor fused = e.is_buffer() ? e.fused_buffer
                               : ag::Variable(e.fused_param).mutable_value();
  switch (e.rule) {
    case SliceRule::kBlock:
      if (to_fused) {
        copy_into_block(fused, per_model, b, B);
      } else {
        copy_from_block(fused, per_model, b, B);
      }
      return;
    case SliceRule::kLinearWeight: {
      HFTA_CHECK(per_model.dim() == 2, "state transfer: '", e.path,
                 "' uses kLinearWeight but the per-model tensor is not 2-D");
      if (to_fused) {
        Tensor wt = per_model.transpose(0, 1);  // [out, in] -> [in, out]
        copy_into_block(fused, wt, b, B);
      } else {
        Tensor wt({per_model.size(1), per_model.size(0)});
        copy_from_block(fused, wt, b, B);
        const Tensor t = wt.transpose(0, 1);
        std::copy(t.data(), t.data() + t.numel(), per_model.data());
      }
      return;
    }
  }
  HFTA_CHECK(false, "state transfer: unknown slice rule");
}

}  // namespace

void load_state(const StateMap& map, int64_t B, int64_t b,
                const nn::Module& src) {
  HFTA_CHECK(0 <= b && b < B, "load_state: model index ", b,
             " out of range for array size ", B);
  if (map.empty()) return;
  const std::map<std::string, Tensor> tensors = collect_per_model_tensors(src);
  for (const StateEntry& e : map)
    transfer_slice(e, B, b, find_per_model_tensor(tensors, e.path),
                   /*to_fused=*/true);
}

void store_state(const StateMap& map, int64_t B, int64_t b, nn::Module& dst) {
  HFTA_CHECK(0 <= b && b < B, "store_state: model index ", b,
             " out of range for array size ", B);
  if (map.empty()) return;
  const std::map<std::string, Tensor> tensors = collect_per_model_tensors(dst);
  for (const StateEntry& e : map)
    transfer_slice(e, B, b, find_per_model_tensor(tensors, e.path),
                   /*to_fused=*/false);
}

void FusedModule::load_model(int64_t b, const nn::Module& m) {
  load_state(state_map(), array_size_, b, m);
}

void FusedModule::store_model(int64_t b, nn::Module& m) const {
  store_state(state_map(), array_size_, b, m);
}

std::vector<FusedParam> collect_fused_parameters(nn::Module& root,
                                                 int64_t array_size) {
  // All fused modules pack model blocks along dim 0, so any parameter in the
  // tree can be treated as a FusedParam of the tree's array size as long as
  // its numel divides evenly — validated here.
  std::vector<FusedParam> out;
  for (auto& [name, p] : root.named_parameters()) {
    HFTA_CHECK(p.numel() % array_size == 0, "parameter ", name, " (numel ",
               p.numel(), ") is not fused over B=", array_size);
    out.push_back(FusedParam{p, array_size});
  }
  return out;
}

// ---- layout converters ---------------------------------------------------------

ag::Variable to_model_major(const ag::Variable& x, int64_t B) {
  HFTA_CHECK(x.dim() >= 2 && x.size(1) % B == 0,
             "to_model_major: dim1 not divisible by B");
  const int64_t N = x.size(0);
  const int64_t C = x.size(1) / B;
  Shape mid = {N, B, C};
  for (int64_t i = 2; i < x.dim(); ++i) mid.push_back(x.size(i));
  ag::Variable r = ag::reshape(x, mid);
  std::vector<int64_t> perm(static_cast<size_t>(r.dim()));
  perm[0] = 1;
  perm[1] = 0;
  for (int64_t i = 2; i < r.dim(); ++i) perm[static_cast<size_t>(i)] = i;
  return ag::permute(r, perm);
}

ag::Variable to_channel_fused(const ag::Variable& x) {
  HFTA_CHECK(x.dim() >= 3, "to_channel_fused: needs [B, N, C, ...]");
  std::vector<int64_t> perm(static_cast<size_t>(x.dim()));
  perm[0] = 1;
  perm[1] = 0;
  for (int64_t i = 2; i < x.dim(); ++i) perm[static_cast<size_t>(i)] = i;
  ag::Variable p = ag::permute(x, perm);  // [N, B, C, ...]
  Shape out = {p.size(0), p.size(1) * p.size(2)};
  for (int64_t i = 3; i < p.dim(); ++i) out.push_back(p.size(i));
  return ag::reshape(p, out);
}

Tensor pack_channel_fused(const std::vector<Tensor>& xs) {
  HFTA_CHECK(!xs.empty(), "pack_channel_fused: empty");
  return ops::concat(xs, 1);
}

std::vector<Tensor> unpack_channel_fused(const Tensor& x, int64_t B) {
  HFTA_CHECK(x.size(1) % B == 0, "unpack_channel_fused: dim1 % B != 0");
  return ops::chunk(x, B, 1);
}

Tensor pack_model_major(const std::vector<Tensor>& xs) {
  HFTA_CHECK(!xs.empty(), "pack_model_major: empty");
  std::vector<Tensor> un;
  un.reserve(xs.size());
  for (const Tensor& t : xs) un.push_back(t.unsqueeze(0));
  return ops::concat(un, 0);
}

// ---- FusedConv2d ------------------------------------------------------------------

FusedConv2d::FusedConv2d(int64_t B, int64_t in, int64_t out, int64_t kernel,
                         int64_t stride, int64_t pad, int64_t groups,
                         bool has_bias, Rng& rng)
    : FusedModule(B),
      fused_args(ops::ConvArgs::make(stride, pad, B * groups)),
      out_channels(out) {
  const int64_t fan_in = (in / groups) * kernel * kernel;
  weight = register_parameter(
      "weight", nn::init::kaiming_uniform(
                    {B * out, in / groups, kernel, kernel}, fan_in, rng));
  if (has_bias)
    bias = register_parameter(
        "bias", nn::init::kaiming_uniform({B * out}, fan_in, rng));
}

ag::Variable FusedConv2d::forward(const ag::Variable& x) {
  return ag::conv2d(x, weight, bias, fused_args);
}

// ---- FusedConv1d --------------------------------------------------------------------

FusedConv1d::FusedConv1d(int64_t B, int64_t in, int64_t out, int64_t kernel,
                         int64_t stride, int64_t pad, int64_t groups,
                         bool has_bias, Rng& rng)
    : FusedModule(B),
      stride(stride),
      pad(pad),
      fused_groups(B * groups),
      out_channels(out) {
  const int64_t fan_in = (in / groups) * kernel;
  weight = register_parameter(
      "weight",
      nn::init::kaiming_uniform({B * out, in / groups, kernel}, fan_in, rng));
  if (has_bias)
    bias = register_parameter(
        "bias", nn::init::kaiming_uniform({B * out}, fan_in, rng));
}

ag::Variable FusedConv1d::forward(const ag::Variable& x) {
  return ag::conv1d(x, weight, bias, stride, pad, fused_groups);
}

// ---- FusedConvTranspose2d --------------------------------------------------------------

FusedConvTranspose2d::FusedConvTranspose2d(int64_t B, int64_t in, int64_t out,
                                           int64_t kernel, int64_t stride,
                                           int64_t pad, int64_t out_pad,
                                           int64_t groups, bool has_bias,
                                           Rng& rng)
    : FusedModule(B),
      fused_args{stride, pad, out_pad, B * groups},
      out_channels(out) {
  const int64_t fan_in = (out / groups) * kernel * kernel;
  weight = register_parameter(
      "weight", nn::init::kaiming_uniform(
                    {B * in, out / groups, kernel, kernel}, fan_in, rng));
  if (has_bias)
    bias = register_parameter(
        "bias", nn::init::kaiming_uniform({B * out}, fan_in, rng));
}

ag::Variable FusedConvTranspose2d::forward(const ag::Variable& x) {
  return ag::conv_transpose2d(x, weight, bias, fused_args);
}

// ---- FusedConvTranspose1d ------------------------------------------------------

FusedConvTranspose1d::FusedConvTranspose1d(int64_t B, int64_t in, int64_t out,
                                           int64_t kernel, int64_t stride,
                                           int64_t pad, int64_t out_pad,
                                           int64_t groups, bool has_bias,
                                           Rng& rng)
    : FusedModule(B),
      fused_args{stride, pad, out_pad, B * groups},
      out_channels(out) {
  const int64_t fan_in = (out / groups) * kernel;
  weight = register_parameter(
      "weight",
      nn::init::kaiming_uniform({B * in, out / groups, kernel}, fan_in, rng));
  if (has_bias)
    bias = register_parameter(
        "bias", nn::init::kaiming_uniform({B * out}, fan_in, rng));
}

ag::Variable FusedConvTranspose1d::forward(const ag::Variable& x) {
  return ag::conv_transpose1d(x, weight, bias, fused_args);
}

// ---- FusedLinear --------------------------------------------------------------------------

FusedLinear::FusedLinear(int64_t B, int64_t in, int64_t out, bool has_bias,
                         Rng& rng)
    : FusedModule(B), in_features(in), out_features(out) {
  weight =
      register_parameter("weight", nn::init::kaiming_uniform({B, in, out},
                                                             in, rng));
  if (has_bias)
    bias = register_parameter("bias",
                              nn::init::kaiming_uniform({B, 1, out}, in, rng));
}

ag::Variable FusedLinear::forward(const ag::Variable& x) {
  HFTA_CHECK(x.dim() == 3 && x.size(0) == array_size_ &&
                 x.size(2) == in_features,
             "FusedLinear: expected [", array_size_, ", N, ", in_features,
             "], got ", shape_str(x.shape()));
  if (bias.defined()) return ag::baddbmm(bias, x, weight);
  return ag::bmm(x, weight);
}

StateMap FusedLinear::state_map() const {
  StateMap out = {param_entry("weight", weight, SliceRule::kLinearWeight)};
  if (bias.defined()) out.push_back(param_entry("bias", bias));
  return out;
}

// ---- FusedEmbedding --------------------------------------------------------------------------

FusedEmbedding::FusedEmbedding(int64_t B, int64_t vocab, int64_t dim, Rng& rng)
    : FusedModule(B), vocab(vocab), dim(dim) {
  weight = register_parameter(
      "weight", nn::init::normal({B * vocab, dim}, 0.f, 1.f, rng));
}

ag::Variable FusedEmbedding::forward(const ag::Variable&) {
  HFTA_CHECK(false, "FusedEmbedding: use lookup(indices)");
  return ag::Variable();
}

ag::Variable FusedEmbedding::lookup(const Tensor& indices) {
  // Appendix B: offset model b's ids by b*V into the stacked table.
  HFTA_CHECK(indices.size(0) == array_size_,
             "FusedEmbedding: indices must be [B, ...]");
  Tensor shifted = indices.clone();
  const int64_t per_model = indices.numel() / array_size_;
  float* p = shifted.data();
  for (int64_t b = 0; b < array_size_; ++b) {
    const float off = static_cast<float>(b * vocab);
    for (int64_t i = 0; i < per_model; ++i) p[b * per_model + i] += off;
  }
  return ag::embedding(shifted, weight);
}

// ---- pooling / dropout -----------------------------------------------------------------------

FusedMaxPool2d::FusedMaxPool2d(int64_t B, int64_t kernel, int64_t stride,
                               int64_t pad)
    : FusedModule(B), args{kernel, stride, pad} {}

ag::Variable FusedMaxPool2d::forward(const ag::Variable& x) {
  return ag::max_pool2d(x, args);
}

FusedAdaptiveAvgPool2d::FusedAdaptiveAvgPool2d(int64_t B, int64_t out_h,
                                               int64_t out_w)
    : FusedModule(B), out_h(out_h), out_w(out_w) {}

ag::Variable FusedAdaptiveAvgPool2d::forward(const ag::Variable& x) {
  return ag::adaptive_avg_pool2d(x, out_h, out_w);
}

FusedDropout2d::FusedDropout2d(int64_t B, float p, uint64_t seed)
    : FusedModule(B), p(p), rng_(seed) {}

ag::Variable FusedDropout2d::forward(const ag::Variable& x) {
  if (!is_training() || p == 0.f) return x;
  HFTA_CHECK(x.dim() == 4, "FusedDropout2d expects [N, B*C, H, W]");
  const int64_t NC = x.size(0) * x.size(1);
  const int64_t spatial = x.numel() / NC;
  Tensor mask(x.shape());
  const float scale = 1.f / (1.f - p);
  // Recorded before mul_mask so replay redraws the mask (same RNG stream
  // position as eager) ahead of the product thunk — see nn::Dropout.
  auto draw = [mask, scale, NC, spatial, p = p, rng = &rng_]() mutable {
    float* m = mask.data();
    for (int64_t nc = 0; nc < NC; ++nc) {
      const float v = rng->bernoulli(p) ? 0.f : scale;
      for (int64_t s = 0; s < spatial; ++s) m[nc * spatial + s] = v;
    }
  };
  draw();
  if (ag::capturing()) ag::record_side_effect(draw);
  return ag::mul_mask(x, mask);
}

FusedDropout::FusedDropout(int64_t B, float p, uint64_t seed)
    : FusedModule(B), p(p), rng_(seed) {}

ag::Variable FusedDropout::forward(const ag::Variable& x) {
  if (!is_training() || p == 0.f) return x;
  Tensor mask(x.shape());
  const float scale = 1.f / (1.f - p);
  auto draw = [mask, scale, p = p, rng = &rng_]() mutable {
    float* m = mask.data();
    for (int64_t i = 0; i < mask.numel(); ++i)
      m[i] = rng->bernoulli(p) ? 0.f : scale;
  };
  draw();
  if (ag::capturing()) ag::record_side_effect(draw);
  return ag::mul_mask(x, mask);
}

}  // namespace hfta::fused
