// Non-differentiable tensor kernels: elementwise (with full numpy-style
// broadcasting), reductions, shape ops, softmax, embedding lookup.
// The autograd layer (src/autograd) wraps these with backward rules.
// Kernels that recorded forward ops run take an optional output `dst`
// (Tensor::empty_or): undefined allocates, defined is written in place.
#pragma once

#include <utility>
#include <vector>

#include "core/function_ref.h"
#include "tensor/tensor.h"

namespace hfta::ops {

// ---- dtype -----------------------------------------------------------------

/// Converted copy at `dt` (RNE when narrowing; identity when dtype already
/// matches). The autograd layer wraps this as ag::cast.
inline Tensor cast(const Tensor& a, DType dt, const Tensor& dst = {}) {
  return a.to(dt, dst);
}

/// Widens f16/bf16 to f32 (identity for f32 inputs). GEMM/conv kernels call
/// this on every tensor operand at entry — that single choke point is what
/// implements "fp32-accumulate from low-precision inputs" without teaching
/// the inner loops about element types. The widened scratch comes from the
/// pool (a pool hit when warm, not a heap allocation) and is acquired on the
/// launching thread, before any parallel_for.
inline Tensor as_f32(const Tensor& a) { return a.to(DType::kF32); }

// ---- broadcasting ----------------------------------------------------------

/// Broadcast result shape of a and b; throws on incompatibility.
Shape broadcast_shapes(const Shape& a, const Shape& b);

/// Elementwise binary op with broadcasting.
Tensor binary(const Tensor& a, const Tensor& b, float (*fn)(float, float),
              const Tensor& dst = {});

Tensor add(const Tensor& a, const Tensor& b, const Tensor& dst = {});
Tensor sub(const Tensor& a, const Tensor& b, const Tensor& dst = {});
Tensor mul(const Tensor& a, const Tensor& b, const Tensor& dst = {});
Tensor div(const Tensor& a, const Tensor& b, const Tensor& dst = {});

/// Sums `grad` down to `shape` (inverse of broadcasting) — used by the
/// backward of broadcasting binary ops.
Tensor reduce_to_shape(const Tensor& grad, const Shape& shape);

// ---- scalar / unary ---------------------------------------------------------

Tensor add_scalar(const Tensor& a, float s, const Tensor& dst = {});
Tensor mul_scalar(const Tensor& a, float s, const Tensor& dst = {});
/// Elementwise map.
Tensor unary(const Tensor& a, FunctionRef<float(float)> fn,
             const Tensor& dst = {});
Tensor neg(const Tensor& a, const Tensor& dst = {});
Tensor exp(const Tensor& a, const Tensor& dst = {});
Tensor log(const Tensor& a, const Tensor& dst = {});
Tensor sqrt(const Tensor& a, const Tensor& dst = {});
Tensor tanh(const Tensor& a, const Tensor& dst = {});
Tensor sigmoid(const Tensor& a, const Tensor& dst = {});
Tensor relu(const Tensor& a, const Tensor& dst = {});
/// gy * ((x > 0) ? 1 : 0) in one pass — the relu backward mask-and-multiply
/// without materializing the mask (bit-identical to the two-pass form).
Tensor relu_backward(const Tensor& gy, const Tensor& x);
Tensor clamp(const Tensor& a, float lo, float hi, const Tensor& dst = {});
Tensor leaky_relu(const Tensor& a, float slope, const Tensor& dst = {});
Tensor pow_scalar(const Tensor& a, float p, const Tensor& dst = {});

// ---- reductions -------------------------------------------------------------

/// Sum over `dims` (each in [0, rank)); keepdim keeps size-1 dims.
Tensor sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim,
           const Tensor& dst = {});
/// Sum of everything -> scalar tensor (shape {}).
Tensor sum_all(const Tensor& a, const Tensor& dst = {});
Tensor mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim);
Tensor mean_all(const Tensor& a);
/// Max over one dim; returns {values, indices} (indices stored as floats).
std::pair<Tensor, Tensor> max_dim(const Tensor& a, int64_t dim, bool keepdim);
/// Argmax over one dim (indices as floats).
Tensor argmax(const Tensor& a, int64_t dim);

// ---- shape ops ---------------------------------------------------------------

/// Concatenate along `dim`; all other dims must match.
Tensor concat(const std::vector<Tensor>& ts, int64_t dim,
              const Tensor& dst = {});
/// Split into pieces of the given sizes along `dim`.
std::vector<Tensor> split(const Tensor& t, const std::vector<int64_t>& sizes,
                          int64_t dim);
/// Split into `chunks` equal pieces along `dim` (must divide evenly).
std::vector<Tensor> chunk(const Tensor& t, int64_t chunks, int64_t dim);
/// Repeats the whole tensor `reps` times along a new leading dim.
Tensor stack_repeat(const Tensor& t, int64_t reps);

// ---- softmax family -----------------------------------------------------------

Tensor softmax(const Tensor& a, int64_t dim, const Tensor& dst = {});
Tensor log_softmax(const Tensor& a, int64_t dim, const Tensor& dst = {});
/// Backward of log_softmax: gx = gy - softmax(x) * sum(gy, dim).
Tensor log_softmax_backward(const Tensor& gy, const Tensor& log_probs,
                            int64_t dim);
/// Backward of softmax: gx = y * (gy - sum(gy * y, dim)).
Tensor softmax_backward(const Tensor& gy, const Tensor& y, int64_t dim);

// ---- embedding -----------------------------------------------------------------

/// indices: any shape, values must be integral in [0, V); weight: [V, E].
/// Returns [*indices.shape, E].
Tensor embedding(const Tensor& indices, const Tensor& weight,
                 const Tensor& dst = {});
/// Scatter-add of grad_out into grad_weight [V, E].
Tensor embedding_backward(const Tensor& grad_out, const Tensor& indices,
                          int64_t vocab);

// ---- comparisons / metrics -------------------------------------------------------

/// Fraction of positions where argmax(logits, -1) equals labels.
double accuracy(const Tensor& logits, const Tensor& labels);

/// Max |a - b| over all elements (shapes must match).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace hfta::ops
