#include "nn/optim.h"

namespace hfta::nn {

namespace {

/// Plain parameters as the parameters of a one-model array.
std::vector<fused::FusedParam> single_model(std::vector<ag::Variable> params) {
  std::vector<fused::FusedParam> out;
  out.reserve(params.size());
  for (ag::Variable& p : params)
    out.push_back(fused::FusedParam{std::move(p), 1});
  return out;
}

}  // namespace

SGD::SGD(std::vector<ag::Variable> params, Options opt)
    : fused::FusedSGD(single_model(std::move(params)), 1,
                      {{opt.lr}, {opt.momentum}, {opt.weight_decay}}) {}

Adam::Adam(std::vector<ag::Variable> params, Options opt)
    : fused::FusedAdam(single_model(std::move(params)), 1,
                       {{opt.lr}, {opt.beta1}, {opt.beta2}, {opt.eps},
                        {opt.weight_decay}}) {}

Adadelta::Adadelta(std::vector<ag::Variable> params, Options opt)
    : fused::FusedAdadelta(single_model(std::move(params)), 1,
                           {{opt.lr}, {opt.rho}, {opt.eps},
                            {opt.weight_decay}}) {}

}  // namespace hfta::nn
