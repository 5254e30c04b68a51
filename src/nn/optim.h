// Serial optimizers: SGD (momentum / weight decay), Adam, Adadelta — the
// three the paper exercises. Each is the B = 1 case of its fused
// counterpart (hfta/fused_optim.h): the constructor wraps the plain
// parameters as one-model FusedParams and lifts the scalar Options into
// size-1 hyper-parameter vectors, and every step runs the fused code.
// lr() is therefore a one-element vector, and the fused schedulers
// (hfta/fused_sched.h) drive these optimizers too.
#pragma once

#include <vector>

#include "autograd/variable.h"
#include "hfta/fused_optim.h"

namespace hfta::nn {

class SGD : public fused::FusedSGD {
 public:
  struct Options {
    double lr = 0.01;
    double momentum = 0.0;
    double weight_decay = 0.0;
  };
  SGD(std::vector<ag::Variable> params, Options opt);
};

class Adam : public fused::FusedAdam {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };
  Adam(std::vector<ag::Variable> params, Options opt);
};

class Adadelta : public fused::FusedAdadelta {
 public:
  struct Options {
    double lr = 1.0;
    double rho = 0.9;
    double eps = 1e-6;
    double weight_decay = 0.0;
  };
  Adadelta(std::vector<ag::Variable> params, Options opt);
};

}  // namespace hfta::nn
