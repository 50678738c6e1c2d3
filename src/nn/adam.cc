#include "nn/adam.h"

#include <cmath>

namespace trap::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  ++t_;
  // Global-norm clipping: the norm folds every gradient element in
  // parameter order; the scale is applied inside the update pass below.
  bool clip = false;
  double scale = 1.0;
  if (max_grad_norm_ > 0.0) {
    double sq = 0.0;
    for (Parameter* p : params_) {
      const double* g = p->grad.data();
      for (int i = 0; i < p->grad.size(); ++i) sq += g[i] * g[i];
    }
    double norm = std::sqrt(sq);
    if (norm > max_grad_norm_) {
      clip = true;
      scale = max_grad_norm_ / norm;
    }
  }
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double c1 = 1.0 - beta1_;
  const double c2 = 1.0 - beta2_;
  // One pass per parameter: scale the gradient, update both moments and the
  // value, and zero the gradient for the next accumulation.
  for (Parameter* p : params_) {
    double* value = p->value.data();
    double* g = p->grad.data();
    double* m = p->m.data();
    double* v = p->v.data();
    for (int i = 0; i < p->value.size(); ++i) {
      double gi = clip ? g[i] * scale : g[i];
      m[i] = beta1_ * m[i] + c1 * gi;
      v[i] = beta2_ * v[i] + c2 * gi * gi;
      double mhat = m[i] / bc1;
      double vhat = v[i] / bc2;
      value[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      g[i] = 0.0;
    }
  }
}

}  // namespace trap::nn
