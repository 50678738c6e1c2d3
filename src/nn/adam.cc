#include "nn/adam.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace trap::nn {

namespace {

// The per-step constants of the update.
struct StepConsts {
  double beta1, beta2, c1, c2, bc1, bc2, lr, eps, scale;
  bool clip;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// True when each of the n elements of g is +0.0 or -0.0.
bool AllZero(const double* g, int n) {
  uint64_t bits = 0;
  for (int i = 0; i < n; ++i) bits |= Bits(g[i]) << 1;  // drops the sign
  return bits == 0;
}

// True when each of the n elements of g, m and v is the +0.0 bit pattern.
// An active row nearly always shows it in its first element.
bool Idle(const double* g, const double* m, const double* v, int n) {
  if (n > 0 && (Bits(g[0]) | Bits(m[0]) | Bits(v[0])) != 0) return false;
  uint64_t bits = 0;
  for (int i = 0; i < n; ++i) bits |= Bits(g[i]) | Bits(m[i]) | Bits(v[i]);
  return bits == 0;
}

// The reference update of n elements: scale the gradient, update both
// moments and the value, and zero the gradient. The arrays are distinct
// matrices of one Parameter, so the loop vectorises; each element still
// evaluates the reference expressions in the reference order.
void UpdateRow(double* __restrict value, double* __restrict g,
               double* __restrict m, double* __restrict v, int n,
               const StepConsts& k) {
  for (int i = 0; i < n; ++i) {
    double gi = k.clip ? g[i] * k.scale : g[i];
    m[i] = k.beta1 * m[i] + k.c1 * gi;
    v[i] = k.beta2 * v[i] + k.c2 * gi * gi;
    double mhat = m[i] / k.bc1;
    double vhat = v[i] / k.bc2;
    value[i] -= k.lr * mhat / (std::sqrt(vhat) + k.eps);
    g[i] = 0.0;
  }
}

}  // namespace

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  ++t_;
  // Global-norm clipping: the norm folds every gradient element in
  // parameter order; the scale is applied inside the update pass below. A
  // row of zeros is skipped: each square is +0, and adding +0 leaves the
  // sum (never -0.0) as it is.
  bool clip = false;
  double scale = 1.0;
  if (max_grad_norm_ > 0.0) {
    double sq = 0.0;
    for (Parameter* p : params_) {
      const int cols = p->grad.cols();
      for (int r = 0; r < p->grad.rows(); ++r) {
        const double* g = p->grad.row(r);
        if (AllZero(g, cols)) continue;
        for (int i = 0; i < cols; ++i) sq += g[i] * g[i];
      }
    }
    double norm = std::sqrt(sq);
    if (norm > max_grad_norm_) {
      clip = true;
      scale = max_grad_norm_ / norm;
    }
  }
  const StepConsts k{beta1_,
                     beta2_,
                     1.0 - beta1_,
                     1.0 - beta2_,
                     1.0 - std::pow(beta1_, static_cast<double>(t_)),
                     1.0 - std::pow(beta2_, static_cast<double>(t_)),
                     lr_,
                     eps_,
                     scale,
                     clip};
  // A row whose gradient and moments are all +0.0 is left exactly as it
  // is by the update (DESIGN.md §3k) when these hold, so it is skipped.
  const bool skip_idle = std::isfinite(k.beta1) && std::isfinite(k.beta2) &&
                         k.bc1 > 0.0 && k.bc2 > 0.0 && k.lr >= 0.0 &&
                         std::isfinite(k.lr) && k.eps > 0.0;
  for (Parameter* p : params_) {
    const int cols = p->value.cols();
    for (int r = 0; r < p->value.rows(); ++r) {
      double* g = p->grad.row(r);
      double* m = p->m.row(r);
      double* v = p->v.row(r);
      if (skip_idle && Idle(g, m, v, cols)) continue;
      UpdateRow(p->value.row(r), g, m, v, cols, k);
    }
  }
}

}  // namespace trap::nn
