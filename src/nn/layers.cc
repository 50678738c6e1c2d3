#include "nn/layers.h"

namespace trap::nn {

Parameter* ParameterStore::Create(int rows, int cols, common::Rng& rng) {
  auto p = std::make_unique<Parameter>(rows, cols);
  p->value.InitXavier(rng);
  params_.push_back(std::move(p));
  return params_.back().get();
}

Parameter* ParameterStore::CreateZero(int rows, int cols) {
  params_.push_back(std::make_unique<Parameter>(rows, cols));
  return params_.back().get();
}

Parameter* ParameterStore::CreateConst(int rows, int cols, double value) {
  auto p = std::make_unique<Parameter>(rows, cols);
  p->value.Fill(value);
  params_.push_back(std::move(p));
  return params_.back().get();
}

std::vector<Parameter*> ParameterStore::parameters() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

int64_t ParameterStore::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParameterStore::ZeroGrad() {
  for (auto& p : params_) p->grad.Zero();
}

void ParameterStore::CopyValuesFrom(const ParameterStore& other) {
  TRAP_CHECK(params_.size() == other.params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    TRAP_CHECK(params_[i]->value.size() == other.params_[i]->value.size());
    params_[i]->value = other.params_[i]->value;
  }
}

Linear::Linear(ParameterStore* store, int in, int out, common::Rng& rng)
    : w_(store->Create(in, out, rng)), b_(store->CreateZero(1, out)) {}

Graph::VarId Linear::Forward(Graph& g, Graph::VarId x) const {
  return g.Add(g.MatMul(x, g.Param(w_)), g.Param(b_));
}

Embedding::Embedding(ParameterStore* store, int vocab, int dim,
                     common::Rng& rng)
    : table_(store->Create(vocab, dim, rng)), dim_(dim) {}

Graph::VarId Embedding::Forward(Graph& g, std::span<const int> ids) const {
  return g.Gather(table_, ids);
}

GruCell::GruCell(ParameterStore* store, int input, int hidden,
                 common::Rng& rng)
    : xz_(store, input, hidden, rng),
      hz_(store, hidden, hidden, rng),
      xr_(store, input, hidden, rng),
      hr_(store, hidden, hidden, rng),
      xn_(store, input, hidden, rng),
      hn_(store, hidden, hidden, rng),
      hidden_(hidden) {}

Graph::VarId GruCell::Step(Graph& g, Graph::VarId x, Graph::VarId h) const {
  Graph::VarId z = g.Sigmoid(g.Add(xz_.Forward(g, x), hz_.Forward(g, h)));
  Graph::VarId r = g.Sigmoid(g.Add(xr_.Forward(g, x), hr_.Forward(g, h)));
  Graph::VarId n =
      g.Tanh(g.Add(xn_.Forward(g, x), hn_.Forward(g, g.Mul(r, h))));
  return g.Add(h, g.Mul(z, g.Sub(n, h)));
}

Mlp::Mlp(ParameterStore* store, const std::vector<int>& dims,
         common::Rng& rng) {
  TRAP_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, dims[i], dims[i + 1], rng);
  }
}

Graph::VarId Mlp::Forward(Graph& g, Graph::VarId x) const {
  Graph::VarId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(g, h);
    if (i + 1 < layers_.size()) h = g.Relu(h);
  }
  return h;
}

}  // namespace trap::nn
