#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "nn/adam.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/transformer.h"

namespace trap::nn {
namespace {

// Checks d(loss)/d(param) for every element of `p` against central finite
// differences of `loss_fn` (which must build a fresh graph and return the
// scalar loss). `build_and_backward` must run forward+backward accumulating
// into p->grad.
void CheckParameterGradient(Parameter* p,
                            const std::function<double()>& loss_fn,
                            const std::function<void()>& build_and_backward,
                            double tol = 1e-6) {
  p->grad.Zero();
  build_and_backward();
  Matrix analytic = p->grad;
  const double eps = 1e-5;
  for (int i = 0; i < p->value.size(); ++i) {
    double orig = p->value.data()[i];
    p->value.data()[i] = orig + eps;
    double up = loss_fn();
    p->value.data()[i] = orig - eps;
    double down = loss_fn();
    p->value.data()[i] = orig;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "param element " << i;
  }
}

TEST(GraphTest, MatMulForward) {
  Graph g;
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7; b.at(1, 0) = 8; b.at(2, 0) = 9;
  b.at(0, 1) = 1; b.at(1, 1) = 2; b.at(2, 1) = 3;
  auto c = g.MatMul(g.Input(a), g.Input(b));
  EXPECT_DOUBLE_EQ(g.value(c).at(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_DOUBLE_EQ(g.value(c).at(1, 1), 4 * 1 + 5 * 2 + 6 * 3);
}

TEST(GraphTest, AddBroadcastsRow) {
  Graph g;
  Matrix a(2, 2);
  a.Fill(1.0);
  Matrix b(1, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 7;
  auto c = g.Add(g.Input(a), g.Input(b));
  EXPECT_DOUBLE_EQ(g.value(c).at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(g.value(c).at(1, 1), 8.0);
}

TEST(GraphTest, SoftmaxRowsSumToOne) {
  Graph g;
  common::Rng rng(3);
  Matrix a(3, 5);
  for (int i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  auto s = g.Softmax(g.Input(a));
  for (int i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 5; ++j) sum += g.value(s).at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(GraphTest, LogSoftmaxMatchesSoftmax) {
  Graph g;
  Matrix a(1, 4);
  a.at(0, 0) = 0.1; a.at(0, 1) = -2.0; a.at(0, 2) = 3.0; a.at(0, 3) = 0.0;
  auto ls = g.LogSoftmax(g.Input(a));
  auto sm = g.Softmax(g.Input(a));
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(std::exp(g.value(ls).at(0, j)), g.value(sm).at(0, j), 1e-12);
  }
}

// Parameterized gradient check across ops: builds loss = Sum(op(x W)) for a
// variety of ops and validates dW numerically.
struct OpCase {
  const char* name;
  std::function<Graph::VarId(Graph&, Graph::VarId)> op;
};

// Prints the case by name only. The default printer dumps the string's
// address and the std::function's bytes, which differ from run to run and
// would leak into the listed test names.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class OpGradientTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradientTest, MatchesFiniteDifference) {
  const auto& op = GetParam().op;
  common::Rng rng(11);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian(0.0, 0.7);

  auto loss_value = [&]() {
    Graph g;
    auto y = op(g, g.MatMul(g.Input(x), g.Param(w)));
    return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    auto y = op(g, g.MatMul(g.Input(x), g.Param(w)));
    g.Backward(g.Sum(g.Mul(y, y)));
  };
  CheckParameterGradient(w, loss_value, run, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradientTest,
    ::testing::Values(
        OpCase{"identity",
               [](Graph& g, Graph::VarId v) { (void)g; return v; }},
        OpCase{"tanh",
               [](Graph& g, Graph::VarId v) { return g.Tanh(v); }},
        OpCase{"sigmoid",
               [](Graph& g, Graph::VarId v) { return g.Sigmoid(v); }},
        OpCase{"relu",
               [](Graph& g, Graph::VarId v) { return g.Relu(v); }},
        OpCase{"softmax",
               [](Graph& g, Graph::VarId v) { return g.Softmax(v); }},
        OpCase{"logsoftmax",
               [](Graph& g, Graph::VarId v) { return g.LogSoftmax(v); }},
        OpCase{"transpose",
               [](Graph& g, Graph::VarId v) { return g.Transpose(v); }},
        OpCase{"scale",
               [](Graph& g, Graph::VarId v) { return g.Scale(v, -1.7); }}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(GradientTest, GatherScattersGradientsSparsely) {
  common::Rng rng(5);
  ParameterStore store;
  Parameter* table = store.Create(6, 3, rng);
  std::vector<int> ids = {4, 1, 4};  // repeated row: gradients must add
  auto loss_value = [&]() {
    Graph g;
    auto e = g.Gather(table, ids);
    return g.value(g.Sum(g.Mul(e, e))).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    auto e = g.Gather(table, ids);
    g.Backward(g.Sum(g.Mul(e, e)));
  };
  CheckParameterGradient(table, loss_value, run);
  // Rows never gathered must have zero gradient.
  table->grad.Zero();
  run();
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(table->grad.at(0, c), 0.0);
    EXPECT_EQ(table->grad.at(2, c), 0.0);
    EXPECT_EQ(table->grad.at(3, c), 0.0);
    EXPECT_EQ(table->grad.at(5, c), 0.0);
  }
}

TEST(GradientTest, GruCellGradient) {
  common::Rng rng(7);
  ParameterStore store;
  GruCell cell(&store, 3, 4, rng);
  Matrix x(1, 3);
  Matrix h(1, 4);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  for (int i = 0; i < h.size(); ++i) h.data()[i] = rng.Gaussian(0.0, 0.5);

  for (Parameter* p : store.parameters()) {
    auto loss_value = [&]() {
      Graph g;
      auto out = cell.Step(g, g.Input(x), g.Input(h));
      return g.value(g.Sum(g.Mul(out, out))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto out = cell.Step(g, g.Input(x), g.Input(h));
      g.Backward(g.Sum(g.Mul(out, out)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-5);
  }
}

TEST(GradientTest, LayerNormGradient) {
  common::Rng rng(13);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Parameter* gain = store.CreateConst(1, 4, 1.0);
  Parameter* bias = store.CreateZero(1, 4);
  // Perturb gain/bias so their gradients are non-trivial.
  for (int i = 0; i < 4; ++i) {
    gain->value.at(0, i) = 1.0 + 0.1 * i;
    bias->value.at(0, i) = 0.05 * i;
  }
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  for (Parameter* p : {w, gain, bias}) {
    auto loss_value = [&]() {
      Graph g;
      auto y = g.LayerNorm(g.MatMul(g.Input(x), g.Param(w)), gain, bias);
      return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto y = g.LayerNorm(g.MatMul(g.Input(x), g.Param(w)), gain, bias);
      g.Backward(g.Sum(g.Mul(y, y)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-4);
  }
}

TEST(GradientTest, TransformerLayerGradient) {
  common::Rng rng(17);
  ParameterStore store;
  TransformerConfig cfg;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.ff_dim = 16;
  cfg.num_layers = 1;
  TransformerEncoder enc(&store, cfg, rng);
  Matrix x(3, 8);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian(0.0, 0.5);
  // Spot-check a few parameters (full sweep is slow).
  std::vector<Parameter*> params = store.parameters();
  for (size_t pi : {size_t{0}, params.size() / 2, params.size() - 1}) {
    Parameter* p = params[pi];
    auto loss_value = [&]() {
      Graph g;
      auto y = enc.Forward(g, g.Input(x));
      return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto y = enc.Forward(g, g.Input(x));
      g.Backward(g.Sum(g.Mul(y, y)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-4);
  }
}

TEST(GradientTest, StackRowsGradient) {
  common::Rng rng(37);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Parameter* v = store.Create(2, 4, rng);
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  Matrix pool(1, 2);
  pool.Fill(0.5);
  // Parts of different heights, one of them stacked twice.
  auto build = [&](Graph& g) {
    auto top = g.Tanh(g.MatMul(g.Input(x), g.Param(w)));  // 2x4
    auto mid = g.Param(v);                                 // 2x4
    auto row = g.MatMul(g.Input(pool), top);               // 1x4
    return g.StackRows({top, mid, row, top});
  };
  EXPECT_EQ([&] {
    Graph g;
    return g.value(build(g)).rows();
  }(), 7);
  for (Parameter* p : {w, v}) {
    auto loss_value = [&]() {
      Graph g;
      auto y = build(g);
      return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto y = build(g);
      g.Backward(g.Sum(g.Mul(y, y)));
    };
    CheckParameterGradient(p, loss_value, run);
  }
}

TEST(GradientTest, StackRowsMatchesRowValues) {
  Graph g;
  Matrix a(1, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  Matrix b(2, 2);
  b.at(0, 0) = 3;
  b.at(0, 1) = 4;
  b.at(1, 0) = 5;
  b.at(1, 1) = 6;
  auto s = g.StackRows({g.Input(a), g.Input(b)});
  ASSERT_EQ(g.value(s).rows(), 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(g.value(s).data()[i], i + 1.0);
}

// One cell's parameters borrowed by three unrolled steps: each step's use
// forms its own gradient sum, and the sums accumulate into the shared
// Parameter::grad latest step first.
TEST(GradientTest, GruParametersReusedAcrossUnrolledSteps) {
  common::Rng rng(41);
  ParameterStore store;
  GruCell cell(&store, 3, 4, rng);
  // Two sequences side by side, so each weight use sums two terms per
  // element before it reaches Parameter::grad.
  std::vector<Matrix> xs;
  for (int t = 0; t < 3; ++t) {
    Matrix x(2, 3);
    for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
    xs.push_back(x);
  }
  auto unroll = [&](Graph& g, const std::vector<const GruCell*>& steps) {
    Graph::VarId h = g.Input(Matrix(2, 4));
    Graph::VarId loss = g.Input(Matrix(1, 1));
    for (size_t t = 0; t < xs.size(); ++t) {
      h = steps[t]->Step(g, g.Input(xs[t]), h);
      loss = g.Add(loss, g.Sum(g.Mul(h, h)));
    }
    return loss;
  };
  const std::vector<const GruCell*> shared = {&cell, &cell, &cell};
  for (Parameter* p : store.parameters()) {
    auto loss_value = [&]() {
      Graph g;
      return g.value(unroll(g, shared)).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      g.Backward(unroll(g, shared));
    };
    CheckParameterGradient(p, loss_value, run, 1e-5);
  }

  // Bit-exact accumulation order: give each step its own copy of the cell,
  // so copy t's gradient is exactly step t's per-use sum, and fold those
  // into a zero gradient from the last step to the first.
  std::vector<ParameterStore> copy_stores(3);
  std::vector<GruCell> copies;
  for (ParameterStore& cs : copy_stores) {
    copies.emplace_back(&cs, 3, 4, rng);
    cs.CopyValuesFrom(store);
  }
  {
    Graph g;
    g.Backward(unroll(g, {&copies[0], &copies[1], &copies[2]}));
  }
  store.ZeroGrad();
  {
    Graph g;
    g.Backward(unroll(g, shared));
  }
  std::vector<Parameter*> params = store.parameters();
  for (size_t k = 0; k < params.size(); ++k) {
    for (int i = 0; i < params[k]->grad.size(); ++i) {
      double expected = 0.0;
      for (int t = 2; t >= 0; --t) {
        expected += copy_stores[static_cast<size_t>(t)]
                        .parameters()[k]->grad.data()[i];
      }
      ASSERT_EQ(params[k]->grad.data()[i], expected)
          << "parameter " << k << " element " << i;
    }
  }
}

// Three leaves of one parameter, two of them read by the same op: the
// parameter's gradient is still the three per-use sums, latest use first,
// exactly as when each use reads its own copy of the parameter.
TEST(GradientTest, SameParameterLeavesAccumulateLatestFirst) {
  common::Rng rng(53);
  std::vector<ParameterStore> stores(4);
  std::vector<Parameter*> w;
  for (ParameterStore& st : stores) w.push_back(st.Create(2, 3, rng));
  for (size_t k = 1; k < w.size(); ++k) w[k]->value = w[0]->value;
  Matrix x(3, 6);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  // a, b and c are read by the three leaves, in tape order.
  auto run = [&](Parameter* a, Parameter* b, Parameter* c) {
    Graph g;
    auto pa = g.Param(a);
    auto pb = g.Param(b);
    auto cat = g.Tanh(g.ConcatCols(pa, pb));  // 2x6
    auto y = g.Add(g.MatMul(g.Param(c), g.Input(x)), cat);
    g.Backward(g.Sum(g.Mul(y, y)));
  };
  run(w[0], w[0], w[0]);
  run(w[1], w[2], w[3]);
  for (int i = 0; i < w[0]->grad.size(); ++i) {
    double expected = 0.0;
    expected += w[3]->grad.data()[i];
    expected += w[2]->grad.data()[i];
    expected += w[1]->grad.data()[i];
    ASSERT_EQ(w[0]->grad.data()[i], expected) << "element " << i;
  }
}

TEST(GradientTest, MatMulOfNodeWithItself) {
  common::Rng rng(43);
  ParameterStore store;
  Parameter* w = store.Create(3, 3, rng);
  auto loss_value = [&]() {
    Graph g;
    auto p = g.Param(w);
    auto y = g.MatMul(p, p);
    return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    auto p = g.Param(w);
    auto y = g.MatMul(p, p);
    g.Backward(g.Sum(g.Mul(y, y)));
  };
  CheckParameterGradient(w, loss_value, run);
}

// Inference never touches gradients: a forward-only graph, and a Backward
// from a loss no parameter feeds, leave every Parameter::grad as it was.
TEST(GradientTest, ForwardOnlyGraphLeavesGradientsUntouched) {
  common::Rng rng(47);
  ParameterStore store;
  Embedding embed(&store, 5, 3, rng);
  GruCell cell(&store, 3, 4, rng);
  Mlp head(&store, {4, 6, 2}, rng);
  for (Parameter* p : store.parameters()) p->grad.Fill(0.25);
  Graph g;
  Graph::VarId h = g.Input(Matrix(1, 4));
  for (int id : {1, 4, 2}) h = cell.Step(g, embed.Forward(g, {id}), h);
  Graph::VarId out = g.LogSoftmax(head.Forward(g, h));
  EXPECT_EQ(g.value(out).cols(), 2);
  Matrix c(1, 1);
  c.at(0, 0) = 3.0;
  g.Backward(g.Sum(g.Tanh(g.Input(c))));
  for (Parameter* p : store.parameters()) {
    for (int i = 0; i < p->grad.size(); ++i) {
      ASSERT_EQ(p->grad.data()[i], 0.25);
    }
  }
}

TEST(LayersTest, LinearShapesAndParamCount) {
  common::Rng rng(19);
  ParameterStore store;
  Linear lin(&store, 5, 3, rng);
  EXPECT_EQ(store.NumParameters(), 5 * 3 + 3);
  Graph g;
  Matrix x(2, 5);
  auto y = lin.Forward(g, g.Input(x));
  EXPECT_EQ(g.value(y).rows(), 2);
  EXPECT_EQ(g.value(y).cols(), 3);
}

TEST(LayersTest, MlpReducesLossOnToyRegression) {
  common::Rng rng(23);
  ParameterStore store;
  Mlp mlp(&store, {2, 16, 1}, rng);
  Adam opt(store.parameters(), 0.01);
  // Learn f(x) = x0 - 2*x1.
  auto sample_loss = [&](bool train) {
    double total = 0.0;
    for (int i = 0; i < 32; ++i) {
      Matrix x(1, 2);
      x.at(0, 0) = rng.Uniform(-1, 1);
      x.at(0, 1) = rng.Uniform(-1, 1);
      double target = x.at(0, 0) - 2.0 * x.at(0, 1);
      Graph g;
      auto pred = mlp.Forward(g, g.Input(x));
      Matrix t(1, 1);
      t.at(0, 0) = target;
      auto diff = g.Sub(pred, g.Input(t));
      auto loss = g.Sum(g.Mul(diff, diff));
      total += g.value(loss).at(0, 0);
      if (train) {
        g.Backward(loss);
        opt.Step();
      }
    }
    return total / 32.0;
  };
  double initial = sample_loss(false);
  for (int epoch = 0; epoch < 30; ++epoch) sample_loss(true);
  double trained = sample_loss(false);
  EXPECT_LT(trained, initial * 0.15);
}

TEST(AdamTest, GradientClippingBoundsNorm) {
  common::Rng rng(29);
  ParameterStore store;
  Parameter* p = store.Create(2, 2, rng);
  Adam opt(store.parameters(), 0.1);
  opt.set_max_grad_norm(1.0);
  p->grad.Fill(100.0);
  Matrix before = p->value;
  opt.Step();
  // With clipped norm 1 and lr 0.1, no element can move more than ~0.1/|g|.
  for (int i = 0; i < p->value.size(); ++i) {
    EXPECT_LT(std::abs(p->value.data()[i] - before.data()[i]), 0.2);
  }
}

// The MatMul and Adam loops as they were written before the vectorised
// kernels, kept as references: the kernels must match them bit for bit
// (DESIGN.md §3k).
namespace reference {

// out += A * B: out(i,j) over ascending k, skipping A(i,k) == 0.
void MatMulForward(const Matrix& A, const Matrix& B, Matrix* out) {
  for (int i = 0; i < A.rows(); ++i) {
    const double* arow = A.row(i);
    double* orow = out->row(i);
    for (int k = 0; k < A.cols(); ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* brow = B.row(k);
      for (int j = 0; j < B.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

// da += G * B^T: da(i,k) over ascending j, skipping G(i,j) == 0.
void MatMulDa(const Matrix& G, const Matrix& B, Matrix* da) {
  for (int i = 0; i < G.rows(); ++i) {
    const double* grow = G.row(i);
    double* darow = da->row(i);
    for (int k = 0; k < B.rows(); ++k) {
      const double* brow = B.row(k);
      double acc = darow[k];
      for (int j = 0; j < G.cols(); ++j) {
        if (grow[j] != 0.0) acc += grow[j] * brow[j];
      }
      darow[k] = acc;
    }
  }
}

// db += A^T * G: db(k,j) over ascending i, skipping G(i,j) == 0.
void MatMulDb(const Matrix& G, const Matrix& A, Matrix* db) {
  for (int i = 0; i < G.rows(); ++i) {
    const double* grow = G.row(i);
    for (int k = 0; k < A.cols(); ++k) {
      double av = A.row(i)[k];
      double* dbrow = db->row(k);
      for (int j = 0; j < G.cols(); ++j) {
        if (grow[j] != 0.0) dbrow[j] += av * grow[j];
      }
    }
  }
}

// Adam::Step's update as step t of an optimizer with these settings.
void AdamStep(const std::vector<Parameter*>& params, double lr, double beta1,
              double beta2, double eps, double max_grad_norm, int64_t t) {
  bool clip = false;
  double scale = 1.0;
  if (max_grad_norm > 0.0) {
    double sq = 0.0;
    for (Parameter* p : params) {
      const double* g = p->grad.data();
      for (int i = 0; i < p->grad.size(); ++i) sq += g[i] * g[i];
    }
    double norm = std::sqrt(sq);
    if (norm > max_grad_norm) {
      clip = true;
      scale = max_grad_norm / norm;
    }
  }
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  const double c1 = 1.0 - beta1;
  const double c2 = 1.0 - beta2;
  for (Parameter* p : params) {
    double* value = p->value.data();
    double* g = p->grad.data();
    double* m = p->m.data();
    double* v = p->v.data();
    for (int i = 0; i < p->value.size(); ++i) {
      double gi = clip ? g[i] * scale : g[i];
      m[i] = beta1 * m[i] + c1 * gi;
      v[i] = beta2 * v[i] + c2 * gi * gi;
      double mhat = m[i] / bc1;
      double vhat = v[i] / bc2;
      value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      g[i] = 0.0;
    }
  }
}

}  // namespace reference

// Element-wise bit equality, which tells -0.0 from +0.0.
void ExpectSameBits(const Matrix& got, const Matrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.data()[i]),
              std::bit_cast<uint64_t>(want.data()[i]))
        << what << " element " << i << ": " << got.data()[i] << " vs "
        << want.data()[i];
  }
}

// Uniform values with 0.0 and -0.0 scattered through them.
Matrix RandomWithZeros(int rows, int cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    const double u = rng.Uniform();
    m.data()[i] = u < 0.12 ? 0.0 : u < 0.24 ? -0.0 : rng.Uniform(-1.0, 1.0);
  }
  return m;
}

// The loss sum(MatMul(a, b) .* d) hands MatMul's backward the gradient
// 0.0 + 1.0 * d, which equals d but for its zeros' signs; the reference
// loops take d itself, -0.0 included, and skip both zeros alike. The
// shapes have odd widths and cover a dB (rows == 1) and a dA (cols == 1)
// that go straight into Parameter::grad. Gradients accumulate over six
// steps, so the kernels also add onto non-zero sums.
TEST(KernelReferenceTest, MatMulMatchesReferenceLoopsBitForBit) {
  common::Rng rng(41);
  const int shapes[][3] = {{5, 9, 7}, {1, 9, 13}, {6, 11, 1}, {3, 4, 17}};
  for (const auto& shape : shapes) {
    const int rows = shape[0];
    const int inner = shape[1];
    const int cols = shape[2];
    SCOPED_TRACE(testing::Message() << rows << "x" << inner << "x" << cols);
    Parameter a(rows, inner);
    Parameter b(inner, cols);
    Matrix want_ga(rows, inner);
    Matrix want_gb(inner, cols);
    for (int step = 0; step < 6; ++step) {
      a.value = RandomWithZeros(rows, inner, rng);
      b.value = RandomWithZeros(inner, cols, rng);
      const Matrix d = RandomWithZeros(rows, cols, rng);
      Graph g;
      Graph::VarId out = g.MatMul(g.Param(&a), g.Param(&b));
      g.Backward(g.Sum(g.Mul(out, g.Input(d))));

      Matrix want(rows, cols);
      reference::MatMulForward(a.value, b.value, &want);
      ExpectSameBits(g.value(out), want, "forward");
      // A Param leaf whose use adds one term per element takes it straight
      // into Parameter::grad; otherwise the leaf sums first.
      Matrix leaf_a(rows, inner);
      reference::MatMulDa(d, b.value, cols == 1 ? &want_ga : &leaf_a);
      Matrix leaf_b(inner, cols);
      reference::MatMulDb(d, a.value, rows == 1 ? &want_gb : &leaf_b);
      for (int i = 0; i < want_ga.size() && cols != 1; ++i) {
        want_ga.data()[i] += leaf_a.data()[i];
      }
      for (int i = 0; i < want_gb.size() && rows != 1; ++i) {
        want_gb.data()[i] += leaf_b.data()[i];
      }
      ExpectSameBits(a.grad, want_ga, "dA");
      ExpectSameBits(b.grad, want_gb, "dB");
    }
  }
}

// Two copies of the same parameters, one stepped by Adam, one by the
// reference loop, with clipping off and on. Row 1 of the first parameter
// stays idle and holds a -0.0 value; row 2 is idle for four steps and
// then active; row 3's gradient is -0.0 (not an idle bit pattern) on
// every other step; row 4 has a zero gradient after three active steps,
// while its moments are not zero. The remaining gradients have zeros
// scattered through.
TEST(KernelReferenceTest, AdamMatchesReferenceLoopBitForBit) {
  for (const double max_grad_norm : {0.0, 0.5}) {
    SCOPED_TRACE(testing::Message() << "max_grad_norm " << max_grad_norm);
    common::Rng rng(43);
    std::vector<std::unique_ptr<Parameter>> got_store;
    std::vector<std::unique_ptr<Parameter>> want_store;
    std::vector<Parameter*> got;
    std::vector<Parameter*> want;
    for (const auto& [r, c] : {std::pair{6, 5}, {1, 9}, {4, 3}}) {
      got_store.push_back(std::make_unique<Parameter>(r, c));
      got_store.back()->value = RandomWithZeros(r, c, rng);
      want_store.push_back(std::make_unique<Parameter>(r, c));
      want_store.back()->value = got_store.back()->value;
      got.push_back(got_store.back().get());
      want.push_back(want_store.back().get());
    }
    got[0]->value.at(1, 2) = -0.0;
    want[0]->value.at(1, 2) = -0.0;
    const double lr = 0.01;
    Adam adam(got, lr);
    adam.set_max_grad_norm(max_grad_norm);
    for (int64_t step = 1; step <= 8; ++step) {
      for (size_t p = 0; p < got.size(); ++p) {
        Matrix grad = RandomWithZeros(got[p]->grad.rows(),
                                      got[p]->grad.cols(), rng);
        if (p == 0) {
          for (int c = 0; c < grad.cols(); ++c) {
            grad.at(1, c) = 0.0;
            if (step <= 4) grad.at(2, c) = 0.0;
            if (step % 2 == 0) grad.at(3, c) = -0.0;
            if (step > 3) grad.at(4, c) = 0.0;
          }
        }
        got[p]->grad = grad;
        want[p]->grad = grad;
      }
      adam.Step();
      reference::AdamStep(want, lr, 0.9, 0.999, 1e-8, max_grad_norm, step);
      for (size_t p = 0; p < got.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "step " << step << " param " << p);
        ExpectSameBits(got[p]->value, want[p]->value, "value");
        ExpectSameBits(got[p]->grad, want[p]->grad, "grad");
        ExpectSameBits(got[p]->m, want[p]->m, "m");
        ExpectSameBits(got[p]->v, want[p]->v, "v");
      }
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(got[0]->value.at(1, 2)),
              std::bit_cast<uint64_t>(-0.0));
  }
}

TEST(TransformerTest, PositionalEncodingBounds) {
  Matrix pe = PositionalEncoding(10, 8);
  for (int i = 0; i < pe.size(); ++i) {
    EXPECT_LE(std::abs(pe.data()[i]), 1.0);
  }
  // Different positions yield different encodings.
  bool differs = false;
  for (int c = 0; c < 8; ++c) {
    if (pe.at(1, c) != pe.at(2, c)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(ParameterStoreTest, CopyValuesFrom) {
  common::Rng rng(31);
  ParameterStore a;
  ParameterStore b;
  Parameter* pa = a.Create(2, 3, rng);
  Parameter* pb = b.Create(2, 3, rng);
  EXPECT_NE(pa->value.at(0, 0), pb->value.at(0, 0));
  b.CopyValuesFrom(a);
  for (int i = 0; i < pa->value.size(); ++i) {
    EXPECT_EQ(pa->value.data()[i], pb->value.data()[i]);
  }
}

}  // namespace
}  // namespace trap::nn
