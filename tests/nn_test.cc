#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

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
