#include "nn/graph.h"

#include <algorithm>
#include <cmath>

namespace trap::nn {

// Every kernel below keeps the accumulation order documented in DESIGN.md
// §3k: each output or gradient element receives its terms in a fixed
// sequence, which makes results bit-identical run to run. Shapes are checked
// once at op entry; the loops index rows through Matrix::row() within those
// shapes. A backward function adds into GradSink(input) for each input that
// has a parameter upstream.

Graph::VarId Graph::AddNode(Matrix value, VarId a, VarId b,
                            BackwardFn backward) {
  VarId id = num_nodes();
  if (a >= 0) Use(a, id);
  if (b >= 0) Use(b, id);
  Node& n = nodes_.emplace_back();
  n.value = std::move(value);
  n.a = a;
  n.b = b;
  n.backward = backward;
  n.needs_grad =
      (a >= 0 && node(a).needs_grad) || (b >= 0 && node(b).needs_grad);
  return id;
}

void Graph::Use(VarId input, VarId consumer) {
  TRAP_CHECK(input >= 0 && input < num_nodes());
  Node& in = node(input);
  ++in.uses;
  in.consumer = consumer;
}

const Matrix& Graph::value(VarId id) const {
  const Node& n = nodes_[static_cast<size_t>(id)];
  return n.borrowed ? n.param->value : n.value;
}

Graph::VarId Graph::Input(Matrix value) {
  return AddNode(std::move(value), -1, -1, nullptr);
}

Graph::VarId Graph::Param(Parameter* p) {
  VarId id = AddNode(Matrix(), -1, -1, [](Graph&, Node& n) {
    double* dst = n.param->grad.data();
    for (int i = 0; i < n.grad.size(); ++i) dst[i] += n.grad.data()[i];
  });
  Node& n = node(id);
  n.param = p;
  n.borrowed = true;
  n.needs_grad = true;
  return id;
}

Graph::VarId Graph::Gather(Parameter* p, std::vector<int> ids) {
  const Matrix& table = p->value;
  Matrix out(static_cast<int>(ids.size()), table.cols());
  for (int i = 0; i < out.rows(); ++i) {
    int src = ids[static_cast<size_t>(i)];
    TRAP_CHECK(src >= 0 && src < table.rows());
    std::copy_n(table.row(src), table.cols(), out.row(i));
  }
  VarId id = AddNode(std::move(out), -1, -1, [](Graph&, Node& n) {
    for (int i = 0; i < n.grad.rows(); ++i) {
      double* drow = n.param->grad.row(n.ids[static_cast<size_t>(i)]);
      const double* grow = n.grad.row(i);
      for (int c = 0; c < n.grad.cols(); ++c) drow[c] += grow[c];
    }
  });
  Node& n = node(id);
  n.param = p;
  n.ids = std::move(ids);
  n.needs_grad = true;
  return id;
}

Graph::VarId Graph::MatMul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.cols() == B.rows());
  Matrix out(A.rows(), B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    const double* arow = A.row(i);
    double* orow = out.row(i);
    for (int k = 0; k < A.cols(); ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* brow = B.row(k);
      for (int j = 0; j < B.cols(); ++j) orow[j] += av * brow[j];
    }
  }
  return AddNode(std::move(out), a, b, [](Graph& g, Node& n) {
    const Matrix& lhs = g.value(n.a);
    const Matrix& rhs = g.value(n.b);
    const Matrix& G = n.grad;
    const int rows = lhs.rows();
    const int inner = lhs.cols();
    const int cols = rhs.cols();
    if (n.a == n.b) {
      // One buffer takes both dA and dB terms, interleaved: keep the fused
      // loop so every element sees them in the reference order.
      Matrix* d = g.GradSink(n.a, false);
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
          double go = G.row(i)[j];
          if (go == 0.0) continue;
          for (int k = 0; k < inner; ++k) {
            d->row(i)[k] += go * rhs.row(k)[j];
            d->row(k)[j] += lhs.row(i)[k] * go;
          }
        }
      }
      return;
    }
    // dA = dOut * B^T: dA(i,k) takes its terms over ascending j.
    if (Matrix* da = g.GradSink(n.a, cols == 1)) {
      for (int i = 0; i < rows; ++i) {
        const double* grow = G.row(i);
        double* darow = da->row(i);
        for (int k = 0; k < inner; ++k) {
          const double* brow = rhs.row(k);
          double acc = darow[k];
          for (int j = 0; j < cols; ++j) {
            if (grow[j] != 0.0) acc += grow[j] * brow[j];
          }
          darow[k] = acc;
        }
      }
    }
    // dB = A^T * dOut: dB(k,j) takes its terms over ascending i.
    if (Matrix* db = g.GradSink(n.b, rows == 1)) {
      for (int i = 0; i < rows; ++i) {
        const double* grow = G.row(i);
        for (int k = 0; k < inner; ++k) {
          double av = lhs.row(i)[k];
          double* dbrow = db->row(k);
          for (int j = 0; j < cols; ++j) {
            if (grow[j] != 0.0) dbrow[j] += av * grow[j];
          }
        }
      }
    }
  });
}

Graph::VarId Graph::Transpose(VarId a) {
  const Matrix& A = value(a);
  Matrix out(A.cols(), A.rows());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) out.row(j)[i] = A.row(i)[j];
  }
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->rows(); ++i) {
        double* darow = da->row(i);
        for (int j = 0; j < da->cols(); ++j) darow[j] += n.grad.row(j)[i];
      }
    }
  });
}

Graph::VarId Graph::Add(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  bool broadcast = B.rows() == 1 && A.rows() != 1;
  TRAP_CHECK(A.cols() == B.cols());
  TRAP_CHECK(broadcast || A.rows() == B.rows());
  Matrix out = A;
  for (int i = 0; i < A.rows(); ++i) {
    double* orow = out.row(i);
    const double* brow = B.row(broadcast ? 0 : i);
    for (int j = 0; j < A.cols(); ++j) orow[j] += brow[j];
  }
  VarId id = AddNode(std::move(out), a, b, [](Graph& g, Node& n) {
    const Matrix& G = n.grad;
    const bool bcast = n.i0 != 0;
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < G.size(); ++i) da->data()[i] += G.data()[i];
    }
    if (Matrix* db = g.GradSink(n.b, !bcast)) {
      for (int i = 0; i < G.rows(); ++i) {
        double* dbrow = db->row(bcast ? 0 : i);
        for (int j = 0; j < G.cols(); ++j) dbrow[j] += G.row(i)[j];
      }
    }
  });
  node(id).i0 = broadcast ? 1 : 0;
  return id;
}

Graph::VarId Graph::Sub(VarId a, VarId b) {
  return Add(a, Scale(b, -1.0));
}

Graph::VarId Graph::Mul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows() && A.cols() == B.cols());
  Matrix out = A;
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= B.data()[i];
  return AddNode(std::move(out), a, b, [](Graph& g, Node& n) {
    const double* gd = n.grad.data();
    if (Matrix* da = g.GradSink(n.a, true)) {
      const double* bv = g.value(n.b).data();
      for (int i = 0; i < da->size(); ++i) da->data()[i] += gd[i] * bv[i];
    }
    if (Matrix* db = g.GradSink(n.b, true)) {
      const double* av = g.value(n.a).data();
      for (int i = 0; i < db->size(); ++i) db->data()[i] += gd[i] * av[i];
    }
  });
}

Graph::VarId Graph::Scale(VarId a, double s) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= s;
  VarId id = AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        da->data()[i] += n.grad.data()[i] * n.scalar;
      }
    }
  });
  node(id).scalar = s;
  return id;
}

Graph::VarId Graph::Tanh(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        double y = n.value.data()[i];
        da->data()[i] += n.grad.data()[i] * (1.0 - y * y);
      }
    }
  });
}

Graph::VarId Graph::Sigmoid(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0 / (1.0 + std::exp(-out.data()[i]));
  }
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        double y = n.value.data()[i];
        da->data()[i] += n.grad.data()[i] * y * (1.0 - y);
      }
    }
  });
}

Graph::VarId Graph::Relu(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0, out.data()[i]);
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        if (n.value.data()[i] > 0.0) da->data()[i] += n.grad.data()[i];
      }
    }
  });
}

Graph::VarId Graph::Softmax(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.rows(); ++i) {
    double* row = out.row(i);
    double mx = row[0];
    for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (int j = 0; j < out.cols(); ++j) row[j] /= sum;
  }
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->rows(); ++i) {
        const double* grow = n.grad.row(i);
        const double* yrow = n.value.row(i);
        double dot = 0.0;
        for (int j = 0; j < da->cols(); ++j) dot += grow[j] * yrow[j];
        for (int j = 0; j < da->cols(); ++j) {
          da->row(i)[j] += yrow[j] * (grow[j] - dot);
        }
      }
    }
  });
}

Graph::VarId Graph::LogSoftmax(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.rows(); ++i) {
    double* row = out.row(i);
    double mx = row[0];
    for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) sum += std::exp(row[j] - mx);
    double lse = mx + std::log(sum);
    for (int j = 0; j < out.cols(); ++j) row[j] -= lse;
  }
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->rows(); ++i) {
        const double* grow = n.grad.row(i);
        const double* yrow = n.value.row(i);
        double gsum = 0.0;
        for (int j = 0; j < da->cols(); ++j) gsum += grow[j];
        for (int j = 0; j < da->cols(); ++j) {
          da->row(i)[j] += grow[j] - std::exp(yrow[j]) * gsum;
        }
      }
    }
  });
}

Graph::VarId Graph::ConcatCols(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows());
  Matrix out(A.rows(), A.cols() + B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    std::copy_n(A.row(i), A.cols(), out.row(i));
    std::copy_n(B.row(i), B.cols(), out.row(i) + A.cols());
  }
  int ac = A.cols();
  VarId id = AddNode(std::move(out), a, b, [](Graph& g, Node& n) {
    // Columns [0, i0) belong to a, the rest to b.
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->rows(); ++i) {
        const double* grow = n.grad.row(i);
        for (int j = 0; j < da->cols(); ++j) da->row(i)[j] += grow[j];
      }
    }
    if (Matrix* db = g.GradSink(n.b, true)) {
      for (int i = 0; i < db->rows(); ++i) {
        const double* grow = n.grad.row(i) + n.i0;
        for (int j = 0; j < db->cols(); ++j) db->row(i)[j] += grow[j];
      }
    }
  });
  node(id).i0 = ac;
  return id;
}

Graph::VarId Graph::StackRows(const std::vector<VarId>& parts) {
  TRAP_CHECK(!parts.empty());
  int rows = 0;
  for (VarId p : parts) {
    TRAP_CHECK(p >= 0 && p < num_nodes());
    TRAP_CHECK(value(p).cols() == value(parts[0]).cols());
    rows += value(p).rows();
  }
  Matrix out(rows, value(parts[0]).cols());
  double* dst = out.data();
  for (VarId p : parts) {
    dst = std::copy_n(value(p).data(), value(p).size(), dst);
  }
  VarId id = AddNode(std::move(out), -1, -1, [](Graph& g, Node& n) {
    const double* src = n.grad.data();
    for (VarId p : n.ids) {
      if (Matrix* dp = g.GradSink(p, true)) {
        for (int i = 0; i < dp->size(); ++i) dp->data()[i] += src[i];
      }
      src += g.value(p).size();
    }
  });
  for (VarId p : parts) {
    Use(p, id);
    node(id).needs_grad = node(id).needs_grad || node(p).needs_grad;
  }
  node(id).ids = parts;
  return id;
}

Graph::VarId Graph::Pick(VarId a, int r, int c) {
  Matrix out(1, 1);
  out.at(0, 0) = value(a).at(r, c);
  VarId id = AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      da->row(n.i0)[n.i1] += n.grad.data()[0];
    }
  });
  node(id).i0 = r;
  node(id).i1 = c;
  return id;
}

Graph::VarId Graph::Sum(VarId a) {
  Matrix out(1, 1);
  const Matrix& A = value(a);
  for (int i = 0; i < A.size(); ++i) out.data()[0] += A.data()[i];
  return AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) da->data()[i] += n.grad.data()[0];
    }
  });
}

Graph::VarId Graph::Mean(VarId a) {
  int count = value(a).size();
  TRAP_CHECK(count > 0);
  return Scale(Sum(a), 1.0 / count);
}

Graph::VarId Graph::LayerNorm(VarId a, Parameter* gain, Parameter* bias) {
  const Matrix& A = value(a);
  TRAP_CHECK(gain->value.rows() == 1 && gain->value.cols() == A.cols());
  TRAP_CHECK(bias->value.rows() == 1 && bias->value.cols() == A.cols());
  constexpr double kEps = 1e-5;
  const int cols = A.cols();
  // normalized = (x - mean) / sqrt(var + eps), out = normalized * g + b.
  // Row i of `saved` holds the normalized row, then its 1/std.
  Matrix saved(A.rows(), cols + 1);
  Matrix out(A.rows(), cols);
  for (int i = 0; i < A.rows(); ++i) {
    const double* x = A.row(i);
    double* norm = saved.row(i);
    double mean = 0.0;
    for (int j = 0; j < cols; ++j) mean += x[j];
    mean /= cols;
    double var = 0.0;
    for (int j = 0; j < cols; ++j) var += (x[j] - mean) * (x[j] - mean);
    var /= cols;
    norm[cols] = 1.0 / std::sqrt(var + kEps);
    for (int j = 0; j < cols; ++j) {
      norm[j] = (x[j] - mean) * norm[cols];
      out.row(i)[j] = norm[j] * gain->value.row(0)[j] + bias->value.row(0)[j];
    }
  }
  VarId id = AddNode(std::move(out), a, -1, [](Graph& g, Node& n) {
    Matrix* da = g.GradSink(n.a, true);
    const int width = n.grad.cols();
    const double* gv = n.param->value.row(0);
    double* dgain = n.param->grad.row(0);
    double* dbias = n.param2->grad.row(0);
    std::vector<double> dnorm(static_cast<size_t>(width));
    for (int i = 0; i < n.grad.rows(); ++i) {
      const double* grow = n.grad.row(i);
      const double* nrow = n.saved.row(i);
      // d norm and parameter grads.
      double sum_dnorm = 0.0, sum_dnorm_norm = 0.0;
      for (int j = 0; j < width; ++j) {
        double go = grow[j];
        dgain[j] += go * nrow[j];
        dbias[j] += go;
        dnorm[static_cast<size_t>(j)] = go * gv[j];
        sum_dnorm += dnorm[static_cast<size_t>(j)];
        sum_dnorm_norm += dnorm[static_cast<size_t>(j)] * nrow[j];
      }
      if (da == nullptr) continue;
      for (int j = 0; j < width; ++j) {
        da->row(i)[j] += nrow[width] *
                         (dnorm[static_cast<size_t>(j)] - sum_dnorm / width -
                          nrow[j] * sum_dnorm_norm / width);
      }
    }
  });
  Node& n = node(id);
  n.param = gain;
  n.param2 = bias;
  n.saved = std::move(saved);
  n.needs_grad = true;
  return id;
}

Matrix* Graph::GradSink(VarId id, bool single_term) {
  Node& n = node(id);
  if (!n.needs_grad) return nullptr;
  if (n.has_grad) return &n.grad;
  if (n.borrowed && single_term && n.uses == 1) {
    // The only use adds one term per element, so the use's gradient sum is
    // that term and may land in Parameter::grad directly -- unless another
    // node of the same parameter sits between this leaf and its consumer,
    // whose contribution would then be added in a different order.
    bool interleaved = false;
    for (VarId k = id + 1; k < n.consumer && !interleaved; ++k) {
      interleaved = node(k).param == n.param || node(k).param2 == n.param;
    }
    if (!interleaved) return &n.param->grad;
  }
  const Matrix& v = value(id);
  n.grad = Matrix(v.rows(), v.cols());
  n.has_grad = true;
  return &n.grad;
}

void Graph::Backward(VarId loss) {
  TRAP_CHECK(loss >= 0 && loss < num_nodes());
  TRAP_CHECK(value(loss).rows() == 1 && value(loss).cols() == 1);
  if (!node(loss).needs_grad) return;  // no parameter upstream
  GradSink(loss, false)->data()[0] = 1.0;
  // Nodes were appended in topological order; walk backwards. A node that
  // received no gradient contributes nothing to its inputs.
  for (VarId id = loss; id >= 0; --id) {
    Node& n = node(id);
    if (n.has_grad && n.backward != nullptr) n.backward(*this, n);
  }
}

}  // namespace trap::nn
