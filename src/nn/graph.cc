#include "nn/graph.h"

#include <algorithm>
#include <cmath>

namespace trap::nn {

// Every kernel below keeps the accumulation order documented in DESIGN.md
// §3k: each output or gradient element receives its terms in a fixed
// sequence, which makes results bit-identical run to run. Shapes are checked
// once at op entry; the loops index rows through Matrix::row() within those
// shapes. A backward function adds into GradSink(input) for each input that
// has a parameter upstream. An op first appends its node, then fills the
// node's value in the tape's arena: Recycle where the value starts as
// zeros, as Matrix(rows, cols) does, RecycleCopy where it starts as a copy
// of an input.

namespace {

// out[j] += a * in[j] for j < n. Every element gets exactly out + a * in,
// as in a plain loop; the restrict pointers let the compiler vectorise it.
void Axpy(double* __restrict out, const double* __restrict in, double a,
          int n) {
  for (int j = 0; j < n; ++j) out[j] += a * in[j];
}

// out[k] += a * in[k * stride] for k < n: Axpy down a column of `in`.
void AxpyColumn(double* __restrict out, const double* __restrict in,
                int stride, double a, int n) {
  for (int k = 0; k < n; ++k) out[k] += a * in[k * stride];
}

}  // namespace

void Graph::Arena::Rewind() {
  block_ = 0;
  used_ = 0;
}

void* Graph::Arena::do_allocate(size_t bytes, size_t alignment) {
  // Node matrices hold doubles only, so every range is double-aligned.
  TRAP_CHECK(alignment <= alignof(double));
  constexpr size_t kBlockDoubles = size_t{1} << 15;  // 256 KiB
  const size_t n = (bytes + sizeof(double) - 1) / sizeof(double);
  while (block_ < blocks_.size() && blocks_[block_].size() - used_ < n) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    blocks_.emplace_back(std::max(n, kBlockDoubles));
  }
  double* p = blocks_[block_].data() + used_;
  used_ += n;
  return p;
}

Graph::Graph() {
  // The thread's tapes, each grown to the high-water mark of the graphs
  // built on it. Only their growth allocates.
  thread_local Tape tapes[kTapeDepth];
  tape_ = &own_;
  for (Tape& t : tapes) {
    if (!t.in_use) {
      tape_ = &t;
      break;
    }
  }
  tape_->in_use = true;
  tape_->arena.Rewind();
  tape_->ids.clear();
}

Graph::~Graph() { tape_->in_use = false; }

Graph::VarId Graph::AddNode(VarId a, VarId b, BackwardFn backward) {
  VarId id = num_nodes();
  if (a >= 0) Use(a, id);
  if (b >= 0) Use(b, id);
  if (static_cast<size_t>(id) == tape_->chunks.size() * kChunk) {
    std::vector<Node>& chunk = tape_->chunks.emplace_back();
    chunk.reserve(kChunk);
    for (size_t i = 0; i < kChunk; ++i) chunk.emplace_back(&tape_->arena);
  }
  ++num_nodes_;
  NodeInfo& info = node(id);
  info = NodeInfo{};
  info.a = a;
  info.b = b;
  info.backward = backward;
  info.needs_grad =
      (a >= 0 && node(a).needs_grad) || (b >= 0 && node(b).needs_grad);
  return id;
}

Matrix& Graph::Recycle(Matrix& m, int rows, int cols) {
  m = Matrix(&tape_->arena);
  m.Reset(rows, cols);
  return m;
}

Matrix& Graph::RecycleCopy(Matrix& m, const Matrix& src) {
  m = Matrix(&tape_->arena);
  m = src;  // copy-assignment keeps m's resource
  return m;
}

void Graph::SetIds(Node& n, std::span<const int> ids) {
  n.i0 = static_cast<int>(tape_->ids.size());
  n.i1 = static_cast<int>(ids.size());
  tape_->ids.insert(tape_->ids.end(), ids.begin(), ids.end());
}

void Graph::Use(VarId input, VarId consumer) {
  TRAP_CHECK(input >= 0 && input < num_nodes());
  Node& in = node(input);
  ++in.uses;
  in.consumer = consumer;
}

const Matrix& Graph::value(VarId id) const {
  const Node& n = node(id);
  return n.borrowed ? n.param->value : n.value;
}

Graph::VarId Graph::Input(const Matrix& value) {
  VarId id = AddNode(-1, -1, nullptr);
  RecycleCopy(node(id).value, value);
  return id;
}

Graph::VarId Graph::Param(Parameter* p) {
  VarId id = AddNode(-1, -1, [](Graph&, Node& n) {
    double* dst = n.param->grad.data();
    for (int i = 0; i < n.grad.size(); ++i) dst[i] += n.grad.data()[i];
  });
  Node& n = node(id);
  n.param = p;
  n.borrowed = true;
  n.needs_grad = true;
  return id;
}

Graph::VarId Graph::Gather(Parameter* p, std::span<const int> ids) {
  const Matrix& table = p->value;
  VarId id = AddNode(-1, -1, [](Graph& g, Node& n) {
    std::span<const int> rows = g.ids(n);
    for (int i = 0; i < n.grad.rows(); ++i) {
      double* drow = n.param->grad.row(rows[static_cast<size_t>(i)]);
      const double* grow = n.grad.row(i);
      for (int c = 0; c < n.grad.cols(); ++c) drow[c] += grow[c];
    }
  });
  Node& n = node(id);
  Matrix& out = Recycle(n.value, static_cast<int>(ids.size()), table.cols());
  for (int i = 0; i < out.rows(); ++i) {
    int src = ids[static_cast<size_t>(i)];
    TRAP_CHECK(src >= 0 && src < table.rows());
    std::copy_n(table.row(src), table.cols(), out.row(i));
  }
  n.param = p;
  SetIds(n, ids);
  n.needs_grad = true;
  return id;
}

Graph::VarId Graph::MatMul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.cols() == B.rows());
  VarId id = AddNode(a, b, [](Graph& g, Node& n) {
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
    // dA = dOut * B^T: dA(i,k) takes its terms over ascending j. The k
    // loop is innermost so the elements of a row update independently.
    if (Matrix* da = g.GradSink(n.a, cols == 1)) {
      for (int i = 0; i < rows; ++i) {
        const double* grow = G.row(i);
        double* darow = da->row(i);
        for (int j = 0; j < cols; ++j) {
          if (grow[j] == 0.0) continue;
          AxpyColumn(darow, rhs.data() + j, cols, grow[j], inner);
        }
      }
    }
    // dB = A^T * dOut: dB(k,j) takes its terms over ascending i.
    if (Matrix* db = g.GradSink(n.b, rows == 1)) {
      for (int i = 0; i < rows; ++i) {
        const double* grow = G.row(i);
        const double* arow = lhs.row(i);
        // With no zero in the row the skip never fires.
        const bool dense = std::find(grow, grow + cols, 0.0) == grow + cols;
        for (int k = 0; k < inner; ++k) {
          double* dbrow = db->row(k);
          if (dense) {
            Axpy(dbrow, grow, arow[k], cols);
            continue;
          }
          for (int j = 0; j < cols; ++j) {
            if (grow[j] != 0.0) dbrow[j] += arow[k] * grow[j];
          }
        }
      }
    }
  });
  Matrix& out = Recycle(node(id).value, A.rows(), B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    const double* arow = A.row(i);
    double* orow = out.row(i);
    for (int k = 0; k < A.cols(); ++k) {
      if (arow[k] != 0.0) Axpy(orow, B.row(k), arow[k], B.cols());
    }
  }
  return id;
}

Graph::VarId Graph::Transpose(VarId a) {
  const Matrix& A = value(a);
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->rows(); ++i) {
        double* darow = da->row(i);
        for (int j = 0; j < da->cols(); ++j) darow[j] += n.grad.row(j)[i];
      }
    }
  });
  Matrix& out = Recycle(node(id).value, A.cols(), A.rows());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) out.row(j)[i] = A.row(i)[j];
  }
  return id;
}

Graph::VarId Graph::Add(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  bool broadcast = B.rows() == 1 && A.rows() != 1;
  TRAP_CHECK(A.cols() == B.cols());
  TRAP_CHECK(broadcast || A.rows() == B.rows());
  VarId id = AddNode(a, b, [](Graph& g, Node& n) {
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
  Node& n = node(id);
  Matrix& out = RecycleCopy(n.value, A);
  for (int i = 0; i < A.rows(); ++i) {
    double* orow = out.row(i);
    const double* brow = B.row(broadcast ? 0 : i);
    for (int j = 0; j < A.cols(); ++j) orow[j] += brow[j];
  }
  n.i0 = broadcast ? 1 : 0;
  return id;
}

Graph::VarId Graph::Sub(VarId a, VarId b) {
  return Add(a, Scale(b, -1.0));
}

Graph::VarId Graph::Mul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows() && A.cols() == B.cols());
  VarId id = AddNode(a, b, [](Graph& g, Node& n) {
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
  Matrix& out = RecycleCopy(node(id).value, A);
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= B.data()[i];
  return id;
}

Graph::VarId Graph::Scale(VarId a, double s) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        da->data()[i] += n.grad.data()[i] * n.scalar;
      }
    }
  });
  Node& n = node(id);
  Matrix& out = RecycleCopy(n.value, value(a));
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= s;
  n.scalar = s;
  return id;
}

Graph::VarId Graph::Tanh(VarId a) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        double y = n.value.data()[i];
        da->data()[i] += n.grad.data()[i] * (1.0 - y * y);
      }
    }
  });
  Matrix& out = RecycleCopy(node(id).value, value(a));
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  return id;
}

Graph::VarId Graph::Sigmoid(VarId a) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        double y = n.value.data()[i];
        da->data()[i] += n.grad.data()[i] * y * (1.0 - y);
      }
    }
  });
  Matrix& out = RecycleCopy(node(id).value, value(a));
  for (int i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0 / (1.0 + std::exp(-out.data()[i]));
  }
  return id;
}

Graph::VarId Graph::Relu(VarId a) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) {
        if (n.value.data()[i] > 0.0) da->data()[i] += n.grad.data()[i];
      }
    }
  });
  Matrix& out = RecycleCopy(node(id).value, value(a));
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0, out.data()[i]);
  return id;
}

Graph::VarId Graph::Softmax(VarId a) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
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
  Matrix& out = RecycleCopy(node(id).value, value(a));
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
  return id;
}

Graph::VarId Graph::LogSoftmax(VarId a) {
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
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
  Matrix& out = RecycleCopy(node(id).value, value(a));
  for (int i = 0; i < out.rows(); ++i) {
    double* row = out.row(i);
    double mx = row[0];
    for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) sum += std::exp(row[j] - mx);
    double lse = mx + std::log(sum);
    for (int j = 0; j < out.cols(); ++j) row[j] -= lse;
  }
  return id;
}

Graph::VarId Graph::ConcatCols(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows());
  VarId id = AddNode(a, b, [](Graph& g, Node& n) {
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
  Node& n = node(id);
  Matrix& out = Recycle(n.value, A.rows(), A.cols() + B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    std::copy_n(A.row(i), A.cols(), out.row(i));
    std::copy_n(B.row(i), B.cols(), out.row(i) + A.cols());
  }
  n.i0 = A.cols();
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
  const int cols = value(parts[0]).cols();
  VarId id = AddNode(-1, -1, [](Graph& g, Node& n) {
    const double* src = n.grad.data();
    for (VarId p : g.ids(n)) {
      if (Matrix* dp = g.GradSink(p, true)) {
        for (int i = 0; i < dp->size(); ++i) dp->data()[i] += src[i];
      }
      src += g.value(p).size();
    }
  });
  Node& n = node(id);
  double* dst = Recycle(n.value, rows, cols).data();
  for (VarId p : parts) {
    dst = std::copy_n(value(p).data(), value(p).size(), dst);
  }
  for (VarId p : parts) {
    Use(p, id);
    n.needs_grad = n.needs_grad || node(p).needs_grad;
  }
  SetIds(n, parts);
  return id;
}

Graph::VarId Graph::Pick(VarId a, int r, int c) {
  const double picked = value(a).at(r, c);
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      da->row(n.i0)[n.i1] += n.grad.data()[0];
    }
  });
  Node& n = node(id);
  Recycle(n.value, 1, 1).at(0, 0) = picked;
  n.i0 = r;
  n.i1 = c;
  return id;
}

Graph::VarId Graph::Sum(VarId a) {
  const Matrix& A = value(a);
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    if (Matrix* da = g.GradSink(n.a, true)) {
      for (int i = 0; i < da->size(); ++i) da->data()[i] += n.grad.data()[0];
    }
  });
  Matrix& out = Recycle(node(id).value, 1, 1);
  for (int i = 0; i < A.size(); ++i) out.data()[0] += A.data()[i];
  return id;
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
  // Row i of a constant leaf's value holds the normalized row, then its
  // 1/std, for the backward pass.
  const VarId saved_id = AddNode(-1, -1, nullptr);
  Matrix& saved = Recycle(node(saved_id).value, A.rows(), cols + 1);
  VarId id = AddNode(a, -1, [](Graph& g, Node& n) {
    Matrix* da = g.GradSink(n.a, true);
    const int width = n.grad.cols();
    const double* gv = n.param->value.row(0);
    double* dgain = n.param->grad.row(0);
    double* dbias = n.param2->grad.row(0);
    const Matrix& normalized = g.node(n.i0).value;
    std::vector<double>& dnorm = g.tape_->row;
    dnorm.resize(static_cast<size_t>(width));
    for (int i = 0; i < n.grad.rows(); ++i) {
      const double* grow = n.grad.row(i);
      const double* nrow = normalized.row(i);
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
  Matrix& out = Recycle(n.value, A.rows(), cols);
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
  n.param = gain;
  n.param2 = bias;
  n.i0 = saved_id;
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
  Recycle(n.grad, v.rows(), v.cols());
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
