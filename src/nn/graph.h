#ifndef TRAP_NN_GRAPH_H_
#define TRAP_NN_GRAPH_H_

#include <vector>

#include "nn/matrix.h"

namespace trap::nn {

// A trainable parameter: value plus accumulated gradient. Parameters are
// owned by layers/models; Graph borrows them for the duration of one
// forward/backward pass.
struct Parameter {
  Matrix value;
  Matrix grad;
  // Adam moments (managed by the optimizer).
  Matrix m;
  Matrix v;

  explicit Parameter(int rows, int cols)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}
};

// Reverse-mode autograd on a tape. One Graph instance is one forward pass;
// Backward() propagates into Parameter::grad. Keeping the engine explicit
// and minimal (a dozen ops) gives exact gradients for the GRU
// encoder-decoder, the attention mechanism, and the transformer baselines
// without hand-derived backward passes.
//
// Memory model: a Param node borrows Parameter::value in place (the
// parameter must not change while the graph is alive), and no node owns a
// gradient until Backward, which allocates one only for nodes on a path
// from a parameter to the loss. A forward-only graph therefore allocates
// nothing but op outputs. DESIGN.md §3k lists the accumulation orders every
// kernel keeps, which make results bit-identical run to run.
class Graph {
 public:
  using VarId = int;

  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Leaf holding a constant (no gradient).
  VarId Input(Matrix value);
  // Leaf bound to a trainable parameter (gradient accumulated on Backward).
  VarId Param(Parameter* p);
  // Row-gather from a parameter matrix: out[i, :] = p->value[ids[i], :].
  // Gradients scatter back into the gathered rows only (sparse update).
  VarId Gather(Parameter* p, std::vector<int> ids);

  VarId MatMul(VarId a, VarId b);
  VarId Transpose(VarId a);
  // Elementwise add; `b` may also be a 1-row matrix broadcast over a's rows.
  VarId Add(VarId a, VarId b);
  VarId Sub(VarId a, VarId b);
  VarId Mul(VarId a, VarId b);  // elementwise (Hadamard)
  VarId Scale(VarId a, double s);
  VarId Tanh(VarId a);
  VarId Sigmoid(VarId a);
  VarId Relu(VarId a);
  // Row-wise softmax.
  VarId Softmax(VarId a);
  // Row-wise log-softmax (numerically stable).
  VarId LogSoftmax(VarId a);
  // Concatenate along columns: [a, b] (same row count).
  VarId ConcatCols(VarId a, VarId b);
  // Stack along rows: [parts[0]; parts[1]; ...] (same column count).
  VarId StackRows(const std::vector<VarId>& parts);
  // 1x1 matrix picking element (r, c) of `a`.
  VarId Pick(VarId a, int r, int c);
  // 1x1 sum of all elements.
  VarId Sum(VarId a);
  // 1x1 mean of all elements.
  VarId Mean(VarId a);
  // Row-wise layer normalization with learnable gain/bias parameters
  // (gain/bias are 1xC parameters).
  VarId LayerNorm(VarId a, Parameter* gain, Parameter* bias);

  // The value of node `id`. The reference stays valid until the next node
  // is added (the tape may grow in place); a Param node's value is the
  // parameter's own matrix.
  const Matrix& value(VarId id) const;

  // Back-propagates d(loss)/d(everything) from `loss`, which must be 1x1.
  // Parameter gradients are *accumulated* (call ZeroGrad on the optimizer
  // side between steps).
  void Backward(VarId loss);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node;
  // Adds the node's gradient contributions to its inputs' gradient sinks.
  using BackwardFn = void (*)(Graph& g, Node& n);

  struct Node {
    Matrix value;             // empty for Param leaves (read through `param`)
    Matrix grad;              // allocated by Backward
    BackwardFn backward = nullptr;  // nullptr for constant leaves
    VarId a = -1;             // first input
    VarId b = -1;             // second input
    int uses = 0;             // input slots of later nodes that read this one
    VarId consumer = -1;      // the last node reading this one
    bool borrowed = false;    // Param leaf: value is param->value
    bool needs_grad = false;  // some parameter lies upstream
    bool has_grad = false;    // Backward gave this node a gradient
    Parameter* param = nullptr;   // Param, Gather; LayerNorm gain
    Parameter* param2 = nullptr;  // LayerNorm bias
    std::vector<int> ids;  // Gather rows; StackRows parts
    double scalar = 0.0;   // Scale factor
    int i0 = 0;            // Pick row; ConcatCols a's width; Add broadcast
    int i1 = 0;            // Pick column
    Matrix saved;          // LayerNorm: normalized rows, each then its 1/std
  };

  VarId AddNode(Matrix value, VarId a, VarId b, BackwardFn backward);
  void Use(VarId input, VarId consumer);
  Node& node(VarId id) { return nodes_[static_cast<size_t>(id)]; }

  // The matrix the gradient contributions to `id` go into, or nullptr when
  // no parameter lies upstream of `id`. `single_term` says the caller adds
  // at most one term per element; a Param leaf read only by that caller
  // then takes the term straight into Parameter::grad.
  Matrix* GradSink(VarId id, bool single_term);

  std::vector<Node> nodes_;
};

}  // namespace trap::nn

#endif  // TRAP_NN_GRAPH_H_
