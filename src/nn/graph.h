#ifndef TRAP_NN_GRAPH_H_
#define TRAP_NN_GRAPH_H_

#include <memory_resource>
#include <span>
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
// gradient until Backward, which gives one only to nodes on a path from a
// parameter to the loss. The tape itself is recycled: a Graph leases one of
// its thread's tapes for its lifetime, and every op fills a node slot, an
// arena range and an id list that an earlier graph left behind, so a graph
// no larger than one built before on the same tape allocates nothing
// (DESIGN.md §3k). A graph built while others are alive on its thread (the
// self-critic decode inside an RL step) leases the next free tape; past
// kTapeDepth nested graphs a graph gets a private tape, freed with it. A
// Graph must be destroyed on the thread that built it. DESIGN.md §3k also
// lists the accumulation orders every kernel keeps, which make results
// bit-identical run to run.
class Graph {
 public:
  using VarId = int;

  Graph();
  ~Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Leaf holding a copy of a constant (no gradient).
  VarId Input(const Matrix& value);
  // Leaf bound to a trainable parameter (gradient accumulated on Backward).
  VarId Param(Parameter* p);
  // Row-gather from a parameter matrix: out[i, :] = p->value[ids[i], :].
  // Gradients scatter back into the gathered rows only (sparse update).
  VarId Gather(Parameter* p, std::span<const int> ids);

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

  // The value of node `id`, valid for the graph's lifetime (nodes never
  // move); a Param node's value is the parameter's own matrix.
  const Matrix& value(VarId id) const;

  // Back-propagates d(loss)/d(everything) from `loss`, which must be 1x1.
  // Parameter gradients are *accumulated* (call ZeroGrad on the optimizer
  // side between steps).
  void Backward(VarId loss);

  int num_nodes() const { return num_nodes_; }

  // Tapes each thread keeps for reuse: graphs nested deeper than this on one
  // thread build on a private tape.
  static constexpr int kTapeDepth = 4;

 private:
  struct Node;
  // Adds the node's gradient contributions to its inputs' gradient sinks.
  using BackwardFn = void (*)(Graph& g, Node& n);

  // What one use of a node slot records; AddNode resets all of it.
  struct NodeInfo {
    BackwardFn backward = nullptr;  // nullptr for constant leaves
    Parameter* param = nullptr;     // Param, Gather; LayerNorm gain
    Parameter* param2 = nullptr;    // LayerNorm bias
    double scalar = 0.0;            // Scale factor
    VarId a = -1;          // first input
    VarId b = -1;          // second input
    int uses = 0;          // input slots of later nodes that read this one
    VarId consumer = -1;   // the last node reading this one
    // Pick row; ConcatCols a's width; Add broadcast; LayerNorm's node of
    // normalized rows; Gather rows and StackRows parts: their first entry in
    // the tape's id list.
    int i0 = 0;
    int i1 = 0;  // Pick column; Gather and StackRows id count
    bool borrowed = false;    // Param leaf: value is param->value
    bool needs_grad = false;  // some parameter lies upstream
    bool has_grad = false;    // Backward gave this node a gradient
  };

  // A node slot. Its matrices draw their storage from the tape's arena.
  struct Node : NodeInfo {
    explicit Node(std::pmr::memory_resource* arena)
        : value(arena), grad(arena) {}
    Matrix value;  // unused by Param leaves (read through `param`)
    Matrix grad;   // valid while has_grad
  };

  // Bump allocator for node matrices. A graph's matrices take consecutive
  // ranges of its blocks and are never freed one by one; leasing the tape
  // to the next graph rewinds it, and the blocks are kept.
  class Arena final : public std::pmr::memory_resource {
   public:
    void Rewind();

   private:
    void* do_allocate(size_t bytes, size_t alignment) override;
    void do_deallocate(void*, size_t, size_t) override {}
    bool do_is_equal(
        const std::pmr::memory_resource& other) const noexcept override {
      return this == &other;
    }

    std::vector<std::vector<double>> blocks_;
    size_t block_ = 0;  // the block allocations come from
    size_t used_ = 0;   // doubles of it handed out
  };

  // Recycled storage for one graph at a time. Everything grows to the
  // high-water mark of the graphs built on it and is never shrunk.
  struct Tape {
    Arena arena;  // first member: outlives the node matrices drawing on it
    // Node slots in chunks of kChunk: growth adds a chunk and never moves a
    // node.
    std::vector<std::vector<Node>> chunks;
    std::vector<int> ids;     // id lists of Gather and StackRows nodes
    std::vector<double> row;  // LayerNorm backward's per-row scratch
    bool in_use = false;
  };

  VarId AddNode(VarId a, VarId b, BackwardFn backward);
  void Use(VarId input, VarId consumer);
  Node& node(VarId id) {
    return tape_->chunks[static_cast<size_t>(id) / kChunk]
                        [static_cast<size_t>(id) % kChunk];
  }
  const Node& node(VarId id) const {
    return tape_->chunks[static_cast<size_t>(id) / kChunk]
                        [static_cast<size_t>(id) % kChunk];
  }
  std::span<const int> ids(const Node& n) const {
    return {tape_->ids.data() + n.i0, static_cast<size_t>(n.i1)};
  }
  // Stores `ids` in the tape's id list as node `n`'s.
  void SetIds(Node& n, std::span<const int> ids);

  // Gives node matrix `m` new storage from the arena, dropping what an
  // earlier graph left in it, and fills it with rows x cols zeros
  // (Matrix::Reset) ...
  Matrix& Recycle(Matrix& m, int rows, int cols);
  // ... or with a copy of `src`.
  Matrix& RecycleCopy(Matrix& m, const Matrix& src);

  // The matrix the gradient contributions to `id` go into, or nullptr when
  // no parameter lies upstream of `id`. `single_term` says the caller adds
  // at most one term per element; a Param leaf read only by that caller
  // then takes the term straight into Parameter::grad.
  Matrix* GradSink(VarId id, bool single_term);

  static constexpr size_t kChunk = 256;
  Tape* tape_;  // leased from the thread's tapes, or &own_
  Tape own_;    // the private tape of a graph nested past kTapeDepth
  int num_nodes_ = 0;
};

}  // namespace trap::nn

#endif  // TRAP_NN_GRAPH_H_
