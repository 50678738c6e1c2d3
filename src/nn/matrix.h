#ifndef TRAP_NN_MATRIX_H_
#define TRAP_NN_MATRIX_H_

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace trap::nn {

// Dense row-major matrix of doubles. The nn library is deliberately small:
// the paper's models are tiny (embedding size 128, ~2.8M parameters). A
// Matrix owns its storage, drawn from the default memory resource unless it
// is constructed with another: nn::Graph's node matrices draw theirs from
// the graph's recycled tape arena (see graph.h), so a warm forward or
// backward pass allocates nothing. A copy of any matrix draws from the
// default resource. Kernels walk rows through row(); at() is the
// bounds-checked element accessor for everything else.
class Matrix {
 public:
  Matrix() = default;
  // An empty matrix whose storage will come from `resource`.
  explicit Matrix(std::pmr::memory_resource* resource) : data_(resource) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0) {
    TRAP_CHECK(rows >= 0 && cols >= 0);
  }

  // Reshapes to rows x cols of zeros, the value Matrix(rows, cols) starts
  // with, in the storage already held: it allocates, from the matrix's own
  // resource, only when the capacity is too small.
  void Reset(int rows, int cols) {
    TRAP_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }

  double& at(int r, int c) {
    TRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }
  double at(int r, int c) const {
    TRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  // Start of row r (no bounds check: callers check shapes at op entry).
  double* row(int r) {
    return data_.data() + static_cast<size_t>(r) * static_cast<size_t>(cols_);
  }
  const double* row(int r) const {
    return data_.data() + static_cast<size_t>(r) * static_cast<size_t>(cols_);
  }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0); }

  // Xavier/Glorot uniform initialization.
  void InitXavier(common::Rng& rng) {
    double limit = std::sqrt(6.0 / (rows_ + cols_));
    for (double& v : data_) v = rng.Uniform(-limit, limit);
  }

  static Matrix RowVector(const std::vector<double>& values) {
    Matrix m(1, static_cast<int>(values.size()));
    for (int i = 0; i < m.cols(); ++i) m.at(0, i) = values[static_cast<size_t>(i)];
    return m;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::pmr::vector<double> data_;
};

}  // namespace trap::nn

#endif  // TRAP_NN_MATRIX_H_
