#ifndef TRAP_ENGINE_INDEX_H_
#define TRAP_ENGINE_INDEX_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "catalog/schema.h"

namespace trap::engine {

using catalog::ColumnId;

// The key columns of an Index, in key order. Up to kInline columns live in
// place, so copying an index -- and so an IndexConfig, which advisors copy
// for every candidate move -- allocates nothing at the usual key widths. A
// wider list (wire-decoded or transient keys have no width limit) spills to
// the heap. Iteration, equality and ordering are those of the equivalent
// std::vector<ColumnId>: lexicographic by (table, column).
class ColumnList {
 public:
  // HeuristicOptions::max_index_width: every heuristic candidate fits.
  static constexpr uint32_t kInline = 3;

  using value_type = ColumnId;
  using iterator = ColumnId*;
  using const_iterator = const ColumnId*;

  ColumnList() noexcept {}
  ColumnList(std::initializer_list<ColumnId> columns)
      : ColumnList(columns.begin(), columns.end()) {}
  template <std::forward_iterator It>
  ColumnList(It first, It last) {
    reserve(static_cast<size_t>(std::distance(first, last)));
    for (; first != last; ++first) push_back(*first);
  }
  ColumnList(const ColumnList& other) { CopyFrom(other); }
  ColumnList(ColumnList&& other) noexcept { MoveFrom(other); }
  ColumnList& operator=(const ColumnList& other) {
    if (this != &other) {
      size_ = 0;
      CopyFrom(other);
    }
    return *this;
  }
  ColumnList& operator=(ColumnList&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~ColumnList() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ColumnId* data() { return spilled() ? heap_ : inline_; }
  const ColumnId* data() const { return spilled() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  ColumnId& operator[](size_t i) { return data()[i]; }
  const ColumnId& operator[](size_t i) const { return data()[i]; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void push_back(ColumnId c) {
    if (size_ == capacity_) Grow(2 * size_t{capacity_});
    data()[size_++] = c;
  }
  void pop_back() {
    TRAP_CHECK(size_ > 0);
    --size_;
  }

  friend bool operator==(const ColumnList& a, const ColumnList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const ColumnList& a,
                                          const ColumnList& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  bool spilled() const { return capacity_ > kInline; }
  // Moves the columns into heap storage of `n` > capacity_ slots.
  void Grow(size_t n);
  // Copies `other`'s columns over an empty list.
  void CopyFrom(const ColumnList& other) {
    reserve(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
  }
  // Takes `other`'s columns (its heap storage, if any) over a released list
  // and leaves `other` empty and inline.
  void MoveFrom(ColumnList& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::copy(other.inline_, other.inline_ + kInline, inline_);
    }
    other.size_ = 0;
    other.capacity_ = kInline;
  }
  // Frees the heap storage, if any, and marks the storage inline again;
  // leaves size_ to the caller.
  void Release() noexcept {
    if (spilled()) delete[] heap_;
    capacity_ = kInline;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  union {
    ColumnId inline_[kInline] = {};
    ColumnId* heap_;  // capacity_ slots, when spilled()
  };
};

// A (possibly multi-column) B-tree index over one table. Column order is
// significant: predicates match the index by prefix.
struct Index {
  ColumnList columns;  // non-empty, all on the same table

  int table() const {
    TRAP_CHECK(!columns.empty());
    return columns[0].table;
  }
  int NumColumns() const { return static_cast<int>(columns.size()); }
  bool IsSingleColumn() const { return columns.size() == 1; }

  // True if `other` is a strict or equal prefix of this index.
  bool HasPrefix(const Index& other) const;

  friend bool operator==(const Index&, const Index&) = default;
  friend auto operator<=>(const Index&, const Index&) = default;
};

// Estimated on-disk size of the index in bytes (B-tree entry overhead plus
// key widths, times a fill-factor slack).
int64_t IndexSizeBytes(const Index& index, const catalog::Schema& schema);

std::string IndexName(const Index& index, const catalog::Schema& schema);

// A set of indexes, kept sorted and deduplicated so configurations hash and
// compare canonically.
class IndexConfig {
 public:
  IndexConfig() = default;
  explicit IndexConfig(std::vector<Index> indexes);
  // A copy keeps room for one more index: advisors copy a configuration to
  // add a candidate to it, and the Add then needs no second allocation.
  IndexConfig(const IndexConfig& other) {
    indexes_.reserve(other.indexes_.size() + 1);
    indexes_.assign(other.indexes_.begin(), other.indexes_.end());
  }
  IndexConfig(IndexConfig&&) noexcept = default;
  IndexConfig& operator=(const IndexConfig&) = default;
  IndexConfig& operator=(IndexConfig&&) noexcept = default;

  // Adds `index` if not already present; returns true if added.
  bool Add(const Index& index);
  // Removes `index` if present; returns true if removed.
  bool Remove(const Index& index);
  bool Contains(const Index& index) const;

  const std::vector<Index>& indexes() const { return indexes_; }
  int size() const { return static_cast<int>(indexes_.size()); }
  bool empty() const { return indexes_.empty(); }

  int64_t TotalSizeBytes(const catalog::Schema& schema) const;

  // Stable 64-bit fingerprint for caching.
  uint64_t Fingerprint() const;

  std::string ToString(const catalog::Schema& schema) const;

  friend bool operator==(const IndexConfig&, const IndexConfig&) = default;

 private:
  std::vector<Index> indexes_;  // sorted, unique
};

}  // namespace trap::engine

#endif  // TRAP_ENGINE_INDEX_H_
