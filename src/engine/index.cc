#include "engine/index.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"

namespace trap::engine {

void ColumnList::Grow(size_t n) {
  // The one heap path: a key wider than kInline columns.
  ColumnId* grown = new ColumnId[n];  // NOLINT(no-heap-on-hot-path): key wider than kInline spills
  std::copy(begin(), end(), grown);
  Release();
  heap_ = grown;
  capacity_ = static_cast<uint32_t>(n);
}

bool Index::HasPrefix(const Index& other) const {
  if (other.columns.size() > columns.size()) return false;
  for (size_t i = 0; i < other.columns.size(); ++i) {
    if (!(other.columns[i] == columns[i])) return false;
  }
  return true;
}

int64_t IndexSizeBytes(const Index& index, const catalog::Schema& schema) {
  TRAP_CHECK(!index.columns.empty());
  const catalog::Table& t = schema.table(index.table());
  int64_t key_width = 0;
  for (ColumnId c : index.columns) {
    TRAP_CHECK(c.table == index.table());
    key_width += schema.column(c).width_bytes;
  }
  constexpr int64_t kEntryOverheadBytes = 16;  // item header + tid
  // ~0.7 fill factor -> multiply by 10/7.
  return (key_width + kEntryOverheadBytes) * t.num_rows * 10 / 7;
}

std::string IndexName(const Index& index, const catalog::Schema& schema) {
  std::vector<std::string> cols;
  for (ColumnId c : index.columns) cols.push_back(schema.column(c).name);
  return "idx_" + schema.table(index.table()).name + "_" +
         common::Join(cols, "_");
}

IndexConfig::IndexConfig(std::vector<Index> indexes)
    : indexes_(std::move(indexes)) {
  std::sort(indexes_.begin(), indexes_.end());
  indexes_.erase(std::unique(indexes_.begin(), indexes_.end()),
                 indexes_.end());
}

bool IndexConfig::Add(const Index& index) {
  auto it = std::lower_bound(indexes_.begin(), indexes_.end(), index);
  if (it != indexes_.end() && *it == index) return false;
  indexes_.insert(it, index);
  return true;
}

bool IndexConfig::Remove(const Index& index) {
  auto it = std::lower_bound(indexes_.begin(), indexes_.end(), index);
  if (it == indexes_.end() || !(*it == index)) return false;
  indexes_.erase(it);
  return true;
}

bool IndexConfig::Contains(const Index& index) const {
  return std::binary_search(indexes_.begin(), indexes_.end(), index);
}

int64_t IndexConfig::TotalSizeBytes(const catalog::Schema& schema) const {
  int64_t total = 0;
  for (const Index& i : indexes_) total += IndexSizeBytes(i, schema);
  return total;
}

uint64_t IndexConfig::Fingerprint() const {
  uint64_t h = 0x5ca1ab1eULL;
  for (const Index& i : indexes_) {
    for (ColumnId c : i.columns) {
      h = common::HashCombine(h, common::HashCombine(
                                     static_cast<uint64_t>(c.table),
                                     static_cast<uint64_t>(c.column)));
    }
    h = common::HashCombine(h, 0xffULL);  // index separator
  }
  return h;
}

std::string IndexConfig::ToString(const catalog::Schema& schema) const {
  std::vector<std::string> names;
  for (const Index& i : indexes_) names.push_back(IndexName(i, schema));
  return "{" + common::Join(names, ", ") + "}";
}

}  // namespace trap::engine
