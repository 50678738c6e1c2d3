#include "advisor/candidates.h"

#include <algorithm>
#include <map>
#include <set>

#include "advisor/advisor.h"
#include "engine/selectivity.h"

namespace trap::advisor {

namespace {

using catalog::ColumnId;
using engine::Index;

// Appends `index` if not already present.
void AddCandidate(std::vector<Index>& out, Index index) {
  if (std::find(out.begin(), out.end(), index) == out.end()) {
    out.push_back(std::move(index));
  }
}

}  // namespace

std::vector<IndexableColumn> IndexableColumns(const workload::Workload& w) {
  std::map<ColumnId, double> counts;
  for (const workload::WorkloadQuery& wq : w.queries) {
    const sql::Query& q = wq.query;
    for (const sql::Predicate& p : q.filters) {
      if (engine::IsSargable(p, q.conjunction)) {
        counts[p.column] += wq.weight;
      }
    }
    for (const sql::JoinPredicate& j : q.joins) {
      counts[j.left] += wq.weight;
      counts[j.right] += wq.weight;
    }
    for (ColumnId c : q.group_by) counts[c] += wq.weight;
    for (ColumnId c : q.order_by) counts[c] += wq.weight;
  }
  std::vector<IndexableColumn> out;
  for (const auto& [col, count] : counts) {
    out.push_back(IndexableColumn{col, count});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const IndexableColumn& a, const IndexableColumn& b) {
                     return a.count > b.count;
                   });
  return out;
}

std::vector<Index> SingleColumnCandidates(const workload::Workload& w) {
  std::vector<Index> out;
  for (const IndexableColumn& ic : IndexableColumns(w)) {
    AddCandidate(out, Index{{ic.column}});
  }
  return out;
}

std::vector<Index> MultiColumnCandidates(const workload::Workload& w,
                                         const catalog::Schema& schema,
                                         int max_width) {
  std::vector<Index> out;
  for (const workload::WorkloadQuery& wq : w.queries) {
    const sql::Query& q = wq.query;
    for (int t : q.tables) {
      // Partition the table's sargable filters into equality and range.
      std::vector<sql::Predicate> eqs, ranges;
      for (const sql::Predicate& p : engine::FiltersOnTable(q, t)) {
        if (!engine::IsSargable(p, q.conjunction)) continue;
        if (p.op == sql::CmpOp::kEq) {
          eqs.push_back(p);
        } else {
          ranges.push_back(p);
        }
      }
      // Equality columns most-selective first, then one range column.
      std::sort(eqs.begin(), eqs.end(),
                [&](const sql::Predicate& a, const sql::Predicate& b) {
                  return engine::PredicateSelectivity(a, schema) <
                         engine::PredicateSelectivity(b, schema);
                });
      std::vector<ColumnId> perm;
      for (const sql::Predicate& p : eqs) perm.push_back(p.column);
      if (!ranges.empty()) {
        std::sort(ranges.begin(), ranges.end(),
                  [&](const sql::Predicate& a, const sql::Predicate& b) {
                    return engine::PredicateSelectivity(a, schema) <
                           engine::PredicateSelectivity(b, schema);
                  });
        perm.push_back(ranges[0].column);
      }
      // Deduplicate while preserving order.
      std::vector<ColumnId> cols;
      for (ColumnId c : perm) {
        if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
          cols.push_back(c);
        }
      }
      if (static_cast<int>(cols.size()) > max_width) {
        cols.resize(static_cast<size_t>(max_width));
      }
      // Every prefix of length >= 2 is a candidate.
      for (size_t len = 2; len <= cols.size(); ++len) {
        AddCandidate(out, Index{{cols.begin(), cols.begin() + static_cast<long>(len)}});
      }
      // ORDER BY prefix index (sort avoidance) restricted to this table.
      std::vector<ColumnId> order_cols;
      for (ColumnId c : q.order_by) {
        if (c.table == t) order_cols.push_back(c);
      }
      if (static_cast<int>(order_cols.size()) > max_width) {
        order_cols.resize(static_cast<size_t>(max_width));
      }
      // Single-column ORDER BY indexes are already covered by
      // SingleColumnCandidates.
      if (order_cols.size() >= 2) {
        AddCandidate(out, Index{{order_cols.begin(), order_cols.end()}});
      }
      // Join-key-led candidates: join column first, best filter column next
      // (supports index nested-loop joins with extra filtering).
      for (const sql::JoinPredicate& j : q.joins) {
        ColumnId key = j.left.table == t ? j.left
                       : j.right.table == t ? j.right
                                            : ColumnId{};
        if (key.table != t) continue;
        if (!cols.empty() && !(cols[0] == key) && max_width >= 2) {
          AddCandidate(out, Index{{key, cols[0]}});
        }
      }
    }
  }
  return out;
}

std::vector<Index> AllCandidates(const workload::Workload& w,
                                 const catalog::Schema& schema,
                                 bool multi_column, int max_width) {
  std::vector<Index> out = SingleColumnCandidates(w);
  if (multi_column) {
    for (Index& i : MultiColumnCandidates(w, schema, max_width)) {
      AddCandidate(out, std::move(i));
    }
  }
  return out;
}

bool FitsConstraint(const engine::IndexConfig& config,
                    const engine::Index& index,
                    const TuningConstraint& constraint,
                    const catalog::Schema& schema) {
  if (config.Contains(index)) return false;
  if (constraint.max_indexes > 0 &&
      config.size() + 1 > constraint.max_indexes) {
    return false;
  }
  if (constraint.storage_budget_bytes > 0) {
    int64_t total = config.TotalSizeBytes(schema) +
                    engine::IndexSizeBytes(index, schema);
    if (total > constraint.storage_budget_bytes) return false;
  }
  return true;
}

}  // namespace trap::advisor
