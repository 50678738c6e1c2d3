#ifndef TRAP_TRAP_REFERENCE_TREE_H_
#define TRAP_TRAP_REFERENCE_TREE_H_

#include <vector>

#include "sql/query.h"
#include "sql/tokenizer.h"
#include "sql/vocabulary.h"
#include "trap/constraints.h"

namespace trap::trap {

// The Constraint-Aware Reference Tree of Section IV-D, realized as a
// stateful decoding automaton over the query's token sequence. At each step
// it exposes the legitimate vocabulary V^{p_t} for the current leaf (by node
// type and perturbation constraint), tracks the running edit distance
// against the budget epsilon, and performs Algorithm 1's look-ahead updates:
//
//   * replacing a predicate's column re-binds the downstream value leaf's
//     region from <old column>#value to <new column>#value;
//   * a column chosen in a clause is masked from the remaining column leaves
//     of that clause (no repeated columns), and columns still owed to later
//     original leaves are reserved so decoding can always terminate within
//     budget;
//   * choosing OR at the first conjunction leaf forces all later conjunction
//     leaves to OR (and vice versa);
//   * under Shared Table, "(.*)?" extension leaves at the end of SELECT and
//     WHERE admit new payload items and predicates while the budget allows.
//
// Every token sequence produced by driving this automaton parses back into
// a valid query (sql::FromTokens + ValidateQuery) whose token edit distance
// from the original is at most epsilon.
//
// Structural invariants kept for grammar validity: the join graph, FROM
// list and GROUP BY are fixed; in aggregated queries bare payload columns
// are fixed (they must mirror GROUP BY) and new payload items must be
// aggregated; ORDER BY columns of aggregated queries stay within GROUP BY.
class ReferenceTree {
 public:
  ReferenceTree(const sql::Query& q, const sql::Vocabulary& vocab,
                PerturbationConstraint constraint, int epsilon);

  // True when the output sequence is complete.
  bool Done() const;

  // Legitimate vocabulary ids for the current step (non-empty while !Done).
  const std::vector<int>& LegalTokens() const;

  // The original token id aligned with this step, or the STOP id at
  // extension steps. Useful for pretraining targets and diagnostics.
  int OriginalTokenId() const;

  // Commits one of LegalTokens() and advances.
  void Advance(int token_id);

  int edit_distance() const { return edit_used_; }
  int epsilon() const { return epsilon_; }
  const std::vector<sql::Token>& output() const { return output_; }
  const sql::Vocabulary& vocab() const { return *vocab_; }
  const sql::Query& original_query() const { return query_; }

  // Parses the finished output back into a query (requires Done()).
  sql::Query Materialize() const;

 private:
  enum class SlotKind {
    kFixed,         // legal = {original}
    kSelectAgg,     // aggregator of an aggregated payload item
    kSelectColumn,  // payload column
    kFilterColumn,
    kOperator,
    kValue,
    kConjunction,
    kOrderColumn,
    kSelectExtension,  // "(.*)?" at end of SELECT
    kWhereExtension,   // "(.*)?" at end of WHERE
  };
  struct Slot {
    SlotKind kind = SlotKind::kFixed;
    sql::Token original;
    int clause_index = -1;  // position of this item within its clause
    int pred_index = -1;    // owning filter predicate, for column/op/value
  };
  // Extension mini-state at an extension slot.
  enum class ExtState {
    kIdle,
    kSelectNeedColumn,
    kWhereNeedColumn,
    kWhereNeedOp,
    kWhereNeedValue,
  };

  void BuildSlots();
  void ComputeLegal();

  bool Modifiable(SlotKind kind) const;
  int RemainingBudget() const { return epsilon_ - edit_used_; }

  // Column universes.
  std::vector<catalog::ColumnId> AllowedColumns() const;  // by constraint
  void AppendColumnChoices(const std::vector<catalog::ColumnId>& used,
                           const std::vector<catalog::ColumnId>& reserved,
                           std::vector<int>* out) const;

  // Original columns of yet-to-come slots of `kind` within the same clause.
  std::vector<catalog::ColumnId> ReservedColumns(SlotKind kind) const;

  sql::Query query_;
  const sql::Vocabulary* vocab_;
  PerturbationConstraint constraint_;
  int epsilon_;
  // AllowedColumns(), computed once: query_ never changes.
  std::vector<catalog::ColumnId> allowed_columns_;

  std::vector<Slot> slots_;
  size_t pos_ = 0;
  int edit_used_ = 0;
  std::vector<sql::Token> output_;
  std::vector<int> legal_;  // current step's legal ids

  // Dynamic clause state.
  std::vector<catalog::ColumnId> select_cols_used_;
  std::vector<catalog::ColumnId> filter_cols_used_;
  std::vector<catalog::ColumnId> order_cols_used_;
  std::vector<catalog::ColumnId> current_pred_column_;  // per filter pred
  bool conjunction_decided_ = false;
  sql::Conjunction conjunction_choice_ = sql::Conjunction::kAnd;
  bool query_has_aggregates_ = false;

  // Extension machinery.
  ExtState ext_state_ = ExtState::kIdle;
  catalog::ColumnId ext_column_;
  int select_extensions_ = 0;
  int where_extensions_ = 0;
  static constexpr int kMaxExtensionsPerClause = 2;
};

}  // namespace trap::trap

#endif  // TRAP_TRAP_REFERENCE_TREE_H_
