#include "trap/reference_tree.h"

#include <algorithm>

namespace trap::trap {

namespace {

using catalog::ColumnId;
using sql::AggFunc;
using sql::CmpOp;
using sql::Conjunction;
using sql::ReservedWord;
using sql::Token;
using sql::TokenType;

bool Contains(const std::vector<ColumnId>& cols, ColumnId c) {
  return std::find(cols.begin(), cols.end(), c) != cols.end();
}

bool IsNumeric(const catalog::Column& col) {
  return col.type != catalog::ColumnType::kString;
}

// Aggregators applicable to a column's type.
std::vector<AggFunc> CompatibleAggs(const catalog::Column& col) {
  if (IsNumeric(col)) {
    return {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
            AggFunc::kMax};
  }
  return {AggFunc::kCount, AggFunc::kMin, AggFunc::kMax};
}

}  // namespace

ReferenceTree::ReferenceTree(const sql::Query& q, const sql::Vocabulary& vocab,
                             PerturbationConstraint constraint, int epsilon)
    : query_(q), vocab_(&vocab), constraint_(constraint), epsilon_(epsilon) {
  TRAP_CHECK(epsilon >= 0);
  allowed_columns_ = AllowedColumns();
  query_has_aggregates_ =
      std::any_of(q.select.begin(), q.select.end(), [](const sql::SelectItem& s) {
        return s.agg != AggFunc::kNone;
      });
  current_pred_column_.resize(q.filters.size());
  for (size_t i = 0; i < q.filters.size(); ++i) {
    current_pred_column_[i] = q.filters[i].column;
  }
  BuildSlots();
  ComputeLegal();
}

void ReferenceTree::BuildSlots() {
  const sql::Query& q = query_;
  auto fixed = [&](Token t) { slots_.push_back(Slot{SlotKind::kFixed, t, -1, -1}); };

  fixed(Token::Reserved(ReservedWord::kSelect));
  for (size_t i = 0; i < q.select.size(); ++i) {
    const sql::SelectItem& s = q.select[i];
    if (s.agg != AggFunc::kNone) {
      slots_.push_back(Slot{SlotKind::kSelectAgg, Token::Aggregator(s.agg),
                            static_cast<int>(i), -1});
      slots_.push_back(Slot{SlotKind::kSelectColumn, Token::Column(s.column),
                            static_cast<int>(i), -1});
    } else if (query_has_aggregates_) {
      // Bare columns mirror GROUP BY in aggregated queries: fixed, but they
      // still occupy the payload namespace so extensions cannot repeat them.
      fixed(Token::Column(s.column));
      select_cols_used_.push_back(s.column);
    } else {
      slots_.push_back(Slot{SlotKind::kSelectColumn, Token::Column(s.column),
                            static_cast<int>(i), -1});
    }
  }
  if (constraint_ == PerturbationConstraint::kSharedTable) {
    slots_.push_back(Slot{SlotKind::kSelectExtension,
                          Token::Special(sql::SpecialToken::kStop), -1, -1});
  }
  fixed(Token::Reserved(ReservedWord::kFrom));
  for (int t : q.tables) fixed(Token::Table(t));
  if (!q.joins.empty() || !q.filters.empty()) {
    fixed(Token::Reserved(ReservedWord::kWhere));
    for (size_t i = 0; i < q.joins.size(); ++i) {
      if (i > 0) fixed(Token::Reserved(ReservedWord::kJoinAnd));
      fixed(Token::Column(q.joins[i].left));
      fixed(Token::Operator(CmpOp::kEq));
      fixed(Token::Column(q.joins[i].right));
    }
    if (!q.joins.empty() && !q.filters.empty()) {
      fixed(Token::Reserved(ReservedWord::kJoinAnd));
    }
    for (size_t i = 0; i < q.filters.size(); ++i) {
      if (i > 0) {
        slots_.push_back(Slot{SlotKind::kConjunction,
                              Token::Conj(q.conjunction), -1,
                              static_cast<int>(i)});
      }
      const sql::Predicate& p = q.filters[i];
      slots_.push_back(Slot{SlotKind::kFilterColumn, Token::Column(p.column),
                            -1, static_cast<int>(i)});
      slots_.push_back(Slot{SlotKind::kOperator, Token::Operator(p.op), -1,
                            static_cast<int>(i)});
      slots_.push_back(Slot{SlotKind::kValue,
                            Token::ValueTok(p.column,
                                            vocab_->NearestBucket(p.column, p.value)),
                            -1, static_cast<int>(i)});
    }
    if (constraint_ == PerturbationConstraint::kSharedTable) {
      slots_.push_back(Slot{SlotKind::kWhereExtension,
                            Token::Special(sql::SpecialToken::kStop), -1, -1});
    }
  }
  if (!q.group_by.empty()) {
    fixed(Token::Reserved(ReservedWord::kGroupBy));
    for (ColumnId c : q.group_by) fixed(Token::Column(c));
  }
  if (!q.order_by.empty()) {
    fixed(Token::Reserved(ReservedWord::kOrderBy));
    for (size_t i = 0; i < q.order_by.size(); ++i) {
      slots_.push_back(Slot{SlotKind::kOrderColumn,
                            Token::Column(q.order_by[i]),
                            static_cast<int>(i), -1});
    }
  }
}

bool ReferenceTree::Modifiable(SlotKind kind) const {
  switch (kind) {
    case SlotKind::kFixed:
      return false;
    case SlotKind::kValue:
      return true;
    case SlotKind::kSelectColumn:
    case SlotKind::kFilterColumn:
    case SlotKind::kOrderColumn:
      return constraint_ != PerturbationConstraint::kValueOnly;
    case SlotKind::kSelectAgg:
    case SlotKind::kOperator:
    case SlotKind::kConjunction:
    case SlotKind::kSelectExtension:
    case SlotKind::kWhereExtension:
      return constraint_ == PerturbationConstraint::kSharedTable;
  }
  return false;
}

std::vector<ColumnId> ReferenceTree::AllowedColumns() const {
  if (constraint_ == PerturbationConstraint::kColumnConsistent) {
    return query_.NonJoinColumns();
  }
  // Shared Table: every column of the query's tables.
  std::vector<ColumnId> out;
  const catalog::Schema& schema = vocab_->schema();
  for (int t : query_.tables) {
    for (int c = 0; c < static_cast<int>(schema.table(t).columns.size()); ++c) {
      out.push_back(ColumnId{t, c});
    }
  }
  return out;
}

std::vector<ColumnId> ReferenceTree::ReservedColumns(SlotKind kind) const {
  std::vector<ColumnId> out;
  for (size_t i = pos_ + 1; i < slots_.size(); ++i) {
    if (slots_[i].kind == kind) out.push_back(slots_[i].original.column);
  }
  return out;
}

void ReferenceTree::AppendColumnChoices(
    const std::vector<ColumnId>& used, const std::vector<ColumnId>& reserved,
    std::vector<int>* out) const {
  for (ColumnId c : allowed_columns_) {
    if (Contains(used, c) || Contains(reserved, c)) continue;
    int id = vocab_->ColumnTokenId(c);
    if (std::find(out->begin(), out->end(), id) == out->end()) {
      out->push_back(id);
    }
  }
}

bool ReferenceTree::Done() const { return pos_ >= slots_.size(); }

const std::vector<int>& ReferenceTree::LegalTokens() const {
  TRAP_CHECK(!Done());
  return legal_;
}

int ReferenceTree::OriginalTokenId() const {
  TRAP_CHECK(!Done());
  if (ext_state_ != ExtState::kIdle) {
    return vocab_->TokenToId(Token::Special(sql::SpecialToken::kStop));
  }
  return vocab_->TokenToId(slots_[pos_].original);
}

void ReferenceTree::ComputeLegal() {
  legal_.clear();
  if (Done()) return;
  const Slot& slot = slots_[pos_];
  const int original_id =
      slot.kind == SlotKind::kSelectExtension ||
              slot.kind == SlotKind::kWhereExtension
          ? vocab_->TokenToId(Token::Special(sql::SpecialToken::kStop))
          : vocab_->TokenToId(slot.original);
  int budget = RemainingBudget();

  auto add = [&](const Token& t) {
    int id = vocab_->TokenToId(t);
    if (std::find(legal_.begin(), legal_.end(), id) == legal_.end()) {
      legal_.push_back(id);
    }
  };

  // Extension sub-states come first (they replace the marker's own options).
  if (ext_state_ == ExtState::kSelectNeedColumn) {
    // Column for a new aggregated payload item (budget was gated at the
    // aggregator head). The pending aggregator is the last output token.
    AggFunc agg = output_.back().agg;
    for (ColumnId c : allowed_columns_) {
      if (Contains(select_cols_used_, c)) continue;
      const catalog::Column& col = vocab_->schema().column(c);
      if ((agg == AggFunc::kSum || agg == AggFunc::kAvg) && !IsNumeric(col)) {
        continue;
      }
      add(Token::Column(c));
    }
    TRAP_CHECK(!legal_.empty());
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedColumn) {
    // Column of the new predicate (budget was gated at the separator).
    AppendColumnChoices(filter_cols_used_, {}, &legal_);
    TRAP_CHECK(!legal_.empty());
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedOp) {
    for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                     CmpOp::kGt, CmpOp::kGe}) {
      add(Token::Operator(op));
    }
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedValue) {
    for (int b = 0; b < vocab_->values_per_column(); ++b) {
      add(Token::ValueTok(ext_column_, b));
    }
    return;
  }

  switch (slot.kind) {
    case SlotKind::kFixed: {
      legal_.push_back(original_id);
      return;
    }
    case SlotKind::kSelectAgg: {
      legal_.push_back(original_id);
      if (!Modifiable(slot.kind) || budget < 1) return;
      // Aggregator replacements compatible with the (not yet re-decided)
      // column: restrict by the original column's type; the column slot then
      // keeps type compatibility for sum/avg.
      for (AggFunc f : CompatibleAggs(vocab_->schema().column(
               query_.select[static_cast<size_t>(slot.clause_index)].column))) {
        add(Token::Aggregator(f));
      }
      return;
    }
    case SlotKind::kSelectColumn: {
      legal_.push_back(original_id);
      if (!Modifiable(slot.kind) || budget < 1) return;
      // If the previous output token is an aggregator, respect sum/avg
      // numeric compatibility.
      AggFunc agg = AggFunc::kNone;
      if (!output_.empty() && output_.back().type == TokenType::kAggregator) {
        agg = output_.back().agg;
      }
      std::vector<int> choices;
      AppendColumnChoices(select_cols_used_,
                          ReservedColumns(SlotKind::kSelectColumn), &choices);
      for (int id : choices) {
        Token t = vocab_->IdToToken(id);
        const catalog::Column& col = vocab_->schema().column(t.column);
        if ((agg == AggFunc::kSum || agg == AggFunc::kAvg) && !IsNumeric(col)) {
          continue;
        }
        if (std::find(legal_.begin(), legal_.end(), id) == legal_.end()) {
          legal_.push_back(id);
        }
      }
      return;
    }
    case SlotKind::kFilterColumn: {
      legal_.push_back(original_id);
      // Re-binding the column forces the downstream value leaf to change
      // too, so gate by a budget of 2.
      if (!Modifiable(slot.kind) || budget < 2) return;
      AppendColumnChoices(filter_cols_used_,
                          ReservedColumns(SlotKind::kFilterColumn), &legal_);
      return;
    }
    case SlotKind::kOperator: {
      legal_.push_back(original_id);
      if (!Modifiable(slot.kind)) return;
      // If this predicate's value leaf is already owed an edit (column was
      // re-bound), keep one budget unit for it.
      int owed = 0;
      if (slot.pred_index >= 0 &&
          !(current_pred_column_[static_cast<size_t>(slot.pred_index)] ==
            query_.filters[static_cast<size_t>(slot.pred_index)].column)) {
        owed = 1;
      }
      if (budget < 1 + owed) return;
      for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                       CmpOp::kGt, CmpOp::kGe}) {
        add(Token::Operator(op));
      }
      return;
    }
    case SlotKind::kValue: {
      ColumnId bound =
          current_pred_column_[static_cast<size_t>(slot.pred_index)];
      bool rebound =
          !(bound == query_.filters[static_cast<size_t>(slot.pred_index)].column);
      if (rebound) {
        // Every bucket of the new column is an edit; budget was reserved.
        for (int b = 0; b < vocab_->values_per_column(); ++b) {
          add(Token::ValueTok(bound, b));
        }
      } else {
        legal_.push_back(original_id);
        if (budget >= 1) {
          for (int b = 0; b < vocab_->values_per_column(); ++b) {
            add(Token::ValueTok(bound, b));
          }
        }
      }
      return;
    }
    case SlotKind::kConjunction: {
      if (conjunction_decided_) {
        add(Token::Conj(conjunction_choice_));
        return;
      }
      legal_.push_back(original_id);
      if (!Modifiable(slot.kind)) return;
      // Flipping forces every later conjunction leaf to follow.
      int later = 0;
      for (size_t i = pos_ + 1; i < slots_.size(); ++i) {
        if (slots_[i].kind == SlotKind::kConjunction) ++later;
      }
      if (budget >= 1 + later) {
        add(Token::Conj(query_.conjunction == Conjunction::kAnd
                            ? Conjunction::kOr
                            : Conjunction::kAnd));
      }
      return;
    }
    case SlotKind::kOrderColumn: {
      legal_.push_back(original_id);
      if (!Modifiable(slot.kind) || budget < 1) return;
      if (!query_.group_by.empty()) {
        // Aggregated query: ORDER BY must stay within GROUP BY columns.
        for (ColumnId c : query_.group_by) {
          if (Contains(order_cols_used_, c) ||
              Contains(ReservedColumns(SlotKind::kOrderColumn), c)) {
            continue;
          }
          add(Token::Column(c));
        }
      } else {
        AppendColumnChoices(order_cols_used_,
                            ReservedColumns(SlotKind::kOrderColumn), &legal_);
      }
      return;
    }
    case SlotKind::kSelectExtension: {
      legal_.push_back(original_id);  // STOP
      if (!Modifiable(slot.kind) ||
          select_extensions_ >= kMaxExtensionsPerClause) {
        return;
      }
      bool any_available = false;
      bool numeric_available = false;
      for (ColumnId c : allowed_columns_) {
        if (Contains(select_cols_used_, c)) continue;
        any_available = true;
        if (IsNumeric(vocab_->schema().column(c))) numeric_available = true;
      }
      if (!any_available) return;
      if (!query_has_aggregates_) {
        // Plain queries extend with bare payload columns; adding an
        // aggregate would require regrouping the whole query.
        if (budget >= 1) AppendColumnChoices(select_cols_used_, {}, &legal_);
      } else if (budget >= 2) {
        // Aggregated queries extend with aggregated items only, keeping the
        // bare-payload == GROUP BY invariant intact.
        add(Token::Aggregator(AggFunc::kCount));
        add(Token::Aggregator(AggFunc::kMin));
        add(Token::Aggregator(AggFunc::kMax));
        if (numeric_available) {
          add(Token::Aggregator(AggFunc::kSum));
          add(Token::Aggregator(AggFunc::kAvg));
        }
      }
      return;
    }
    case SlotKind::kWhereExtension: {
      legal_.push_back(original_id);  // STOP
      if (!Modifiable(slot.kind) ||
          where_extensions_ >= kMaxExtensionsPerClause || budget < 4) {
        return;
      }
      bool column_available = false;
      for (ColumnId c : allowed_columns_) {
        if (!Contains(filter_cols_used_, c)) {
          column_available = true;
          break;
        }
      }
      if (!column_available) return;
      // A new predicate opens with its separator: a conjunction when filter
      // predicates exist (free to flip only while undecided), otherwise the
      // structural AND after the join block.
      bool have_filters = !query_.filters.empty() || where_extensions_ > 0;
      if (have_filters && !query_.filters.empty()) {
        if (conjunction_decided_) {
          add(Token::Conj(conjunction_choice_));
        } else if (query_.filters.size() == 1) {
          add(Token::Conj(Conjunction::kAnd));
          add(Token::Conj(Conjunction::kOr));
        } else {
          add(Token::Conj(query_.conjunction));
        }
      } else if (have_filters) {
        if (conjunction_decided_) {
          add(Token::Conj(conjunction_choice_));
        } else {
          add(Token::Conj(Conjunction::kAnd));
          add(Token::Conj(Conjunction::kOr));
        }
      } else {
        add(Token::Reserved(ReservedWord::kJoinAnd));
      }
      return;
    }
  }
}

void ReferenceTree::Advance(int token_id) {
  TRAP_CHECK(!Done());
  TRAP_CHECK_MSG(std::find(legal_.begin(), legal_.end(), token_id) != legal_.end(),
                 "token not in legitimate vocabulary");
  Token token = vocab_->IdToToken(token_id);
  const Slot& slot = slots_[pos_];

  // Extension sub-state transitions.
  if (ext_state_ == ExtState::kSelectNeedColumn) {
    output_.push_back(token);
    ++edit_used_;
    select_cols_used_.push_back(token.column);
    ++select_extensions_;
    ext_state_ = ExtState::kIdle;
    ComputeLegal();
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedColumn) {
    output_.push_back(token);
    ++edit_used_;
    ext_column_ = token.column;
    filter_cols_used_.push_back(token.column);
    ext_state_ = ExtState::kWhereNeedOp;
    ComputeLegal();
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedOp) {
    output_.push_back(token);
    ++edit_used_;
    ext_state_ = ExtState::kWhereNeedValue;
    ComputeLegal();
    return;
  }
  if (ext_state_ == ExtState::kWhereNeedValue) {
    output_.push_back(token);
    ++edit_used_;
    ++where_extensions_;
    ext_state_ = ExtState::kIdle;
    ComputeLegal();
    return;
  }

  switch (slot.kind) {
    case SlotKind::kSelectExtension: {
      if (token.type == TokenType::kSpecial) {
        ++pos_;  // STOP
      } else if (token.type == TokenType::kAggregator) {
        output_.push_back(token);
        ++edit_used_;
        ext_state_ = ExtState::kSelectNeedColumn;
      } else {
        output_.push_back(token);
        ++edit_used_;
        select_cols_used_.push_back(token.column);
        ++select_extensions_;
      }
      ComputeLegal();
      return;
    }
    case SlotKind::kWhereExtension: {
      if (token.type == TokenType::kSpecial) {
        ++pos_;  // STOP
      } else {
        // Separator (conjunction or structural AND).
        output_.push_back(token);
        ++edit_used_;
        if (token.type == TokenType::kConjunction) {
          conjunction_decided_ = true;
          conjunction_choice_ = token.conjunction;
        }
        ext_state_ = ExtState::kWhereNeedColumn;
      }
      ComputeLegal();
      return;
    }
    default:
      break;
  }

  // Ordinary slot: commit token, count the edit, apply look-ahead updates.
  output_.push_back(token);
  bool changed = !(token == slot.original);
  if (slot.kind == SlotKind::kConjunction) {
    // Flipping the first (deciding) conjunction leaf pre-pays the edits of
    // every later, now-forced conjunction leaf so the budget can never be
    // breached by forced updates downstream.
    if (!conjunction_decided_) {
      if (changed) {
        int later = 0;
        for (size_t i = pos_ + 1; i < slots_.size(); ++i) {
          if (slots_[i].kind == SlotKind::kConjunction) ++later;
        }
        edit_used_ += 1 + later;
      }
      conjunction_decided_ = true;
      conjunction_choice_ = token.conjunction;
    }
    // Forced (already decided) conjunction leaves were pre-paid.
  } else if (changed) {
    ++edit_used_;
  }
  TRAP_CHECK(edit_used_ <= epsilon_);

  switch (slot.kind) {
    case SlotKind::kSelectColumn:
      select_cols_used_.push_back(token.column);
      break;
    case SlotKind::kFilterColumn:
      filter_cols_used_.push_back(token.column);
      current_pred_column_[static_cast<size_t>(slot.pred_index)] = token.column;
      break;
    case SlotKind::kOrderColumn:
      order_cols_used_.push_back(token.column);
      break;
    default:
      break;
  }
  ++pos_;
  ComputeLegal();
}

sql::Query ReferenceTree::Materialize() const {
  TRAP_CHECK(Done());
  std::optional<sql::Query> q = sql::FromTokens(output_, *vocab_);
  TRAP_CHECK_MSG(q.has_value(), "reference tree produced unparseable output");
  return *q;
}

}  // namespace trap::trap
