#include "storage/predicate.h"

#include "common/logging.h"

namespace qatk::db {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kLike: return "LIKE";
  }
  return "?";
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative glob matching with backtracking over the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Status Predicate::Bind(const Schema& schema) {
  column_indices_.clear();
  column_indices_.reserve(terms_.size());
  for (const Term& term : terms_) {
    QATK_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(term.column));
    column_indices_.push_back(idx);
  }
  bound_ = true;
  return Status::OK();
}

bool Predicate::Matches(const Tuple& tuple) const {
  QATK_DCHECK(bound_) << "Predicate::Matches before Bind";
  for (size_t i = 0; i < terms_.size(); ++i) {
    const Term& term = terms_[i];
    const Value& lhs = tuple.value(column_indices_[i]);
    if (term.value.is_null()) {
      // Only IS-NULL-style equality is meaningful against NULL constants.
      if (term.op == CompareOp::kEq) {
        if (!lhs.is_null()) return false;
        continue;
      }
      if (term.op == CompareOp::kNe) {
        if (lhs.is_null()) return false;
        continue;
      }
      return false;
    }
    if (lhs.is_null()) return false;
    if (term.op == CompareOp::kLike) {
      if (lhs.type() != TypeId::kString ||
          term.value.type() != TypeId::kString) {
        return false;
      }
      if (!LikeMatch(lhs.AsString(), term.value.AsString())) return false;
      continue;
    }
    int cmp = lhs.Compare(term.value);
    bool ok = false;
    switch (term.op) {
      case CompareOp::kEq: ok = cmp == 0; break;
      case CompareOp::kNe: ok = cmp != 0; break;
      case CompareOp::kLt: ok = cmp < 0; break;
      case CompareOp::kLe: ok = cmp <= 0; break;
      case CompareOp::kGt: ok = cmp > 0; break;
      case CompareOp::kGe: ok = cmp >= 0; break;
      case CompareOp::kLike: ok = false; break;  // Handled above.
    }
    if (!ok) return false;
  }
  return true;
}

std::string Predicate::ToString() const {
  if (terms_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += terms_[i].column;
    out += ' ';
    out += CompareOpToString(terms_[i].op);
    out += ' ';
    if (terms_[i].value.type() == TypeId::kString) {
      out += '\'';
      out += terms_[i].value.ToString();
      out += '\'';
    } else {
      out += terms_[i].value.ToString();
    }
  }
  return out;
}

}  // namespace qatk::db
