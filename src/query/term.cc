#include "query/term.h"

#include "common/strings.h"

namespace wvm {

Term::Term(ViewDefinitionPtr view) : view_(std::move(view)) {
  operands_.resize(view_->num_relations());
}

Term Term::FromView(ViewDefinitionPtr view) { return Term(std::move(view)); }

Result<Term> Term::WithOperands(ViewDefinitionPtr view,
                                std::vector<TermOperand> operands,
                                int coefficient, uint64_t delta_update_id) {
  if (operands.size() != view->num_relations()) {
    return Status::InvalidArgument(
        "term operand count disagrees with the view's relation count");
  }
  Term out(std::move(view));
  out.operands_ = std::move(operands);
  out.coefficient_ = coefficient;
  out.delta_update_id_ = delta_update_id;
  return out;
}

Term Term::Negated() const {
  Term out = *this;
  out.coefficient_ = -out.coefficient_;
  return out;
}

Term Term::Normalized(int* sign_product) const {
  Term out = *this;
  int product = coefficient_;
  out.coefficient_ = 1;
  for (TermOperand& op : out.operands_) {
    if (op.is_bound) {
      product *= op.bound.sign;
      op.bound.sign = +1;
    }
  }
  *sign_product = product;
  return out;
}

std::optional<Term> Term::Substitute(const Update& u) const {
  Result<size_t> index = view_->RelationIndex(u.relation);
  if (!index.ok()) {
    // T<U> = empty when U's relation is not used in the term (Lemma B.2);
    // with our normal form this happens only when the view itself does not
    // mention the relation.
    return std::nullopt;
  }
  if (operands_[*index].is_bound) {
    // T<U> = empty when ~rk is already an updated tuple (Section 4.2).
    return std::nullopt;
  }
  return BoundAt(*index, u);
}

Term Term::BoundAt(size_t position, const Update& u) const {
  Term out = *this;
  out.operands_[position].is_bound = true;
  out.operands_[position].bound = SignedTuple{u.tuple, u.sign()};
  return out;
}

bool Term::IsUnsubstituted() const { return NumBound() == 0; }

size_t Term::NumBound() const {
  size_t n = 0;
  for (const TermOperand& op : operands_) {
    if (op.is_bound) {
      ++n;
    }
  }
  return n;
}

std::string Term::ToString() const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < operands_.size(); ++i) {
    if (operands_[i].is_bound) {
      parts.push_back(operands_[i].bound.ToString());
    } else {
      parts.push_back(view_->relations()[i].name);
    }
  }
  std::vector<std::string> proj_names;
  for (size_t i : view_->projection_indices()) {
    proj_names.push_back(view_->combined_schema().attribute(i).name);
  }
  std::string prefix;
  if (coefficient_ < 0) {
    prefix += "-";
  }
  if (coefficient_ != 1 && coefficient_ != -1) {
    prefix += StrCat(coefficient_ < 0 ? -coefficient_ : coefficient_, "*");
  }
  return StrCat(prefix, "pi_{", Join(proj_names, ","), "}(sigma(",
                Join(parts, " x "), "))");
}

std::string TermSignature(const Term& term) {
  std::string key = StrCat(term.view()->structure_key(), "|");
  for (const TermOperand& op : term.operands()) {
    if (op.is_bound) {
      key += StrCat(op.bound.tuple.ToString(), "|");
    } else {
      key += "*|";
    }
  }
  return key;
}

}  // namespace wvm
