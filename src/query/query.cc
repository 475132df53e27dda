#include "query/query.h"

#include <utility>

#include "common/strings.h"

namespace wvm {

void Query::SubtractTerms(Query other) {
  terms_.reserve(terms_.size() + other.terms_.size());
  for (Term& t : other.terms_) {
    t.set_coefficient(-t.coefficient());
    terms_.push_back(std::move(t));
  }
}

Query Query::Substitute(const Update& u) const {
  Query out(id_, update_id_, {});
  const ViewDefinition* view = nullptr;
  std::optional<size_t> position;
  for (const Term& t : terms_) {
    if (t.view().get() != view) {
      view = t.view().get();
      // A view that does not mention U's relation leaves no position to
      // bind: T<U> = empty (Lemma B.2).
      Result<size_t> index = view->RelationIndex(u.relation);
      position = index.ok() ? std::optional<size_t>(*index) : std::nullopt;
    }
    if (position.has_value() && !t.operands()[*position].is_bound) {
      out.terms_.push_back(t.BoundAt(*position, u));
    }
  }
  return out;
}

Query Query::Remainder() && {
  // Move the kept terms into a fresh vector rather than erasing in place:
  // UQS holds the result for a long time, and an erased vector would keep
  // the whole query's capacity.
  Query out(id_, update_id_, {});
  out.num_folded_ = num_folded_;
  for (Term& t : terms_) {
    if (t.IsFullyBound()) {
      ++out.num_folded_;
    } else {
      out.terms_.push_back(std::move(t));
    }
  }
  return out;
}

namespace {

// Expands one term over all non-empty subsets of `batch`, flipping the
// coefficient for every element beyond the first.
void ExpandTerm(const Term& term, const std::vector<Update>& batch, size_t i,
                bool any_substituted, std::vector<Term>* out) {
  if (i == batch.size()) {
    if (any_substituted) {
      out->push_back(term);
    }
    return;
  }
  // Exclude batch[i].
  ExpandTerm(term, batch, i + 1, any_substituted, out);
  // Include batch[i] (drops out if the position is already bound).
  std::optional<Term> substituted = term.Substitute(batch[i]);
  if (substituted.has_value()) {
    if (any_substituted) {
      substituted->set_coefficient(-substituted->coefficient());
    }
    ExpandTerm(*substituted, batch, i + 1, /*any_substituted=*/true, out);
  }
}

}  // namespace

Query Query::InclusionExclusionSubstitute(
    const std::vector<Update>& batch) const {
  Query out;
  out.id_ = id_;
  out.update_id_ = update_id_;
  for (const Term& t : terms_) {
    ExpandTerm(t, batch, 0, /*any_substituted=*/false, &out.terms_);
  }
  return out;
}

std::string Query::ToString() const {
  if (terms_.empty()) {
    return StrCat("Q", id_, " = (empty)");
  }
  std::string out = StrCat("Q", id_, " = ");
  for (size_t i = 0; i < terms_.size(); ++i) {
    const std::string rendered = terms_[i].ToString();
    if (i == 0) {
      out += rendered;
    } else if (terms_[i].coefficient() < 0) {
      // Negated terms already render a leading '-'.
      out += StrCat(" ", rendered.substr(0, 1), " ", rendered.substr(1));
    } else {
      out += StrCat(" + ", rendered);
    }
  }
  return out;
}

}  // namespace wvm
