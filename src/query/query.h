#ifndef WVM_QUERY_QUERY_H_
#define WVM_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/term.h"

namespace wvm {

/// A query sent from the warehouse to the source: a signed sum of terms
/// (Equation 4.2). The sign of each summand lives in Term::coefficient.
///
/// `id` identifies the query for UQS bookkeeping; `update_id` is the update
/// whose processing generated the query (0 for RV's periodic recomputation).
class Query {
 public:
  Query() = default;
  Query(uint64_t id, uint64_t update_id, std::vector<Term> terms)
      : id_(id), update_id_(update_id), terms_(std::move(terms)) {}

  uint64_t id() const { return id_; }
  uint64_t update_id() const { return update_id_; }
  const std::vector<Term>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }

  void AddTerm(Term term) { terms_.push_back(std::move(term)); }

  /// Appends every term of `other` with coefficients negated — the
  /// compensation subtraction `- Q_j<U_i>` of Algorithm 5.2. Taking `other`
  /// by value lets the usual `q.SubtractTerms(pending.Substitute(u))` move
  /// the freshly substituted terms in and negate them in place.
  void SubtractTerms(Query other);

  /// The substitution Q<U> = sum_i T_i<U> of Section 4.2; terms whose
  /// position for U's relation is already bound drop out. U's position is
  /// resolved once per run of terms over the same view, so each surviving
  /// term costs one copy and each vanishing one a flag test.
  Query Substitute(const Update& u) const;

  /// This query without its fully-bound terms, which the result still
  /// counts in NumTerms(). A fully-bound term has no open position left, so
  /// every later substitution into it vanishes (Q<U_i,U_j> = empty when two
  /// updates hit the same relation, Section 4.2): the remainder compensates
  /// exactly as the whole query does. It is what UQS stores. Consumes the
  /// query, so the kept terms move rather than copy.
  Query Remainder() &&;

  /// The batch-delta expression used by the Section 7 batching extension:
  ///
  ///   IncExc(Q, {U_1..U_b}) = sum over non-empty S subseteq batch of
  ///                           (-1)^{|S|+1} Q<S>
  ///
  /// Because Q is multilinear in its base relations, evaluating this at the
  /// post-batch state yields exactly Q[after batch] - Q[before batch]
  /// (terms where S touches one relation twice vanish, mirroring
  /// Q<U_i,U_j> = empty for same-relation pairs). Substituted terms keep
  /// their delta tags.
  Query InclusionExclusionSubstitute(const std::vector<Update>& batch) const;

  /// The query's generated size: its terms plus those Remainder() dropped
  /// (the query "size" the performance analysis talks about when
  /// compensation grows, e.g. Example 4's 1, 2, 4). A shipped query drops
  /// none, so for it this is the number of terms on the wire.
  size_t NumTerms() const { return terms_.size() + num_folded_; }

  std::string ToString() const;

 private:
  uint64_t id_ = 0;
  uint64_t update_id_ = 0;
  std::vector<Term> terms_;
  size_t num_folded_ = 0;  // fully-bound terms dropped by Remainder()
};

}  // namespace wvm

#endif  // WVM_QUERY_QUERY_H_
