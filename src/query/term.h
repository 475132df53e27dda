#ifndef WVM_QUERY_TERM_H_
#define WVM_QUERY_TERM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/view_def.h"
#include "relational/relation.h"
#include "relational/update.h"

namespace wvm {

/// One operand position of a term: either the base relation at that position
/// of the view (unbound), or a concrete signed tuple substituted for it.
struct TermOperand {
  bool is_bound = false;
  SignedTuple bound;  // valid iff is_bound
};

/// One term of a query expression (Equation 4.1):
///
///     T = pi_proj( sigma_cond( ~r1 x ~r2 x ... x ~rn ) )
///
/// where each ~ri is either the view's i-th base relation or an updated
/// (signed) tuple of it. The projection and condition always come from the
/// owning view. `coefficient` (+1/-1) records whether the term entered the
/// query positively or via compensation subtraction; `delta_update_id` tags
/// which update's view-delta the term's answer belongs to (used by LCA to
/// split per-update deltas, ignored by ECA which just sums everything).
class Term {
 public:
  /// The unsubstituted view expression V as a term (all positions unbound).
  static Term FromView(ViewDefinitionPtr view);

  /// Reassembles a term from its parts — the inverse of taking them apart,
  /// used by the wire codec (channel/wire_codec.h) when decoding a journaled
  /// QueryMessage against the receiver's view. `operands` must have exactly
  /// one entry per view relation.
  static Result<Term> WithOperands(ViewDefinitionPtr view,
                                   std::vector<TermOperand> operands,
                                   int coefficient, uint64_t delta_update_id);

  const ViewDefinitionPtr& view() const { return view_; }
  const std::vector<TermOperand>& operands() const { return operands_; }
  int coefficient() const { return coefficient_; }
  uint64_t delta_update_id() const { return delta_update_id_; }

  void set_coefficient(int c) { coefficient_ = c; }
  void set_delta_update_id(uint64_t id) { delta_update_id_ = id; }

  /// Returns a copy with the coefficient negated.
  Term Negated() const;

  /// Returns a copy with coefficient +1 and every bound sign forced to +1;
  /// `*sign_product` receives coefficient * product of the original bound
  /// signs. Because a term is linear in each operand, the original answer
  /// is the normalized answer scaled by *sign_product — which is what lets
  /// structurally identical terms (same view, same |bound tuples|) share
  /// one evaluation regardless of signs and coefficients.
  Term Normalized(int* sign_product) const;

  /// The substitution T<U> of Section 4.2: if the position of U's relation
  /// is already bound, the result is the empty query (nullopt); otherwise
  /// that position is bound to tuple(U) signed by the update kind. The
  /// returned term keeps this term's coefficient and delta tag.
  std::optional<Term> Substitute(const Update& u) const;

  /// Substitute() with U's relation position already resolved: a copy with
  /// operand `position` bound to tuple(U), signed by the update kind. The
  /// position must be unbound. Query::Substitute resolves the position once
  /// per view and calls this for every term still open there.
  Term BoundAt(size_t position, const Update& u) const;

  /// True if no position is bound (the full view expression).
  bool IsUnsubstituted() const;

  /// True if every position is bound: the term's value is a function of its
  /// bound tuples alone, and every further substitution into it vanishes.
  bool IsFullyBound() const { return NumBound() == operands_.size(); }

  /// Number of bound positions.
  size_t NumBound() const;

  /// Paper-style rendering of the term, e.g. "-pi_{W,Z}(sigma(r1 x [2,3]))":
  /// a leading '-' for a negative coefficient (and "n*" when its magnitude
  /// n is not 1), the projected attribute names, then one factor per operand
  /// position: the base relation's name, or the bound signed tuple.
  std::string ToString() const;

 private:
  explicit Term(ViewDefinitionPtr view);

  ViewDefinitionPtr view_;
  std::vector<TermOperand> operands_;
  int coefficient_ = +1;
  uint64_t delta_update_id_ = 0;
};

/// Structural signature of a term: the view's structure key (so two
/// distinct-but-identical ViewDefinition objects — e.g. one per multi-view
/// child — share entries) plus, per operand position, either an unbound
/// marker or the bound tuple's value — ignoring the coefficient and the
/// bound signs. Two terms with the same signature evaluate to the same
/// relation up to the scalar coefficient * product-of-bound-signs (terms
/// are linear in every operand), which is the factor Term::Normalized
/// reports. Shared key of the source's cross-query term cache and the
/// multi-view warehouse's cross-view query dedup.
std::string TermSignature(const Term& term);

}  // namespace wvm

#endif  // WVM_QUERY_TERM_H_
