#ifndef WVM_QUERY_EVALUATOR_H_
#define WVM_QUERY_EVALUATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "query/catalog.h"
#include "query/query.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/relation.h"

namespace wvm {

/// Logical (in-memory) evaluation of terms, queries and views against a
/// catalog. Bound operands contribute one tuple with multiplicity equal to
/// their sign, so answers to queries over deletions carry minus-signed
/// tuples exactly as in Section 4.1.
///
/// Terms are evaluated by the view's cached CompiledDeltaPlan for the
/// term's bound mask (src/query/compiled_plan.h): index probes along the
/// view's equi-join edges, then the fused residual condition and the
/// projection. The physical evaluator in src/source charges I/O for the same
/// joins and is differential-tested against this evaluator, which is in turn
/// tested against the cross-product oracle EvaluateTermNaive
/// (tests/naive_oracle.h).

class CompiledDeltaPlan;

/// The qualified slice of the combined schema covering relation position
/// `i` of the view.
Schema OperandSliceSchema(const ViewDefinition& view, size_t i);

/// Evaluates one term, including its coefficient, by executing the view's
/// compiled delta plan for the term's bound mask over catalog-cached key
/// indexes.
Result<Relation> EvaluateTerm(const Term& term, const Catalog& catalog);

/// Adds the values of fully-bound terms into one relation. A fully-bound
/// term reads no base relation (Appendix D: "all data needed is already at
/// the warehouse"), so it needs no catalog. The folder looks the view's
/// all-bound plan up once per run of terms over the same view and runs the
/// compiled executor with its gather writing straight into the target.
class FullyBoundFolder {
 public:
  /// Adds `term`'s value, coefficient included, into `*out`. `term` must be
  /// fully bound and `out` must have the view's output width.
  Status Fold(const Term& term, Relation* out);

 private:
  ViewDefinitionPtr view_;
  std::shared_ptr<const CompiledDeltaPlan> plan_;
};

/// Sum of all term results.
Result<Relation> EvaluateQuery(const Query& query, const Catalog& catalog);

/// Per-term results, aligned with query.terms(). LCA consumes these to
/// split per-update deltas.
Result<std::vector<Relation>> EvaluateQueryPerTerm(const Query& query,
                                                   const Catalog& catalog);

/// The full view contents V[state] over the catalog.
Result<Relation> EvaluateView(const ViewDefinitionPtr& view,
                              const Catalog& catalog);

/// Advances `*state` from V[before u] to V[after u] by adding V<U> evaluated
/// over `catalog`, which must already reflect `u`: first-order IVM, with no
/// compensation because the caller sees the source's own update order.
/// ViewDefinition::Create rejects views that read a relation twice, so V is
/// linear in u's relation and the one substitution is exact. An update to a
/// relation the view does not read leaves `*state` untouched, as does an
/// empty delta (so storage shared with earlier copies stays shared).
Status ApplyViewDelta(const ViewDefinitionPtr& view, const Update& u,
                      const Catalog& catalog, Relation* state);

}  // namespace wvm

#endif  // WVM_QUERY_EVALUATOR_H_
