#include "naive_oracle.h"

#include <utility>

#include "common/strings.h"
#include "query/evaluator.h"
#include "relational/algebra.h"

namespace wvm {

namespace {

// Materializes operand `i` of `term`: either the bound signed tuple or the
// catalog relation re-labelled (zero-copy) with the qualified slice of the
// combined schema.
Result<Relation> MaterializeOperand(const Term& term, size_t i,
                                    const Catalog& catalog) {
  const ViewDefinition& view = *term.view();
  Schema slice = OperandSliceSchema(view, i);
  const TermOperand& op = term.operands()[i];
  if (op.is_bound) {
    if (op.bound.tuple.size() != slice.size()) {
      return Status::InvalidArgument(
          StrCat("bound tuple ", op.bound.tuple.ToString(),
                 " arity mismatch for relation ", view.relations()[i].name));
    }
    Relation r(std::move(slice));
    r.Insert(op.bound.tuple, op.bound.sign);
    return r;
  }
  WVM_ASSIGN_OR_RETURN(const Relation* stored,
                       catalog.Get(view.relations()[i].name));
  return stored->WithSchema(std::move(slice));
}

}  // namespace

Result<Relation> EvaluateTermNaive(const Term& term, const Catalog& catalog) {
  const ViewDefinition& view = *term.view();
  WVM_ASSIGN_OR_RETURN(Relation acc, MaterializeOperand(term, 0, catalog));
  for (size_t i = 1; i < view.num_relations(); ++i) {
    WVM_ASSIGN_OR_RETURN(Relation next, MaterializeOperand(term, i, catalog));
    WVM_ASSIGN_OR_RETURN(acc, CrossProduct(acc, next));
  }
  Relation filtered = SelectBound(acc, view.bound_cond());
  Relation projected = ProjectIndices(filtered, view.projection_indices());
  return projected.Scaled(term.coefficient());
}

}  // namespace wvm
