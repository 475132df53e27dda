#include "query/evaluator.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "query/compiled_plan.h"

namespace wvm {

Schema OperandSliceSchema(const ViewDefinition& view, size_t i) {
  const size_t offset = view.relation_offset(i);
  const size_t arity = view.relations()[i].schema.size();
  std::vector<size_t> indices(arity);
  for (size_t a = 0; a < arity; ++a) {
    indices[a] = offset + a;
  }
  return view.combined_schema().Project(indices);
}

Result<Relation> EvaluateTerm(const Term& term, const Catalog& catalog) {
  WVM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledDeltaPlan> plan,
                       term.view()->CompiledPlanFor(TermBoundMask(term)));
  return ExecuteCompiledPlan(*plan, term, catalog);
}

Status FullyBoundFolder::Fold(const Term& term, Relation* out) {
  if (!term.IsFullyBound()) {
    return Status::InvalidArgument("folded term has an unbound operand");
  }
  if (term.view() != view_) {
    WVM_ASSIGN_OR_RETURN(plan_,
                         term.view()->CompiledPlanFor(TermBoundMask(term)));
    view_ = term.view();
  }
  // The all-bound plan probes no relation, so an empty catalog serves.
  static const Catalog* const kNoRelations = new Catalog();
  return ExecuteCompiledPlanInto(*plan_, term, *kNoRelations, out);
}

Result<Relation> EvaluateQuery(const Query& query, const Catalog& catalog) {
  if (query.terms().empty()) {
    return Relation();
  }
  WVM_ASSIGN_OR_RETURN(std::vector<Relation> parts,
                       EvaluateQueryPerTerm(query, catalog));
  Relation out = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    out.Add(parts[i]);
  }
  return out;
}

Result<std::vector<Relation>> EvaluateQueryPerTerm(const Query& query,
                                                   const Catalog& catalog) {
  const std::vector<Term>& terms = query.terms();
  std::vector<Relation> out;
  out.reserve(terms.size());

  if (terms.size() >= 2 && ThreadPool::Shared().num_threads() >= 2) {
    // Terms only read the catalog (see DESIGN.md, "Data plane"), so they
    // evaluate concurrently; results are collected positionally, making the
    // output — including any error chosen — identical to the serial loop.
    std::vector<std::optional<Result<Relation>>> parts(terms.size());
    ParallelFor(terms.size(), [&](size_t i) {
      parts[i] = EvaluateTerm(terms[i], catalog);
    });
    for (std::optional<Result<Relation>>& part : parts) {
      if (!part->ok()) {
        return part->status();
      }
      out.push_back(*std::move(*part));
    }
    return out;
  }

  for (const Term& t : terms) {
    WVM_ASSIGN_OR_RETURN(Relation part, EvaluateTerm(t, catalog));
    out.push_back(std::move(part));
  }
  return out;
}

Result<Relation> EvaluateView(const ViewDefinitionPtr& view,
                              const Catalog& catalog) {
  return EvaluateTerm(Term::FromView(view), catalog);
}

Status ApplyViewDelta(const ViewDefinitionPtr& view, const Update& u,
                      const Catalog& catalog, Relation* state) {
  std::optional<Term> delta = Term::FromView(view).Substitute(u);
  if (!delta.has_value()) {
    return Status::OK();
  }
  WVM_ASSIGN_OR_RETURN(Relation d, EvaluateTerm(*delta, catalog));
  state->Add(d);
  return Status::OK();
}

}  // namespace wvm
