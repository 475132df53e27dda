#ifndef WVM_QUERY_COMPILED_PLAN_H_
#define WVM_QUERY_COMPILED_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/catalog.h"
#include "query/term.h"
#include "query/view_def.h"
#include "relational/predicate.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace wvm {

/// Bitmask of bound operand positions of a term — the shape key under which
/// compiled plans are cached. All terms with the same view and the same set
/// of bound positions share one plan (the bound values are runtime inputs).
/// ViewDefinition::Create rejects views over 64 relations, so every
/// position fits.
uint64_t TermBoundMask(const Term& term);

/// One fused residual conjunct, pre-resolved to join-order column indices
/// (or constants). Evaluated with EvalCompareOp, so semantics match the
/// BoundPredicate walk exactly.
struct CompiledResidualLeaf {
  bool lhs_is_col = false;
  size_t lhs_col = 0;
  Value lhs_const;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_col = false;
  size_t rhs_col = 0;
  Value rhs_const;
};

/// One join step of a compiled plan: probe the accumulated block's
/// `acc_keys` columns (join-order layout) against operand `operand`'s
/// `op_keys` columns (relation-local). Empty key lists mean cross product.
struct CompiledJoinStep {
  size_t operand = 0;
  std::vector<size_t> acc_keys;
  std::vector<size_t> op_keys;
};

/// A flat physical plan for one (view, bound mask) delta-query shape,
/// compiled once at view registration and executed by the tight-loop
/// columnar executor in place of the per-term join planning walk:
///
///   * a static join order seeded at the (first) bound operand, so a delta
///     term starts from the substituted update tuple and every subsequent
///     step is an index probe along a pre-resolved equi-key;
///   * residual conjuncts fused into flat column-compare leaves (with a
///     pre-bound BoundPredicate fallback for non-comparison conjuncts);
///   * the output projection composed through the join order, so the final
///     gather touches only the projected columns.
///
/// Plans hold no relation data; bound tuples and catalog contents are
/// runtime inputs, which is what makes one plan reusable across every
/// update hitting the same relation with the same sign shape.
class CompiledDeltaPlan {
 public:
  /// Compiles the plan for `bound_mask` (bit i = operand i is bound).
  /// Fails if a residual conjunct cannot be bound.
  static Result<CompiledDeltaPlan> Compile(const ViewDefinition& view,
                                           uint64_t bound_mask);

  uint64_t bound_mask() const { return bound_mask_; }
  /// Operand positions in execution order; order()[0] is the seed.
  const std::vector<size_t>& order() const { return order_; }
  /// Join steps, aligned with order()[1..].
  const std::vector<CompiledJoinStep>& steps() const { return steps_; }
  const std::vector<CompiledResidualLeaf>& residual() const {
    return residual_;
  }
  /// True when the residual could not be fully fused into comparison
  /// leaves; the executor then applies fallback_residual() to each
  /// materialized join-order row.
  bool uses_fallback_residual() const { return use_fallback_residual_; }
  const BoundPredicate& fallback_residual() const { return fallback_residual_; }
  /// Join-order columns of the output projection.
  const std::vector<size_t>& output_cols() const { return output_cols_; }
  const Schema& output_schema() const { return output_schema_; }

 private:
  friend Status ExecuteCompiledPlanInto(const CompiledDeltaPlan& plan,
                                        const Term& term,
                                        const Catalog& catalog, Relation* out);
  friend Result<Relation> ExecuteCompiledPlanOnOperands(
      const CompiledDeltaPlan& plan, const std::vector<Relation>& operands);

  struct OperandInfo {
    std::string relation;
    size_t arity = 0;
  };

  CompiledDeltaPlan() = default;

  uint64_t bound_mask_ = 0;
  std::vector<size_t> order_;
  std::vector<CompiledJoinStep> steps_;
  std::vector<OperandInfo> operands_;  // by original operand position
  std::vector<CompiledResidualLeaf> residual_;
  bool use_fallback_residual_ = false;
  BoundPredicate fallback_residual_;  // bound against the join-order schema
  std::vector<size_t> output_cols_;
  Schema output_schema_;
};

/// Executes `plan` for `term` against `catalog` using cached relation key
/// indexes, applying the term's coefficient, and adds the result into
/// `*out`: the final gather writes straight into out's tuple map, so callers
/// summing many terms (COLLECT, a per-update delta) build no per-term
/// relation. `out` must have the plan's output width. The plan must have
/// been compiled for `term`'s view and bound mask. On error `*out` is
/// unchanged.
Status ExecuteCompiledPlanInto(const CompiledDeltaPlan& plan, const Term& term,
                               const Catalog& catalog, Relation* out);

/// ExecuteCompiledPlanInto over a fresh relation with the plan's output
/// schema.
Result<Relation> ExecuteCompiledPlan(const CompiledDeltaPlan& plan,
                                     const Term& term, const Catalog& catalog);

/// Executes a mask-0 `plan` over fully materialized operand relations (one
/// per relation position, in order, each carrying the qualified slice
/// schema); builds transient probe indexes instead of catalog-cached ones.
/// No coefficient is applied.
Result<Relation> ExecuteCompiledPlanOnOperands(
    const CompiledDeltaPlan& plan, const std::vector<Relation>& operands);

}  // namespace wvm

#endif  // WVM_QUERY_COMPILED_PLAN_H_
