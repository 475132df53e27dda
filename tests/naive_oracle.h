#ifndef WVM_TESTS_NAIVE_ORACLE_H_
#define WVM_TESTS_NAIVE_ORACLE_H_

#include "common/result.h"
#include "query/catalog.h"
#include "query/term.h"
#include "relational/relation.h"

namespace wvm {

/// Reference term evaluation for differential tests: the full cross product
/// of the term's operands, then the view's whole condition, then the
/// projection, scaled by the coefficient. Exponential in relation count and
/// independent of the compiled delta plans it checks; bound tuples of the
/// wrong arity and unknown relations fail with the executor's error text.
Result<Relation> EvaluateTermNaive(const Term& term, const Catalog& catalog);

}  // namespace wvm

#endif  // WVM_TESTS_NAIVE_ORACLE_H_
