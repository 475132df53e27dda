// Tests for the catalog and the logical evaluator, including the algebraic
// identity (Lemma B.2) that the whole compensation scheme rests on.
#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "naive_oracle.h"
#include "query/catalog.h"
#include "workload/generator.h"

namespace wvm {
namespace {

// --- Catalog -----------------------------------------------------------------

TEST(CatalogTest, DefineAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W", "X"})}).ok());
  EXPECT_TRUE(c.Contains("r1"));
  EXPECT_FALSE(c.Contains("r2"));
  EXPECT_TRUE(c.Get("r1").ok());
  EXPECT_EQ(c.Get("r2").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DefineRejectsDuplicates) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W"})}).ok());
  EXPECT_EQ(c.Define({"r1", Schema::Ints({"W"})}).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ApplyInsertAndDelete) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W", "X"})}).ok());
  ASSERT_TRUE(c.Apply(Update::Insert("r1", Tuple::Ints({1, 2}))).ok());
  EXPECT_EQ(c.Get("r1").value()->CountOf(Tuple::Ints({1, 2})), 1);
  ASSERT_TRUE(c.Apply(Update::Delete("r1", Tuple::Ints({1, 2}))).ok());
  EXPECT_TRUE(c.Get("r1").value()->IsEmpty());
}

TEST(CatalogTest, DeleteOfAbsentTupleRejected) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W", "X"})}).ok());
  EXPECT_EQ(c.Apply(Update::Delete("r1", Tuple::Ints({1, 2}))).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CatalogTest, ArityMismatchRejected) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W", "X"})}).ok());
  EXPECT_EQ(c.Apply(Update::Insert("r1", Tuple::Ints({1}))).code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, CloneIsDeep) {
  Catalog c;
  ASSERT_TRUE(c.Define({"r1", Schema::Ints({"W", "X"})}).ok());
  Catalog copy = c.Clone();
  ASSERT_TRUE(c.Apply(Update::Insert("r1", Tuple::Ints({1, 2}))).ok());
  EXPECT_TRUE(copy.Get("r1").value()->IsEmpty());
}

// --- Evaluator fixtures -------------------------------------------------------

ViewDefinitionPtr ChainView(Predicate extra = Predicate()) {
  Result<ViewDefinitionPtr> v = ViewDefinition::NaturalJoin(
      "V",
      {{"r1", Schema::Ints({"W", "X"})},
       {"r2", Schema::Ints({"X", "Y"})},
       {"r3", Schema::Ints({"Y", "Z"})}},
      {"W", "Z"}, std::move(extra));
  EXPECT_TRUE(v.ok()) << v.status();
  return *v;
}

Catalog SmallChainCatalog() {
  Catalog c;
  Schema s1 = Schema::Ints({"W", "X"});
  Schema s2 = Schema::Ints({"X", "Y"});
  Schema s3 = Schema::Ints({"Y", "Z"});
  EXPECT_TRUE(c.DefineWithData({"r1", s1},
                               Relation::FromTuples(
                                   s1, {Tuple::Ints({1, 2}),
                                        Tuple::Ints({4, 2})}))
                  .ok());
  EXPECT_TRUE(c.DefineWithData({"r2", s2},
                               Relation::FromTuples(
                                   s2, {Tuple::Ints({2, 5}),
                                        Tuple::Ints({2, 6})}))
                  .ok());
  EXPECT_TRUE(c.DefineWithData({"r3", s3},
                               Relation::FromTuples(
                                   s3, {Tuple::Ints({5, 9})}))
                  .ok());
  return c;
}

TEST(EvaluatorTest, FullViewEvaluation) {
  ViewDefinitionPtr view = ChainView();
  Catalog c = SmallChainCatalog();
  Result<Relation> v = EvaluateView(view, c);
  ASSERT_TRUE(v.ok()) << v.status();
  // r1 rows x=2 join both r2 rows, only y=5 joins r3: tuples (1,9),(4,9).
  EXPECT_EQ(*v, Relation::FromTuples(view->output_schema(),
                                     {Tuple::Ints({1, 9}),
                                      Tuple::Ints({4, 9})}));
}

TEST(EvaluatorTest, BoundTermEvaluation) {
  ViewDefinitionPtr view = ChainView();
  Catalog c = SmallChainCatalog();
  Term t = *Term::FromView(view).Substitute(
      Update::Insert("r2", Tuple::Ints({2, 5})));
  Result<Relation> r = EvaluateTerm(t, c);
  ASSERT_TRUE(r.ok());
  // [2,5] joins both r1 rows and the single r3 row.
  EXPECT_EQ(r->TotalPositive(), 2);
}

TEST(EvaluatorTest, DeleteTermYieldsNegativeTuples) {
  ViewDefinitionPtr view = ChainView();
  Catalog c = SmallChainCatalog();
  Term t = *Term::FromView(view).Substitute(
      Update::Delete("r3", Tuple::Ints({5, 9})));
  Result<Relation> r = EvaluateTerm(t, c);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->HasNegative());
  EXPECT_EQ(r->CountOf(Tuple::Ints({1, 9})), -1);
}

TEST(EvaluatorTest, CoefficientMultipliesResult) {
  ViewDefinitionPtr view = ChainView();
  Catalog c = SmallChainCatalog();
  Term t = Term::FromView(view).Negated();
  Result<Relation> r = EvaluateTerm(t, c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(Tuple::Ints({1, 9})), -1);
}

TEST(EvaluatorTest, SelectionConditionApplies) {
  ViewDefinitionPtr view =
      ChainView(Predicate::AttrCompare("W", CompareOp::kGt, "Z"));
  Catalog c = SmallChainCatalog();
  Result<Relation> v = EvaluateView(view, c);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->IsEmpty());  // neither 1>9 nor 4>9
}

TEST(EvaluatorTest, EmptyQueryEvaluatesToEmpty) {
  Catalog c = SmallChainCatalog();
  Result<Relation> r = EvaluateQuery(Query(), c);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsEmpty());
}

TEST(EvaluatorTest, PerTermResultsAlignWithTerms) {
  ViewDefinitionPtr view = ChainView();
  Catalog c = SmallChainCatalog();
  Term a = *Term::FromView(view).Substitute(
      Update::Insert("r2", Tuple::Ints({2, 5})));
  Term b = a.Negated();
  Query q(1, 1, {a, b});
  Result<std::vector<Relation>> parts = EvaluateQueryPerTerm(q, c);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0], (*parts)[1].Negated());
  Result<Relation> sum = EvaluateQuery(q, c);
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum->IsEmpty());
}

// --- Differential and algebraic property tests --------------------------------

class EvaluatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorProperty, HashJoinPlanMatchesNaiveCrossProduct) {
  Random rng(GetParam());
  Result<Workload> w =
      MakeExample6Workload({/*cardinality=*/16, /*join_factor=*/2}, &rng);
  ASSERT_TRUE(w.ok()) << w.status();

  // Random terms: bind 0, 1, or 2 positions.
  Term t = Term::FromView(w->view);
  const int binds = static_cast<int>(rng.Uniform(3));
  const char* names[] = {"r1", "r2", "r3"};
  for (int i = 0; i < binds; ++i) {
    const char* rel = names[rng.Uniform(3)];
    Update u =
        rng.Bernoulli(1, 2)
            ? Update::Insert(rel, Tuple::Ints({rng.UniformRange(0, 8),
                                               rng.UniformRange(0, 8)}))
            : Update::Delete(rel, Tuple::Ints({rng.UniformRange(0, 8),
                                               rng.UniformRange(0, 8)}));
    std::optional<Term> s = t.Substitute(u);
    if (s.has_value()) {
      t = *s;
    }
  }
  Result<Relation> fast = EvaluateTerm(t, w->initial);
  Result<Relation> slow = EvaluateTermNaive(t, w->initial);
  ASSERT_TRUE(fast.ok()) << fast.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(*fast, *slow);
}

TEST_P(EvaluatorProperty, LemmaB2CompensationIdentity) {
  // Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]: the state before an update can be
  // reconstructed from the state after it (Lemma B.2). Exercised with a
  // random update stream over the Example 6 workload.
  Random rng(GetParam());
  Result<Workload> w =
      MakeExample6Workload({/*cardinality=*/12, /*join_factor=*/2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 6, 0.3, &rng);
  ASSERT_TRUE(updates.ok()) << updates.status();

  Catalog state = w->initial.Clone();
  Query q(1, 1, {Term::FromView(w->view)});
  for (const Update& u : *updates) {
    Result<Relation> before = EvaluateQuery(q, state);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(state.Apply(u).ok());
    Result<Relation> after = EvaluateQuery(q, state);
    Result<Relation> delta = EvaluateQuery(q.Substitute(u), state);
    ASSERT_TRUE(after.ok());
    ASSERT_TRUE(delta.ok());
    EXPECT_EQ(*before, *after - *delta) << "update " << u.ToString();
  }
}

TEST_P(EvaluatorProperty, InclusionExclusionBatchDeltaIdentity) {
  // IncExc(V, batch)[after] == V[after] - V[before]: the identity the
  // Section 7 batching extension relies on.
  Random rng(GetParam());
  Result<Workload> w =
      MakeExample6Workload({/*cardinality=*/12, /*join_factor=*/2}, &rng);
  ASSERT_TRUE(w.ok());
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 4, 0.3, &rng);
  ASSERT_TRUE(updates.ok());

  Catalog state = w->initial.Clone();
  Query q(1, 1, {Term::FromView(w->view)});
  Result<Relation> before = EvaluateQuery(q, state);
  ASSERT_TRUE(before.ok());
  for (const Update& u : *updates) {
    ASSERT_TRUE(state.Apply(u).ok());
  }
  Result<Relation> after = EvaluateQuery(q, state);
  ASSERT_TRUE(after.ok());
  Result<Relation> delta =
      EvaluateQuery(q.InclusionExclusionSubstitute(*updates), state);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*after - *before, *delta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorProperty,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace wvm
