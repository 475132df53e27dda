// Views outside the natural-join comfort zone: OR conditions (no top-level
// equi-edges, so evaluators fall back to cross products), disconnected
// joins, non-recorded state logs, and batch handling through every default
// path.
#include <gtest/gtest.h>

#include "naive_oracle.h"
#include "query/evaluator.h"
#include "source/source.h"
#include "test_util.h"

namespace wvm {
namespace {

// r1(A,B) x r2(C,D) with an OR condition: no equi conjuncts at all.
struct OrViewFixture {
  Catalog initial;
  ViewDefinitionPtr view;

  static OrViewFixture Make() {
    OrViewFixture f;
    Schema s1 = Schema::Ints({"A", "B"});
    Schema s2 = Schema::Ints({"C", "D"});
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r1", s1},
                                    Relation::FromTuples(
                                        s1, {Tuple::Ints({1, 2}),
                                             Tuple::Ints({3, 4})}))
                    .ok());
    EXPECT_TRUE(f.initial
                    .DefineWithData({"r2", s2},
                                    Relation::FromTuples(
                                        s2, {Tuple::Ints({1, 9}),
                                             Tuple::Ints({5, 9})}))
                    .ok());
    f.view = *ViewDefinition::Create(
        "V", {{"r1", s1}, {"r2", s2}}, {"A", "C"},
        Predicate::Or(Predicate::AttrCompare("A", CompareOp::kEq, "C"),
                      Predicate::AttrCompare("B", CompareOp::kGt, "D")));
    return f;
  }
};

TEST(OrViewTest, NoEquiEdgesExtracted) {
  OrViewFixture f = OrViewFixture::Make();
  EXPECT_TRUE(f.view->equi_edges().empty());
}

TEST(OrViewTest, LogicalEvaluationMatchesNaive) {
  OrViewFixture f = OrViewFixture::Make();
  Term t = Term::FromView(f.view);
  Result<Relation> fast = EvaluateTerm(t, f.initial);
  Result<Relation> slow = EvaluateTermNaive(t, f.initial);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(*fast, *slow);
  // (1,1) via A=C; nothing via B>D (2,4 both < 9).
  EXPECT_EQ(fast->CountOf(Tuple::Ints({1, 1})), 1);
  EXPECT_EQ(fast->TotalPositive(), 1);
}

TEST(OrViewTest, PhysicalScenariosAgreeWithLogical) {
  OrViewFixture f = OrViewFixture::Make();
  for (PhysicalScenario scenario :
       {PhysicalScenario::kIndexedMemory,
        PhysicalScenario::kNestedLoopLimited}) {
    PhysicalConfig config;
    config.scenario = scenario;
    config.tuples_per_block = 2;
    Result<Source> source = Source::Create(f.initial, config, {});
    ASSERT_TRUE(source.ok());
    Term bound = *Term::FromView(f.view).Substitute(
        Update::Insert("r1", Tuple::Ints({5, 99})));
    Query q(1, 1, {Term::FromView(f.view), bound});
    Result<AnswerMessage> physical = source->EvaluateQuery(q);
    ASSERT_TRUE(physical.ok()) << physical.status();
    Result<Relation> logical = EvaluateQuery(q, f.initial);
    ASSERT_TRUE(logical.ok());
    EXPECT_EQ(physical->Sum(), *logical);
  }
}

TEST(OrViewTest, EcaMaintainsOrViewsUnderConcurrency) {
  OrViewFixture f = OrViewFixture::Make();
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::unique_ptr<Simulation> sim =
        MustMakeSim(f.initial, f.view, Algorithm::kEca);
    sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 99})),
                          Update::Delete("r2", Tuple::Ints({1, 9})),
                          Update::Insert("r2", Tuple::Ints({3, 0}))});
    RandomPolicy policy(seed);
    ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
    ConsistencyReport report = CheckConsistency(sim->state_log());
    EXPECT_TRUE(report.strongly_consistent)
        << "seed " << seed << ": " << report.ToString();
  }
}

TEST(StateRecordingTest, DisabledRecordingKeepsLogEmpty) {
  OrViewFixture f = OrViewFixture::Make();
  SimulationOptions options;
  options.instrument.record_states = false;
  std::unique_ptr<Simulation> sim =
      MustMakeSim(f.initial, f.view, Algorithm::kEca, options);
  sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 99}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  EXPECT_TRUE(sim->state_log().source_view_states.empty());
  EXPECT_TRUE(sim->state_log().warehouse_view_states.empty());
  // Maintenance itself is unaffected.
  Result<Relation> expected = sim->SourceViewNow();
  EXPECT_EQ(sim->warehouse_view(), *expected);
}

TEST(BatchDefaultsTest, BasicProcessesBatchesSequentially) {
  OrViewFixture f = OrViewFixture::Make();
  SimulationOptions options;
  options.batch_size = 3;
  std::unique_ptr<Simulation> sim =
      MustMakeSim(f.initial, f.view, Algorithm::kBasic, options);
  sim->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 99})),
                        Update::Insert("r2", Tuple::Ints({5, 0})),
                        Update::Insert("r1", Tuple::Ints({6, 0}))});
  BestCasePolicy policy;
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  // One notification, three per-update queries.
  EXPECT_EQ(sim->meter().notifications(), 1);
  EXPECT_EQ(sim->meter().query_messages(), 3);
  // Batching makes the updates concurrent by construction, so the basic
  // algorithm's anomaly strikes even under the best-case policy: Q1 was
  // built before U2/U3 but evaluated after them.
  Result<Relation> expected = sim->SourceViewNow();
  EXPECT_NE(sim->warehouse_view(), *expected);

  // The same batched stream under ECA is compensated correctly.
  std::unique_ptr<Simulation> eca =
      MustMakeSim(f.initial, f.view, Algorithm::kEca, options);
  eca->SetUpdateScript({Update::Insert("r1", Tuple::Ints({5, 99})),
                        Update::Insert("r2", Tuple::Ints({5, 0})),
                        Update::Insert("r1", Tuple::Ints({6, 0}))});
  BestCasePolicy policy2;
  ASSERT_TRUE(RunToQuiescence(eca.get(), &policy2).ok());
  Result<Relation> eca_expected = eca->SourceViewNow();
  EXPECT_EQ(eca->warehouse_view(), *eca_expected);
}

TEST(TermPrintingTest, CoefficientMagnitudesShown) {
  OrViewFixture f = OrViewFixture::Make();
  Term t = Term::FromView(f.view);
  t.set_coefficient(3);
  EXPECT_NE(t.ToString().find("3*pi_{"), std::string::npos);
  t.set_coefficient(-2);
  EXPECT_NE(t.ToString().find("-2*pi_{"), std::string::npos);
  t.set_coefficient(-1);
  EXPECT_EQ(t.ToString().find("1*"), std::string::npos);
}

}  // namespace
}  // namespace wvm
