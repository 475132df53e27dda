#include "query/view_def.h"

#include <string>

#include <gtest/gtest.h>

#include "naive_oracle.h"
#include "query/catalog.h"
#include "query/evaluator.h"
#include "query/term.h"

namespace wvm {
namespace {

std::vector<BaseRelationDef> ChainDefs() {
  return {{"r1", Schema::Ints({"W", "X"})},
          {"r2", Schema::Ints({"X", "Y"})},
          {"r3", Schema::Ints({"Y", "Z"})}};
}

TEST(ViewDefinitionTest, NaturalJoinBuildsEqualityConditions) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok()) << v.status();
  // Shared X and Y each produce one equi-edge.
  EXPECT_EQ((*v)->equi_edges().size(), 2u);
  EXPECT_EQ((*v)->combined_schema().size(), 6u);
  EXPECT_EQ((*v)->output_schema().size(), 2u);
}

TEST(ViewDefinitionTest, SharedNamesAreQualified) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  const Schema& combined = (*v)->combined_schema();
  EXPECT_TRUE(combined.IndexOf("r1.X").has_value());
  EXPECT_TRUE(combined.IndexOf("r2.X").has_value());
  EXPECT_TRUE(combined.IndexOf("W").has_value());  // unique: stays bare
  EXPECT_FALSE(combined.IndexOf("X").has_value());
}

TEST(ViewDefinitionTest, ProjectingSharedNameResolvesToFirstOccurrence) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"X"});
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ((*v)->output_schema().attribute(0).name, "r1.X");
}

TEST(ViewDefinitionTest, RejectsDuplicateRelations) {
  std::vector<BaseRelationDef> defs = {{"r1", Schema::Ints({"W"})},
                                       {"r1", Schema::Ints({"X"})}};
  EXPECT_EQ(ViewDefinition::Create("V", defs, {"W"}, Predicate())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ViewDefinitionTest, RejectsEmptyRelationList) {
  EXPECT_EQ(
      ViewDefinition::Create("V", {}, {}, Predicate()).status().code(),
      StatusCode::kInvalidArgument);
}

// r0(a0,a1) |><| r1(a1,a2) |><| ... : an n-relation natural-join chain.
std::vector<BaseRelationDef> WideChainDefs(size_t n) {
  std::vector<BaseRelationDef> defs;
  for (size_t i = 0; i < n; ++i) {
    defs.push_back({"r" + std::to_string(i),
                    Schema::Ints({"a" + std::to_string(i),
                                  "a" + std::to_string(i + 1)})});
  }
  return defs;
}

TEST(ViewDefinitionTest, AtMostSixtyFourRelations) {
  Result<ViewDefinitionPtr> too_wide =
      ViewDefinition::NaturalJoin("V", WideChainDefs(65), {"a0"});
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_wide.status().ToString().find("at most 64"),
            std::string::npos)
      << too_wide.status();

  Result<ViewDefinitionPtr> widest =
      ViewDefinition::NaturalJoin("V", WideChainDefs(64), {"a0", "a64"});
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_EQ((*widest)->num_relations(), 64u);

  // A delta term bound at the last position (bit 63 of the plan mask)
  // evaluates like the naive oracle over a chain of singletons.
  Catalog catalog;
  for (size_t i = 0; i < 64; ++i) {
    const BaseRelationDef& def = (*widest)->relations()[i];
    ASSERT_TRUE(catalog.Define(def).ok());
    const int64_t v = static_cast<int64_t>(i);
    ASSERT_TRUE(catalog.Apply(Update::Insert(def.name, Tuple::Ints({v, v + 1})))
                    .ok());
  }
  auto term = Term::FromView(*widest).Substitute(
      Update::Delete("r63", Tuple::Ints({63, 64})));
  ASSERT_TRUE(term.has_value());
  auto compiled = EvaluateTerm(*term, catalog);
  auto naive = EvaluateTermNaive(*term, catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_TRUE(*compiled == *naive) << compiled->ToString();
  EXPECT_EQ(compiled->CountOf(Tuple::Ints({0, 64})), -1);
}

TEST(ViewDefinitionTest, RejectsUnknownProjection) {
  EXPECT_EQ(ViewDefinition::NaturalJoin("V", ChainDefs(), {"Q"})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ViewDefinitionTest, RejectsUnknownConditionAttribute) {
  EXPECT_EQ(ViewDefinition::NaturalJoin(
                "V", ChainDefs(), {"W"},
                Predicate::AttrCompare("Q", CompareOp::kEq, "W"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ViewDefinitionTest, RelationIndexAndOffsets) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*(*v)->RelationIndex("r2"), 1u);
  EXPECT_EQ((*v)->RelationIndex("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*v)->relation_offset(0), 0u);
  EXPECT_EQ((*v)->relation_offset(1), 2u);
  EXPECT_EQ((*v)->relation_offset(2), 4u);
}

std::vector<BaseRelationDef> KeyedDefs() {
  return {{"r1", Schema({{"W", ValueType::kInt, true},
                         {"X", ValueType::kInt, false}})},
          {"r2", Schema({{"X", ValueType::kInt, false},
                         {"Y", ValueType::kInt, true}})}};
}

TEST(ViewDefinitionTest, KeysProjectedWhenEveryDeclaredKeySurvives) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, MissingKeyInProjectionDisablesKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W"});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, NoDeclaredKeysDisablesKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE((*v)->KeysProjected());
}

TEST(ViewDefinitionTest, KeyConstraintsMapToOutputColumns) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1, 2}));
  auto constraints = (*v)->KeyConstraintsFor(u);
  ASSERT_TRUE(constraints.ok()) << constraints.status();
  ASSERT_EQ(constraints->size(), 1u);
  EXPECT_EQ((*constraints)[0].first, 0u);  // W is output column 0
  EXPECT_EQ((*constraints)[0].second, Value(int64_t{1}));
}

TEST(ViewDefinitionTest, KeyConstraintsRejectArityMismatch) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", KeyedDefs(), {"W", "Y"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1}));
  EXPECT_EQ((*v)->KeyConstraintsFor(u).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ViewDefinitionTest, KeyConstraintsFailWithoutKeys) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W", "Z"});
  ASSERT_TRUE(v.ok());
  Update u = Update::Delete("r1", Tuple::Ints({1, 2}));
  EXPECT_EQ((*v)->KeyConstraintsFor(u).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ViewDefinitionTest, ExtraConditionIsConjoined) {
  Result<ViewDefinitionPtr> v = ViewDefinition::NaturalJoin(
      "V", ChainDefs(), {"W", "Z"},
      Predicate::AttrCompare("W", CompareOp::kGt, "Z"));
  ASSERT_TRUE(v.ok());
  // W > Z is not an equi-edge; the two natural-join equalities are.
  EXPECT_EQ((*v)->equi_edges().size(), 2u);
  EXPECT_NE((*v)->cond().ToString().find("W > Z"), std::string::npos);
}

TEST(ViewDefinitionTest, ToStringDescribesTheView) {
  Result<ViewDefinitionPtr> v =
      ViewDefinition::NaturalJoin("V", ChainDefs(), {"W"});
  ASSERT_TRUE(v.ok());
  EXPECT_NE((*v)->ToString().find("pi_{W}"), std::string::npos);
  EXPECT_NE((*v)->ToString().find("r1 x r2 x r3"), std::string::npos);
}

}  // namespace
}  // namespace wvm
