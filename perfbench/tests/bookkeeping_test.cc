// The benchmark's own bookkeeping, checked on tiny runs (k = 50): install
// and head samples, the FIFO mirrors, the determinism of the counters and
// the final-view gate.

#include <gtest/gtest.h>

#include <string>

#include "driver.h"
#include "relational/relation.h"

namespace wvm::perfbench {
namespace {

WorkloadSpec Tiny(const std::string& name) {
  Result<WorkloadSpec> spec = FindWorkload(name);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  spec->updates = 50;
  spec->cardinality = std::min<int64_t>(spec->cardinality, 200);
  spec->burst = std::min(spec->burst, 16);
  return *spec;
}

RoundResult RunTiny(const WorkloadSpec& spec, bool traced) {
  RoundOptions options;
  options.seed = 17;
  options.traced = traced;
  options.work_dir = ::testing::TempDir();
  Result<RoundResult> r = RunRound(spec, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->failure, "") << spec.name;
  return *r;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, OneInstallAndHeadSamplePerUpdate) {
  const RoundResult r = RunTiny(Tiny(GetParam()), false);
  EXPECT_EQ(r.counters.updates, 50);
  EXPECT_EQ(r.counters.install_samples, 50);
  EXPECT_EQ(r.counters.head_samples, 50);
  for (size_t i = 0; i < r.install_us.size(); ++i) {
    EXPECT_GT(r.install_us[i], 0) << "update " << i + 1;
    EXPECT_GE(r.head_us[i], r.install_us[i]) << "update " << i + 1;
  }
}

TEST_P(EveryWorkload, FifoMirrorAgreesWithTheMeter) {
  const RoundResult r = RunTiny(Tiny(GetParam()), false);
  const Counters& c = r.counters;
  const auto calls = [&](Layer l) { return c.calls[static_cast<int>(l)]; };
  EXPECT_EQ(c.notifications, c.updates);
  EXPECT_EQ(calls(Layer::kSourceUpdate), c.notifications);
  EXPECT_EQ(calls(Layer::kCoreOnUpdate), c.notifications);
  EXPECT_EQ(calls(Layer::kSourceAnswer), c.answers);
  EXPECT_EQ(calls(Layer::kCoreOnAnswer), c.answers);
  EXPECT_EQ(c.messages, 2 * c.answers);
}

TEST_P(EveryWorkload, CountersRepeatAndTracingDoesNotMoveThem) {
  const WorkloadSpec spec = Tiny(GetParam());
  const RoundResult a = RunTiny(spec, false);
  const RoundResult b = RunTiny(spec, false);
  const RoundResult traced = RunTiny(spec, true);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_TRUE(a.counters == traced.counters);
  EXPECT_TRUE(a.spans.empty());
  int64_t spans = 0;
  for (int64_t n : traced.counters.calls) {
    spans += n;
  }
  EXPECT_EQ(static_cast<int64_t>(traced.spans.size()), spans);
  for (const Span& s : traced.spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    if (s.layer == Layer::kSourceUpdate || s.layer == Layer::kCoreOnUpdate ||
        s.layer == Layer::kSourceAnswer || s.layer == Layer::kCoreOnAnswer) {
      EXPECT_GE(s.update_id, 1u);
      EXPECT_LE(s.update_id, 50u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::Values("steady", "burst", "checked",
                                           "replicated"));

TEST(Replicated, HeadFollowsInstallAndReadsAreServed) {
  const RoundResult r = RunTiny(Tiny("replicated"), true);
  EXPECT_EQ(r.counters.reads, 25);
  EXPECT_EQ(r.counters.reads_refused, 0);
  EXPECT_GT(r.counters.calls[static_cast<int>(Layer::kReplicationApply)], 0);
  bool strictly_later = false;
  for (size_t i = 0; i < r.head_us.size(); ++i) {
    strictly_later |= r.head_us[i] > r.install_us[i];
  }
  EXPECT_TRUE(strictly_later);
  // Replica applies are linked to the update whose message they apply.
  for (const Span& s : r.spans) {
    if (s.layer == Layer::kReplicationApply) {
      EXPECT_GE(s.update_id, 1u);
    }
  }
}

TEST(Checked, VerdictRunsAndStatesAreRecorded) {
  const RoundResult r = RunTiny(Tiny("checked"), false);
  EXPECT_EQ(r.counters.calls[static_cast<int>(Layer::kConsistencyCheck)], 1);
  EXPECT_GT(r.counters.consistency_states, 2 * r.counters.updates);
  EXPECT_GT(r.check_s, 0);
}

TEST(Gate, ReportsAViewThatDiffers) {
  const Schema schema = Schema::Ints({"W", "Z"});
  const Relation view =
      Relation::FromTuples(schema, {Tuple::Ints({3, 1}), Tuple::Ints({5, 2})});
  Relation other = view;
  EXPECT_EQ(GateFinalView(view, other), "");
  other.Insert(Tuple::Ints({7, 0}));
  EXPECT_NE(GateFinalView(view, other), "");
  other = view;
  other.Insert(Tuple::Ints({3, 1}));  // same tuples, wrong multiplicity
  EXPECT_NE(GateFinalView(view, other), "");
  EXPECT_NE(GateFinalView(view, Status::Internal("boom")), "");
}

}  // namespace
}  // namespace wvm::perfbench
