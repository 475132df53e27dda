// The recorded consistency states against independent references:
//
//   1. every delta-maintained V[ss_i] equals a from-scratch evaluation over
//      a catalog replayed from the update script (ECA, LCA, batches, a
//      recovered crash schedule, multisource); a composite view keeps the
//      from-scratch path;
//   2. the class-id checker and staleness analysis agree with quadratic
//      references on random logs, violating ones included, and stay exact
//      under a fingerprint collision;
//   3. a warehouse state equal to a source state shares its storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "consistency/checker.h"
#include "consistency/staleness.h"
#include "core/composite_eca.h"
#include "multisource/ms_eca.h"
#include "multisource/ms_simulation.h"
#include "query/composite_view.h"
#include "query/evaluator.h"
#include "test_util.h"
#include "workload/generator.h"

namespace wvm {
namespace {

using ViewEvaluator = std::function<Result<Relation>(const Catalog&)>;

struct Example6Run {
  Workload workload;
  std::vector<Update> updates;
};

Example6Run MakeExample6Run(uint64_t seed, int64_t k) {
  Random rng(seed);
  Result<Workload> workload = MakeExample6Workload({20, 2}, &rng);
  EXPECT_TRUE(workload.ok()) << workload.status();
  Result<std::vector<Update>> updates =
      MakeMixedUpdates(*workload, k, 0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  return {std::move(*workload), std::move(*updates)};
}

// Replays the script in batches of `batch_size` over a copy of `initial`
// (the source executes batches in script order, whatever the schedule) and
// compares every recorded V[ss_i] with `evaluate` on the replayed state.
void ExpectSourceStatesMatchReplay(const Simulation& sim,
                                   const Catalog& initial,
                                   const std::vector<Update>& updates,
                                   size_t batch_size,
                                   const ViewEvaluator& evaluate) {
  const std::vector<Relation>& states = sim.state_log().source_view_states;
  ASSERT_EQ(states.size(), 1 + (updates.size() + batch_size - 1) / batch_size);
  Catalog replay = initial.Clone();
  size_t next = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t b = 0; i > 0 && b < batch_size && next < updates.size();
         ++b) {
      ASSERT_TRUE(replay.Apply(updates[next++]).ok());
    }
    Result<Relation> expected = evaluate(replay);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(states[i], *expected) << "V[ss" << i << "]";
  }
}

ViewEvaluator PlainView(ViewDefinitionPtr view) {
  return [view](const Catalog& catalog) { return EvaluateView(view, catalog); };
}

void RunRandomAndCheckReplay(Algorithm algorithm, size_t batch_size,
                             uint64_t seed) {
  Example6Run run = MakeExample6Run(seed, 24);
  SimulationOptions options;
  options.batch_size = static_cast<int>(batch_size);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      run.workload.initial, run.workload.view, algorithm, options);
  sim->SetUpdateScript(run.updates);
  RandomPolicy policy(seed);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  ExpectSourceStatesMatchReplay(*sim, run.workload.initial, run.updates,
                                batch_size, PlainView(run.workload.view));
  EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
}

TEST(SourceStatesTest, EcaDeltaStatesMatchReplay) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunRandomAndCheckReplay(Algorithm::kEca, 1, seed);
  }
}

TEST(SourceStatesTest, LcaDeltaStatesMatchReplay) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunRandomAndCheckReplay(Algorithm::kLca, 1, seed);
  }
}

TEST(SourceStatesTest, BatchedDeltaStatesMatchReplay) {
  // A batch of 4 may touch several relations; each update's delta is
  // applied against its own step.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunRandomAndCheckReplay(Algorithm::kEca, 4, seed);
  }
}

TEST(SourceStatesTest, RecoveredCrashScheduleMatchesReplay) {
  // The warehouse and then the source crash mid-run and recover: the
  // source's restored catalog must leave the running V[ss] exact.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Example6Run run = MakeExample6Run(seed, 24);
    SimulationOptions options;
    options.fault.enabled = true;
    options.fault.reliable = true;
    options.fault.seed = seed;
    options.fault.drop_rate = 0.2;
    options.recovery.enabled = true;
    options.recovery.checkpoint_every = 5;
    std::unique_ptr<Simulation> sim = MustMakeSim(
        run.workload.initial, run.workload.view, Algorithm::kEca, options);
    sim->SetUpdateScript(run.updates);
    RandomPolicy policy(seed);
    int actions = 0;
    for (int guard = 0; guard < 1000000; ++guard) {
      if (actions == 10 || actions == 25) {
        const bool warehouse = actions == 10;
        ASSERT_TRUE((warehouse ? sim->CrashWarehouse() : sim->CrashSource())
                        .ok());
        for (int t = 0; t < 3 && sim->CanTransportTick(); ++t) {
          ASSERT_TRUE(sim->StepTransportTick().ok());
        }
        ASSERT_TRUE(
            (warehouse ? sim->RestartWarehouse() : sim->RestartSource()).ok());
        ++actions;
        continue;
      }
      SimAction action = policy.Next(*sim);
      if (action == SimAction::kNone) {
        break;
      }
      ASSERT_TRUE(sim->Step(action).ok());
      ++actions;
    }
    ASSERT_TRUE(sim->Quiescent());
    ASSERT_GT(actions, 25);
    ExpectSourceStatesMatchReplay(*sim, run.workload.initial, run.updates, 1,
                                  PlainView(run.workload.view));
    EXPECT_TRUE(CheckConsistency(sim->state_log()).strongly_consistent);
  }
}

TEST(SourceStatesTest, CompositeViewEvaluatesFromScratch) {
  // V + V as a union of two branches: the first branch's delta alone would
  // record half of every state.
  Example6Run run = MakeExample6Run(3, 16);
  Result<CompositeViewPtr> composite = CompositeView::Create(
      "VV", {{run.workload.view, +1}, {run.workload.view, +1}});
  ASSERT_TRUE(composite.ok()) << composite.status();
  const CompositeViewPtr c = *composite;
  SimulationOptions options;
  options.view_evaluator = [c](const Catalog& catalog) {
    return c->Evaluate(catalog);
  };
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      run.workload.initial, run.workload.view,
      std::make_unique<CompositeEca>(c), options);
  ASSERT_TRUE(sim.ok()) << sim.status();
  (*sim)->SetUpdateScript(run.updates);
  RandomPolicy policy(3);
  ASSERT_TRUE(RunToQuiescence(sim->get(), &policy).ok());
  ExpectSourceStatesMatchReplay(**sim, run.workload.initial, run.updates, 1,
                                options.view_evaluator);
  EXPECT_TRUE(CheckConsistency((*sim)->state_log()).strongly_consistent);
}

TEST(SourceStatesTest, MultisourceDeltaStatesMatchGlobalView) {
  // Source A owns r1(W,X), source B owns r2(X,Y); after every update the
  // recorded global state must equal the view over the merged catalog.
  Schema s1 = Schema::Ints({"W", "X"});
  Schema s2 = Schema::Ints({"X", "Y"});
  Catalog a;
  ASSERT_TRUE(a.DefineWithData({"r1", s1}, Relation::FromTuples(
                                               s1, {Tuple::Ints({1, 2})}))
                  .ok());
  Catalog b;
  ASSERT_TRUE(b.DefineWithData({"r2", s2}, Relation::FromTuples(
                                               s2, {Tuple::Ints({2, 5})}))
                  .ok());
  ViewDefinitionPtr view =
      *ViewDefinition::NaturalJoin("V", {{"r1", s1}, {"r2", s2}}, {"W", "Y"});
  Result<std::unique_ptr<MsSimulation>> sim = MsSimulation::Create(
      {std::move(a), std::move(b)}, view, std::make_unique<MsEca>(view));
  ASSERT_TRUE(sim.ok()) << sim.status();
  MsSimulation& ms = **sim;
  ASSERT_TRUE(ms.SetUpdateScript(0, {Update::Insert("r1", Tuple::Ints({3, 2})),
                                     Update::Delete("r1", Tuple::Ints({1, 2})),
                                     Update::Insert("r1", Tuple::Ints({4, 6}))})
                  .ok());
  ASSERT_TRUE(ms.SetUpdateScript(1, {Update::Insert("r2", Tuple::Ints({2, 7})),
                                     Update::Insert("r2", Tuple::Ints({6, 1})),
                                     Update::Delete("r2", Tuple::Ints({2, 5}))})
                  .ok());
  for (size_t step = 0; ms.CanSourceUpdate(0) || ms.CanSourceUpdate(1);
       ++step) {
    const size_t s = ms.CanSourceUpdate(step % 2) ? step % 2 : 1 - step % 2;
    ASSERT_TRUE(ms.StepSourceUpdate(s).ok());
    Result<Relation> now = ms.GlobalViewNow();
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(ms.state_log().source_view_states.back(), *now)
        << "after step " << step;
  }
  EXPECT_EQ(ms.state_log().source_view_states.size(), 7u);
  ASSERT_TRUE(ms.RunRandom(5).ok());
  EXPECT_EQ(ms.warehouse_view(), *ms.GlobalViewNow());
}

// --- The verdicts against quadratic references -----------------------------

// The checker as first written: Relation == between every pair of states.
int ReferenceFirstUnmatched(const std::vector<Relation>& needles,
                            const std::vector<Relation>& haystack,
                            bool allow_same_index) {
  size_t h = 0;
  bool first = true;
  for (size_t n = 0; n < needles.size(); ++n) {
    size_t start = first ? 0 : (allow_same_index ? h : h + 1);
    bool found = false;
    for (size_t i = start; i < haystack.size(); ++i) {
      if (haystack[i] == needles[n]) {
        h = i;
        found = true;
        break;
      }
    }
    if (!found) {
      return static_cast<int>(n);
    }
    first = false;
  }
  return -1;
}

ConsistencyReport ReferenceCheck(const StateLog& log) {
  ConsistencyReport report;
  const std::vector<Relation>& src = log.source_view_states;
  const std::vector<Relation> wh = StateLog::Dedup(log.warehouse_view_states);
  if (src.empty() || wh.empty()) {
    report.violation = "empty execution";
    return report;
  }
  report.convergent = src.back() == wh.back();
  if (!report.convergent) {
    report.violation =
        StrCat("not convergent: final warehouse state ", wh.back().ToString(),
               " != final source state ", src.back().ToString());
  }
  report.weakly_consistent = true;
  for (const Relation& w : wh) {
    if (std::none_of(src.begin(), src.end(),
                     [&w](const Relation& s) { return s == w; })) {
      report.weakly_consistent = false;
      if (report.violation.empty()) {
        report.violation = StrCat("not weakly consistent: warehouse state ",
                                  w.ToString(), " matches no source state");
      }
      break;
    }
  }
  if (report.weakly_consistent) {
    int miss = ReferenceFirstUnmatched(wh, src, true);
    report.consistent = miss < 0;
    if (!report.consistent && report.violation.empty()) {
      report.violation = StrCat("not consistent: warehouse state #", miss,
                                " (", wh[static_cast<size_t>(miss)].ToString(),
                                ") breaks source-state order");
    }
  }
  report.strongly_consistent = report.consistent && report.convergent;
  if (report.strongly_consistent) {
    int miss = ReferenceFirstUnmatched(StateLog::Dedup(src), wh, false);
    report.complete = miss < 0;
    if (!report.complete && report.violation.empty()) {
      report.violation = StrCat("not complete: source state #", miss,
                                " never observed at the warehouse");
    }
  }
  return report;
}

std::vector<int64_t> ReferenceLags(const StateLog& log) {
  std::vector<int64_t> lags(log.source_view_states.size(), -1);
  for (size_t i = 0; i < lags.size(); ++i) {
    const uint64_t born = log.source_state_seq[i];
    for (size_t j = 0; j < log.warehouse_view_states.size(); ++j) {
      if (log.warehouse_state_seq[j] >= born &&
          log.warehouse_view_states[j] == log.source_view_states[i]) {
        lags[i] = static_cast<int64_t>(log.warehouse_state_seq[j] - born);
        break;
      }
    }
  }
  return lags;
}

// A freshly built relation over a small alphabet (so states repeat), with
// its own storage: equality must be found by content.
Relation RandomState(Random* rng) {
  Relation r(Schema::Ints({"a"}));
  const uint64_t n = rng->Uniform(3);
  for (uint64_t i = 0; i < n; ++i) {
    r.Insert(Tuple::Ints({static_cast<int64_t>(rng->Uniform(3))}),
             rng->Uniform(5) == 0 ? -1 : 1);
  }
  return r;
}

// Warehouse sequences of three shapes: copies of source states taken in
// order (consistent, often complete), the same with repeats and shared
// storage, and arbitrary states (mostly violating).
StateLog RandomLog(Random* rng) {
  StateLog log;
  const uint64_t n_src = rng->Uniform(7);
  for (uint64_t i = 0; i < n_src; ++i) {
    log.source_view_states.push_back(RandomState(rng));
    log.source_state_seq.push_back(rng->Uniform(20));
  }
  const uint64_t shape = rng->Uniform(3);
  const uint64_t n_wh = rng->Uniform(8);
  size_t at = 0;
  for (uint64_t j = 0; j < n_wh; ++j) {
    Relation w;
    if (shape < 2 && n_src > 0) {
      at = std::min<size_t>(at + rng->Uniform(2), n_src - 1);
      const Relation& s = log.source_view_states[at];
      if (shape == 0) {
        w = Relation(s.schema());
        for (const auto& [t, c] : s.SortedEntries()) {
          w.Insert(t, c);
        }
      } else {
        w = s;  // shares the source state's storage
      }
    } else {
      w = RandomState(rng);
    }
    log.warehouse_view_states.push_back(std::move(w));
    log.warehouse_state_seq.push_back(rng->Uniform(20));
  }
  return log;
}

TEST(CheckerReferenceTest, RandomLogsMatchQuadraticReference) {
  Random rng(20261019);
  int complete = 0;
  int violating = 0;
  for (int i = 0; i < 3000; ++i) {
    const StateLog log = RandomLog(&rng);
    const ConsistencyReport got = CheckConsistency(log);
    const ConsistencyReport want = ReferenceCheck(log);
    ASSERT_EQ(got.convergent, want.convergent) << log.ToString();
    ASSERT_EQ(got.weakly_consistent, want.weakly_consistent) << log.ToString();
    ASSERT_EQ(got.consistent, want.consistent) << log.ToString();
    ASSERT_EQ(got.strongly_consistent, want.strongly_consistent)
        << log.ToString();
    ASSERT_EQ(got.complete, want.complete) << log.ToString();
    ASSERT_EQ(got.violation, want.violation) << log.ToString();
    complete += want.complete ? 1 : 0;
    violating += want.violation.empty() ? 0 : 1;
  }
  // Both sides of every verdict were exercised.
  EXPECT_GT(complete, 100);
  EXPECT_GT(violating, 1000);
}

TEST(StalenessReferenceTest, RandomLogsMatchQuadraticReference) {
  // Clocks are drawn at random, not increasing, so the first warehouse
  // state at or after a source state's clock is not simply the next one.
  Random rng(4242);
  for (int i = 0; i < 3000; ++i) {
    const StateLog log = RandomLog(&rng);
    ASSERT_EQ(MeasureStaleness(log).lags, ReferenceLags(log))
        << log.ToString();
  }
}

TEST(StateClassesTest, FingerprintCollisionStaysExact) {
  // A multiplicity of -2^63 weights a tuple's mixed hash by 2^63 (mod
  // 2^64), so every tuple whose mixed hash is odd fingerprints the same:
  // find two and check that nothing treats them as equal.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Relation> odd;
  for (int64_t v = 0; odd.size() < 2 && v < 64; ++v) {
    Relation r(Schema::Ints({"a"}));
    r.Insert(Tuple::Ints({v}), kMin);
    if (StateFingerprint(r) == (uint64_t{1} << 63)) {
      odd.push_back(std::move(r));
    }
  }
  ASSERT_EQ(odd.size(), 2u);
  ASSERT_FALSE(odd[0] == odd[1]);

  StateClasses classes;
  EXPECT_NE(classes.Classify(odd[0]), classes.Classify(odd[1]));
  EXPECT_EQ(classes.size(), 2u);

  StateLog log;
  log.RecordSourceState(odd[0]);
  log.RecordSourceState(Relation(Schema::Ints({"a"})));
  log.RecordWarehouseState(odd[1]);
  EXPECT_TRUE(log.warehouse_view_states[0] == odd[1]);
  EXPECT_EQ(log.warehouse_view_states[0].shared_entries(),
            odd[1].shared_entries());
}

TEST(StateSharingTest, EcaWarehouseStatesShareSourceStorage) {
  Example6Run run = MakeExample6Run(11, 30);
  std::unique_ptr<Simulation> sim = MustMakeSim(
      run.workload.initial, run.workload.view, Algorithm::kEca);
  sim->SetUpdateScript(run.updates);
  RandomPolicy policy(11);
  ASSERT_TRUE(RunToQuiescence(sim.get(), &policy).ok());
  const StateLog& log = sim->state_log();
  ASSERT_TRUE(CheckConsistency(log).strongly_consistent);
  int shared = 0;
  for (size_t j = 0; j < log.warehouse_view_states.size(); ++j) {
    const Relation& w = log.warehouse_view_states[j];
    bool equal = false;
    bool shares = false;
    for (const Relation& s : log.source_view_states) {
      equal = equal || s == w;
      shares = shares || (s == w && s.shared_entries() == w.shared_entries());
    }
    ASSERT_TRUE(equal) << "V[ws" << j << "]";
    EXPECT_TRUE(shares) << "V[ws" << j << "] holds storage of its own";
    shared += shares ? 1 : 0;
  }
  EXPECT_EQ(static_cast<size_t>(shared), log.warehouse_view_states.size());
  // The log holds none of the live view's storage, so the next install
  // would mutate MV in place.
  for (const Relation& w : log.warehouse_view_states) {
    if (!w.IsEmpty()) {
      EXPECT_NE(w.shared_entries(), sim->warehouse_view().shared_entries());
    }
  }
}

}  // namespace
}  // namespace wvm
