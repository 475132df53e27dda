// Differential test of compensation construction (Algorithm 5.2). The
// maintainers keep only each query's shipped remainder in UQS and resolve
// the substituted position once per view; the reference here is the
// textbook construction: it keeps every query whole and builds
//
//     Q_i = V<U_i> - sum_{Q_j in UQS} Q_j<U_i>
//
// with Term::Substitute over every stored term, folding fully-bound terms
// through the cross-product oracle. Every shipped query must match the
// reference term for term (signature, coefficient, delta tag, in order),
// COLLECT and MV must match after every event, and no UQS entry may hold a
// fully-bound term.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/composite_eca.h"
#include "core/eca.h"
#include "core/eca_local.h"
#include "core/lca.h"
#include "naive_oracle.h"
#include "query/composite_view.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

namespace wvm {
namespace {

// What the source sees of each term, one line per term, in order:
// coefficient, signature and delta tag.
std::string OnWire(const std::vector<Term>& terms) {
  std::string out;
  for (const Term& t : terms) {
    out += std::to_string(t.coefficient()) + " " + TermSignature(t) + " @" +
           std::to_string(t.delta_update_id()) + "\n";
  }
  return out;
}

// The full-UQS construction. `view_terms` yields V<u> (tagged u.id) or
// nothing for an irrelevant update; `ship_fully_bound` is LCA's choice to
// let the source answer every term.
class FullUqsReference {
 public:
  FullUqsReference(std::function<std::vector<Term>(const Update&)> view_terms,
                   bool ship_fully_bound, const Schema& output)
      : view_terms_(std::move(view_terms)),
        ship_fully_bound_(ship_fully_bound),
        collect_(output),
        mv_(output) {}

  Status Initialize(Relation initial_view) {
    mv_ = std::move(initial_view);
    return Status::OK();
  }

  // Builds the reference query for `u` and checks it against what the
  // maintainer shipped while processing `u`.
  void OnUpdate(const Update& u, const std::vector<Query>& shipped) {
    std::vector<Term> q = view_terms_(u);
    if (!q.empty()) {
      for (const auto& [id, pending] : uqs_) {
        for (const Term& t : pending) {
          std::optional<Term> s = t.Substitute(u);
          if (s.has_value()) {
            s->set_coefficient(-s->coefficient());
            q.push_back(std::move(*s));
          }
        }
      }
    }
    std::vector<Term> remote;
    for (const Term& t : q) {
      if (t.IsFullyBound() && !ship_fully_bound_) {
        Result<Relation> part = EvaluateTermNaive(t, Catalog());
        ASSERT_TRUE(part.ok()) << part.status();
        collect_.Add(*part);
        ++folded_;
      } else {
        remote.push_back(t);
      }
    }
    if (remote.empty()) {
      EXPECT_TRUE(shipped.empty()) << "update " << u.id;
      MaybeInstall();
      return;
    }
    ASSERT_EQ(shipped.size(), 1u) << "update " << u.id;
    EXPECT_EQ(OnWire(shipped[0].terms()), OnWire(remote)) << "update " << u.id;
    EXPECT_EQ(shipped[0].NumTerms(), remote.size());
    uqs_.emplace(shipped[0].id(), std::move(q));
    ++queries_;
  }

  void OnAnswer(const AnswerMessage& a) {
    EXPECT_EQ(uqs_.erase(a.query_id), 1u);
    collect_.Add(a.Sum());
    MaybeInstall();
  }

  const Relation& collect() const { return collect_; }
  const Relation& mv() const { return mv_; }
  int64_t folded() const { return folded_; }
  int64_t queries() const { return queries_; }

 private:
  void MaybeInstall() {
    if (uqs_.empty()) {
      mv_.Add(collect_);
      collect_.Clear();
    }
  }

  std::function<std::vector<Term>(const Update&)> view_terms_;
  bool ship_fully_bound_;
  std::map<uint64_t, std::vector<Term>> uqs_;
  Relation collect_;
  Relation mv_;
  int64_t folded_ = 0;
  int64_t queries_ = 0;
};

// Forwards every service to the warehouse and keeps a copy of each query
// sent.
class TapContext : public WarehouseContext {
 public:
  explicit TapContext(WarehouseContext* inner) : inner_(inner) {}
  uint64_t NextQueryId() override { return inner_->NextQueryId(); }
  void SendQuery(Query query) override {
    sent_.push_back(query);
    inner_->SendQuery(std::move(query));
  }
  void NotifyViewChanged() override { inner_->NotifyViewChanged(); }
  void RecordDedupedTerms(int64_t terms) override {
    inner_->RecordDedupedTerms(terms);
  }
  const std::vector<Query>& sent() const { return sent_; }

 private:
  WarehouseContext* inner_;
  std::vector<Query> sent_;
};

// Runs maintainer M unchanged and checks it against the reference after
// every warehouse event.
template <typename M>
class Checked : public M {
 public:
  template <typename... Args>
  explicit Checked(FullUqsReference* ref, Args&&... args)
      : M(std::forward<Args>(args)...), ref_(ref) {}

  Status Initialize(const Catalog& initial) override {
    WVM_RETURN_IF_ERROR(M::Initialize(initial));
    return ref_->Initialize(this->view_contents());
  }

  Status OnUpdate(const Update& u, WarehouseContext* ctx) override {
    TapContext tap(ctx);
    WVM_RETURN_IF_ERROR(M::OnUpdate(u, &tap));
    ref_->OnUpdate(u, tap.sent());
    CheckState();
    return Status::OK();
  }

  Status OnAnswer(const AnswerMessage& a, WarehouseContext* ctx) override {
    WVM_RETURN_IF_ERROR(M::OnAnswer(a, ctx));
    ref_->OnAnswer(a);
    CheckState();
    return Status::OK();
  }

 private:
  void CheckState() {
    for (const auto& [id, q] : this->uqs()) {
      for (const Term& t : q.terms()) {
        EXPECT_FALSE(t.IsFullyBound()) << "UQS query " << id << " holds "
                                       << t.ToString();
      }
    }
    if constexpr (std::is_base_of_v<Eca, M>) {
      // ECA's COLLECT and MV move in lockstep with the reference; LCA and
      // ECA-Local split deltas per update, so they are compared at the end.
      EXPECT_EQ(this->collect(), ref_->collect());
      EXPECT_EQ(this->view_contents(), ref_->mv());
    }
  }

  FullUqsReference* ref_;
};

enum class Maintainer { kEca, kEcaLocal, kLca, kCompositeEca };

std::string Name(Maintainer m) {
  switch (m) {
    case Maintainer::kEca:
      return "Eca";
    case Maintainer::kEcaLocal:
      return "EcaLocal";
    case Maintainer::kLca:
      return "Lca";
    case Maintainer::kCompositeEca:
      return "CompositeEca";
  }
  return "";
}

struct Scenario {
  std::string name;
  Workload workload;
  std::vector<Update> updates;
  // A second branch over a suffix of the workload's relations with the same
  // output width, so composite terms mix views whose relation positions
  // differ.
  ViewDefinitionPtr side_view;
};

Scenario MakeExample6() {
  Random rng(5);
  Result<Workload> w = MakeExample6Workload({20, 2}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 14, 0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  Result<ViewDefinitionPtr> side = ViewDefinition::NaturalJoin(
      "side", {w->defs[1], w->defs[2]}, {"Y", "Z"});
  EXPECT_TRUE(side.ok()) << side.status();
  return Scenario{"example6", std::move(*w), std::move(*updates), *side};
}

Scenario MakeChain4() {
  Random rng(11);
  Result<Workload> w = MakeChainWorkload({4, 12, 2}, &rng);
  EXPECT_TRUE(w.ok()) << w.status();
  Result<std::vector<Update>> updates = MakeMixedUpdates(*w, 12, 0.35, &rng);
  EXPECT_TRUE(updates.ok()) << updates.status();
  Result<ViewDefinitionPtr> side = ViewDefinition::NaturalJoin(
      "side", {w->defs[2], w->defs[3]}, {"c2", "c4"});
  EXPECT_TRUE(side.ok()) << side.status();
  return Scenario{"chain4", std::move(*w), std::move(*updates), *side};
}

// Runs one maintainer under one schedule (seed 0 = WorstCasePolicy) and
// returns the reference's (folded, queries) counts.
std::pair<int64_t, int64_t> RunOne(const Scenario& s, Maintainer which,
                                   uint64_t seed) {
  SCOPED_TRACE(s.name + "/" + Name(which) + "/seed " + std::to_string(seed));
  const ViewDefinitionPtr& view = s.workload.view;
  CompositeViewPtr composite =
      *CompositeView::Create("mixed", {{view, +1}, {s.side_view, -1}});

  std::function<std::vector<Term>(const Update&)> view_terms =
      [view](const Update& u) {
        std::vector<Term> out;
        std::optional<Term> t = Term::FromView(view).Substitute(u);
        if (t.has_value()) {
          t->set_delta_update_id(u.id);
          out.push_back(std::move(*t));
        }
        return out;
      };
  if (which == Maintainer::kCompositeEca) {
    view_terms = [composite](const Update& u) {
      std::vector<Term> out;
      for (const CompositeBranch& b : composite->branches()) {
        std::optional<Term> t = Term::FromView(b.view).Substitute(u);
        if (t.has_value()) {
          t->set_coefficient(b.sign);
          t->set_delta_update_id(u.id);
          out.push_back(std::move(*t));
        }
      }
      return out;
    };
  }
  FullUqsReference ref(view_terms, which == Maintainer::kLca,
                       view->output_schema());

  SimulationOptions options;
  options.instrument.record_states = false;
  std::unique_ptr<ViewMaintainer> maintainer;
  switch (which) {
    case Maintainer::kEca:
      maintainer = std::make_unique<Checked<Eca>>(&ref, view);
      break;
    case Maintainer::kEcaLocal:
      maintainer = std::make_unique<Checked<EcaLocal>>(&ref, view);
      break;
    case Maintainer::kLca:
      maintainer = std::make_unique<Checked<Lca>>(&ref, view);
      break;
    case Maintainer::kCompositeEca:
      maintainer = std::make_unique<Checked<CompositeEca>>(&ref, composite);
      options.view_evaluator = [composite](const Catalog& catalog) {
        return composite->Evaluate(catalog);
      };
      break;
  }
  ViewMaintainer* m = maintainer.get();
  Result<std::unique_ptr<Simulation>> sim = Simulation::Create(
      s.workload.initial, view, std::move(maintainer), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  if (!sim.ok()) {
    return {0, 0};
  }
  (*sim)->SetUpdateScript(s.updates);
  Status run = Status::OK();
  if (seed == 0) {
    WorstCasePolicy policy;
    run = RunToQuiescence(sim->get(), &policy);
  } else {
    RandomPolicy policy(seed);
    run = RunToQuiescence(sim->get(), &policy);
  }
  EXPECT_TRUE(run.ok()) << run;
  EXPECT_TRUE(m->IsQuiescent());
  if (const auto* local = dynamic_cast<const EcaLocal*>(m)) {
    // The reference models the compensated path only.
    EXPECT_EQ(local->local_updates(), 0);
  }
  Result<Relation> truth = (*sim)->SourceViewNow();
  EXPECT_TRUE(truth.ok()) << truth.status();
  EXPECT_EQ((*sim)->warehouse_view(), *truth);
  EXPECT_EQ((*sim)->warehouse_view(), ref.mv());
  EXPECT_TRUE(ref.collect().IsEmpty());
  return {ref.folded(), ref.queries()};
}

class CompensationDifferentialTest
    : public ::testing::TestWithParam<Maintainer> {};

TEST_P(CompensationDifferentialTest, ShipsTheFullUqsQueriesOnExample6) {
  const Scenario s = MakeExample6();
  for (uint64_t seed = 0; seed <= 20; ++seed) {
    RunOne(s, GetParam(), seed);
  }
}

TEST_P(CompensationDifferentialTest, ShipsTheFullUqsQueriesOnAFourChain) {
  const Scenario s = MakeChain4();
  for (uint64_t seed = 0; seed <= 20; ++seed) {
    RunOne(s, GetParam(), seed);
  }
}

TEST_P(CompensationDifferentialTest, WorstCaseFoldsAndCompensates) {
  // The worst case must exercise both halves of the construction, or the
  // comparison above proves nothing: compensating queries reach the
  // source, and (except under LCA) fully-bound terms are folded locally.
  for (const Scenario& s : {MakeExample6(), MakeChain4()}) {
    auto [folded, queries] = RunOne(s, GetParam(), /*seed=*/0);
    EXPECT_EQ(queries, static_cast<int64_t>(s.updates.size())) << s.name;
    if (GetParam() == Maintainer::kLca) {
      EXPECT_EQ(folded, 0) << s.name;
    } else {
      EXPECT_GT(folded, 0) << s.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Maintainers, CompensationDifferentialTest,
    ::testing::Values(Maintainer::kEca, Maintainer::kEcaLocal,
                      Maintainer::kLca, Maintainer::kCompositeEca),
    [](const ::testing::TestParamInfo<Maintainer>& info) {
      return Name(info.param);
    });

}  // namespace
}  // namespace wvm
