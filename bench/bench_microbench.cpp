// Micro-benchmarks of the core data structures: the signed-relation
// algebra and the join machinery every algorithm sits on. Not a paper
// figure — engineering telemetry for the substrate (throughput per
// operation at realistic sizes).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "query/compiled_plan.h"
#include "query/evaluator.h"
#include "relational/algebra.h"
#include "workload/generator.h"

namespace wvm::bench {
namespace {

Relation RandomRelation(int64_t rows, int64_t domain, uint64_t seed) {
  Random rng(seed);
  Relation r(Schema::Ints({"a", "b"}));
  for (int64_t i = 0; i < rows; ++i) {
    r.Insert(Tuple::Ints({rng.UniformRange(0, domain - 1),
                          rng.UniformRange(0, domain - 1)}));
  }
  return r;
}

void BM_RelationInsert(benchmark::State& state) {
  Random rng(1);
  const int64_t n = state.range(0);
  for (auto _ : state) {
    Relation r(Schema::Ints({"a", "b"}));
    for (int64_t i = 0; i < n; ++i) {
      r.Insert(Tuple::Ints({i % 97, i}));
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RelationInsert)->Arg(1000)->Arg(10000);

void BM_RelationAdd(benchmark::State& state) {
  Relation a = RandomRelation(state.range(0), 64, 1);
  Relation b = RandomRelation(state.range(0), 64, 2);
  for (auto _ : state) {
    Relation sum = a + b;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationAdd)->Arg(1000)->Arg(10000);

void BM_NaturalJoin(benchmark::State& state) {
  // r1(W,X) |x| r2(X,Y), join factor ~rows/domain.
  Random rng(3);
  const int64_t rows = state.range(0);
  const int64_t domain = rows / 4;
  Relation r1(Schema::Ints({"W", "X"}));
  Relation r2(Schema::Ints({"X", "Y"}));
  for (int64_t i = 0; i < rows; ++i) {
    r1.Insert(Tuple::Ints({i, rng.UniformRange(0, domain - 1)}));
    r2.Insert(Tuple::Ints({rng.UniformRange(0, domain - 1), i}));
  }
  for (auto _ : state) {
    Result<Relation> joined = NaturalJoin(r1, r2);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(5000);

void BM_ViewEvaluationChain(benchmark::State& state) {
  Random rng(4);
  Result<Workload> w = MakeExample6Workload(
      {/*cardinality=*/state.range(0), /*join_factor=*/4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Relation> v = EvaluateView(w->view, w->initial);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ViewEvaluationChain)->Arg(100)->Arg(1000)->Arg(5000);

void BM_SubstitutedTermEvaluation(benchmark::State& state) {
  Random rng(5);
  Result<Workload> w = MakeExample6Workload({state.range(0), 4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  Term t = *Term::FromView(w->view).Substitute(
      Update::Insert("r1", Tuple::Ints({7, 3})));
  for (auto _ : state) {
    Result<Relation> r = EvaluateTerm(t, w->initial);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SubstitutedTermEvaluation)->Arg(1000)->Arg(10000);

// One-time compilation cost per (view, bound-mask) shape — the price paid
// at view registration, amortized over every later delta evaluation.
void BM_CompiledPlanCompile(benchmark::State& state) {
  Random rng(6);
  Result<Workload> w = MakeExample6Workload({100, 4}, &rng);
  if (!w.ok()) {
    state.SkipWithError(w.status().ToString().c_str());
    return;
  }
  uint64_t mask = 0;
  for (auto _ : state) {
    Result<CompiledDeltaPlan> plan =
        CompiledDeltaPlan::Compile(*w->view, mask % 4);
    benchmark::DoNotOptimize(plan);
    ++mask;
  }
}
BENCHMARK(BM_CompiledPlanCompile);

}  // namespace
}  // namespace wvm::bench

BENCHMARK_MAIN();
