// Shared maintenance for multi-view warehouses, quantified: N children
// maintain N views over one source through one warehouse, and a fraction
// `overlap` of them are structural twins of the hot keyed view. The sweep
// compares three source/warehouse configurations per (N, overlap) cell:
//
//   independent  every child sends its own compensating queries (the
//                pre-multi-view baseline: M and B grow linearly in N);
//   dedup        cross-view delta-query dedup folds the structurally
//                identical terms of one update event into one shared
//                query and fans the answers back per child;
//   shared       dedup plus the source term cache with auxiliary-view
//                promotion (hot shared subexpressions become first-class
//                incrementally-patched views), the full shared-maintenance
//                stack.
//
// The update stream is hot-tuple churn, so term shapes also repeat ACROSS
// update events — the regime where promotion pays. Every run is checked
// child-by-child against a from-scratch evaluation of its view, so the
// table only reports savings on runs that converged to the truth.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "core/eca.h"
#include "core/multi_view.h"
#include "harness.h"
#include "query/evaluator.h"
#include "relational/predicate.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

namespace wvm::bench {
namespace {

struct MultiViewResult {
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t page_reads = 0;
  int64_t deduped_terms = 0;
  int64_t promotions = 0;
  int64_t aux_hits = 0;
  bool answers_match = false;
};

// Builds the N views: `hot` structural twins of the keyed view (distinct
// ViewDefinition objects, identical structure — the cross-view sharing
// target), and N-hot structurally unique views distinguished by a
// never-false selection constant (W != 10^6+i keeps the answer identical
// while giving each view its own structure key, so nothing dedups).
Result<std::vector<ViewDefinitionPtr>> MakeOverlappingViews(
    const Workload& workload, int num_views, double overlap) {
  const int hot = static_cast<int>(std::lround(num_views * overlap));
  std::vector<ViewDefinitionPtr> views;
  views.reserve(num_views);
  for (int i = 0; i < num_views; ++i) {
    if (i < hot) {
      WVM_ASSIGN_OR_RETURN(
          ViewDefinitionPtr v,
          ViewDefinition::NaturalJoin(StrCat("H", i), workload.defs,
                                      {"W", "Y"}));
      views.push_back(std::move(v));
    } else {
      WVM_ASSIGN_OR_RETURN(
          ViewDefinitionPtr v,
          ViewDefinition::NaturalJoin(
              StrCat("U", i), workload.defs, {"W", "Y"},
              Predicate::Compare(Operand::Attr("W"), CompareOp::kNe,
                                 Operand::ConstInt(1000000 + i))));
      views.push_back(std::move(v));
    }
  }
  return views;
}

Result<MultiViewResult> RunMultiView(int num_views, double overlap,
                                     bool dedup,
                                     const TermCacheConfig& cache,
                                     uint64_t seed) {
  Random rng(seed);
  WVM_ASSIGN_OR_RETURN(Workload workload,
                       MakeKeyedWorkload({/*c=*/40, /*j=*/3}, &rng));
  WVM_ASSIGN_OR_RETURN(std::vector<ViewDefinitionPtr> views,
                       MakeOverlappingViews(workload, num_views, overlap));
  WVM_ASSIGN_OR_RETURN(
      std::vector<Update> updates,
      MakeChurnUpdates(workload, /*k=*/12, /*pool_size=*/2, &rng));

  std::vector<std::unique_ptr<ViewMaintainer>> children;
  children.reserve(views.size());
  for (const ViewDefinitionPtr& v : views) {
    children.push_back(std::make_unique<Eca>(v));
  }
  MultiViewOptions mv_options;
  mv_options.dedup = dedup;
  auto multi_owner =
      std::make_unique<MultiViewWarehouse>(std::move(children), mv_options);
  MultiViewWarehouse* multi = multi_owner.get();

  SimulationOptions options;
  options.bytes_per_tuple = 4;
  options.term_cache = cache;
  options.indexes = workload.scenario1_indexes;
  WVM_ASSIGN_OR_RETURN(
      std::unique_ptr<Simulation> sim,
      Simulation::Create(workload.initial, views[0], std::move(multi_owner),
                         options));
  sim->SetUpdateScript(std::move(updates));
  // Random interleaving: updates and answers overlap, so compensating
  // terms repeat shapes ACROSS query events (the cross-event repetition
  // promotion feeds on), unlike the worst-case order's single batch.
  RandomPolicy policy(seed);
  WVM_RETURN_IF_ERROR(RunToQuiescence(sim.get(), &policy));

  MultiViewResult result;
  result.messages = sim->meter().messages();
  result.bytes = sim->meter().bytes_transferred();
  result.page_reads = sim->io_stats().page_reads;
  result.deduped_terms = sim->meter().deduped_query_terms();
  result.promotions = sim->io_stats().term_cache_promotions;
  result.aux_hits = sim->io_stats().term_cache_aux_hits;
  result.answers_match = multi->IsQuiescent();
  for (size_t i = 0; i < views.size(); ++i) {
    WVM_ASSIGN_OR_RETURN(Relation expected,
                         EvaluateView(views[i], sim->source_catalog()));
    result.answers_match =
        result.answers_match && multi->child(i).view_contents() == expected;
  }
  return result;
}

TermCacheConfig SharedCache() {
  TermCacheConfig cache;
  cache.enabled = true;
  cache.capacity = 256;
  cache.promote = true;
  cache.promote_min_hits = 2;
  // With dedup upstream the source sees each shared term once per event
  // (one consumer view), so cross-view popularity shows up as HITS, not
  // as distinct consumers.
  cache.promote_min_views = 1;
  cache.demote_after_updates = 64;
  return cache;
}

bool PrintFigure(JsonReport* report) {
  PrintTableHeader(
      "Multi-view shared maintenance (churn k=12, random order)",
      {"N/overlap", "config", "msgs", "bytes", "reads", "dedup", "promo",
       "ok"});
  bool all_ok = true;
  for (int num_views : {20, 50, 100}) {
    for (double overlap : {0.0, 0.5, 0.75, 1.0}) {
      struct Cfg {
        const char* name;
        bool dedup;
        TermCacheConfig cache;
      };
      const std::vector<Cfg> configs = {
          {"independent", false, TermCacheConfig()},
          {"dedup", true, TermCacheConfig()},
          {"shared", true, SharedCache()},
      };
      MultiViewResult baseline;
      for (const Cfg& cfg : configs) {
        Result<MultiViewResult> r =
            RunMultiView(num_views, overlap, cfg.dedup, cfg.cache, /*seed=*/17);
        if (!r.ok()) {
          std::cerr << "run failed: " << r.status() << "\n";
          all_ok = false;
          continue;
        }
        all_ok = all_ok && r->answers_match;
        const std::string cell =
            StrCat(num_views, "/", Num(overlap * 100), "%");
        if (std::string(cfg.name) == "independent") {
          baseline = *r;
        }
        PrintTableRow({cell, cfg.name, Num(static_cast<double>(r->messages)),
                       Num(static_cast<double>(r->bytes)),
                       Num(static_cast<double>(r->page_reads)),
                       Num(static_cast<double>(r->deduped_terms)),
                       Num(static_cast<double>(r->promotions)),
                       r->answers_match ? "yes" : "NO"});
        report->Begin(StrCat("multi_view/n", num_views, "_ov",
                             static_cast<int>(overlap * 100), "/", cfg.name));
        report->Metric("views", static_cast<int64_t>(num_views));
        report->Metric("overlap", overlap);
        report->Metric("messages", r->messages);
        report->Metric("bytes", r->bytes);
        report->Metric("page_reads", r->page_reads);
        report->Metric("deduped_terms", r->deduped_terms);
        report->Metric("promotions", r->promotions);
        report->Metric("aux_hits", r->aux_hits);
        report->Metric("answers_match",
                       static_cast<int64_t>(r->answers_match ? 1 : 0));
        if (std::string(cfg.name) != "independent") {
          report->Metric("message_reduction",
                         r->messages > 0 ? static_cast<double>(
                                               baseline.messages) /
                                               static_cast<double>(r->messages)
                                         : 0.0);
          report->Metric("bytes_reduction",
                         r->bytes > 0 ? static_cast<double>(baseline.bytes) /
                                            static_cast<double>(r->bytes)
                                      : 0.0);
          report->Metric(
              "read_reduction",
              r->page_reads > 0
                  ? static_cast<double>(baseline.page_reads) /
                        static_cast<double>(r->page_reads)
                  : 0.0);
        }
      }
    }
  }
  std::cout << "('dedup' counts the per-event query terms folded into "
               "shared terms; 'promo'\n counts term-cache entries promoted "
               "to auxiliary views; 'ok' checks every\n child's final view "
               "against a from-scratch evaluation)\n";
  if (!all_ok) {
    std::cerr << "error: at least one cell failed or diverged\n";
  }
  return all_ok;
}

void BM_MultiView(benchmark::State& state) {
  const int num_views = static_cast<int>(state.range(0));
  const bool dedup = state.range(1) != 0;
  for (auto _ : state) {
    Result<MultiViewResult> r = RunMultiView(
        num_views, /*overlap=*/0.5, dedup,
        dedup ? SharedCache() : TermCacheConfig(), /*seed=*/17);
    if (!r.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    benchmark::DoNotOptimize(r->bytes);
    state.counters["bytes"] = static_cast<double>(r->bytes);
    state.counters["reads"] = static_cast<double>(r->page_reads);
  }
}
BENCHMARK(BM_MultiView)
    ->ArgNames({"views", "shared"})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({50, 0})
    ->Args({50, 1});

}  // namespace
}  // namespace wvm::bench

int main(int argc, char** argv) {
  wvm::bench::JsonReport report;
  const bool ok = wvm::bench::PrintFigure(&report);
  report.WriteFileFromEnv();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
