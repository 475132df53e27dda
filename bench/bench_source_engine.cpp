// The concurrent source query engine, quantified: the cross-query term
// cache (incrementally patched under updates) and parallel snapshot
// evaluation of pending query batches, measured against the paper's plain
// serial no-caching source.
//
// The workload regime is hot-tuple churn: updates cycle insert/delete over
// a small pool of tuples per relation, so the compensating queries the ECA
// family sends keep re-deriving the same term shapes. Under the worst-case
// interleaving every update precedes every answer, which maximizes both
// compensation (many repeated shapes per query) and the number of pending
// queries a batch can fan out. RV's periodic recomputation shows the patch
// path: its recompute terms have one shape, patched in place as updates
// land instead of being re-read from disk.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/strings.h"
#include "harness.h"

namespace wvm::bench {
namespace {

CaseConfig ChurnCase(Algorithm algorithm, Order order, bool engine_on) {
  CaseConfig config;
  config.algorithm = algorithm;
  config.cardinality = 94;  // keep I at 5, as the ablation benches do
  config.k = 24;
  config.stream = Stream::kChurn;
  config.churn_pool = 4;
  config.order = order;
  config.term_cache.enabled = engine_on;
  config.parallel_source_answers = engine_on;
  return config;
}

struct Cell {
  CaseResult off;
  CaseResult on;
};

Result<Cell> RunPair(CaseConfig config) {
  Cell cell;
  CaseConfig off = config;
  off.term_cache.enabled = false;
  off.parallel_source_answers = false;
  WVM_ASSIGN_OR_RETURN(cell.off, RunCase(off));
  WVM_ASSIGN_OR_RETURN(cell.on, RunCase(config));
  return cell;
}

std::string Ratio(int64_t off, int64_t on) {
  if (on <= 0) {
    return "inf";
  }
  return StrCat(Num(static_cast<double>(off) / static_cast<double>(on)), "x");
}

bool PrintFigure(JsonReport* report) {
  PrintTableHeader(
      "Source engine: term cache + parallel batches (churn, k=24)",
      {"case", "IO off", "IO on", "speedup", "hits", "patches", "consist"});

  struct Row {
    const char* name;
    CaseConfig config;
  };
  std::vector<Row> rows;
  rows.push_back({"eca/worst", ChurnCase(Algorithm::kEca, Order::kWorst,
                                         /*engine_on=*/true)});
  rows.push_back({"eca/random", ChurnCase(Algorithm::kEca, Order::kRandom,
                                          /*engine_on=*/true)});
  {
    Row r{"eca-key/worst", ChurnCase(Algorithm::kEcaKey, Order::kWorst,
                                     /*engine_on=*/true)};
    r.config.keyed_workload = true;
    rows.push_back(r);
  }
  {
    // RV recomputes the whole view every update: one term shape for the
    // entire run, kept current purely by delta patches after the first
    // fill.
    Row r{"rv/patching", ChurnCase(Algorithm::kRv, Order::kBest,
                                   /*engine_on=*/true)};
    r.config.parallel_source_answers = false;  // isolate the patch path
    rows.push_back(r);
  }

  bool all_ok = true;
  for (const Row& row : rows) {
    Result<Cell> cell = RunPair(row.config);
    if (!cell.ok()) {
      std::cerr << "run failed: " << cell.status() << "\n";
      all_ok = false;
      continue;
    }
    const CaseResult& off = cell->off;
    const CaseResult& on = cell->on;
    const bool consistent = off.convergent && on.convergent &&
                            off.final_view_size == on.final_view_size;
    all_ok = all_ok && consistent;
    PrintTableRow({row.name, Num(static_cast<double>(off.io)),
                   Num(static_cast<double>(on.io)), Ratio(off.io, on.io),
                   Num(static_cast<double>(on.term_cache_hits)),
                   Num(static_cast<double>(on.term_cache_patches)),
                   consistent ? "yes" : "NO"});
    report->Begin(StrCat("source_engine/", row.name));
    report->Metric("io_off", off.io);
    report->Metric("io_on", on.io);
    report->Metric("io_speedup",
                   on.io > 0
                       ? static_cast<double>(off.io) /
                             static_cast<double>(on.io)
                       : static_cast<double>(off.io));
    report->Metric("wall_seconds_off", off.wall_seconds);
    report->Metric("wall_seconds_on", on.wall_seconds);
    report->Metric("cache_hits", on.term_cache_hits);
    report->Metric("cache_misses", on.term_cache_misses);
    report->Metric("cache_patches", on.term_cache_patches);
    report->Metric("cache_evictions", on.term_cache_evictions);
    report->Metric("cache_patch_reads", on.term_cache_patch_reads);
    report->Metric("answers_match", static_cast<int64_t>(consistent ? 1 : 0));
  }
  std::cout << "(engine on = cross-query term cache + parallel batch "
               "answers; 'IO' is the paper's\n page-read meter — patch "
               "reads are metered separately — and 'consist' checks the\n "
               "warehouse converged to the same view either way)\n";
  if (!all_ok) {
    std::cerr << "error: at least one cell failed or diverged\n";
  }
  return all_ok;
}

void BM_SourceEngine(benchmark::State& state) {
  const bool engine_on = state.range(0) != 0;
  for (auto _ : state) {
    CaseConfig config =
        ChurnCase(Algorithm::kEca, Order::kWorst, engine_on);
    Result<CaseResult> r = RunCase(config);
    if (!r.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    benchmark::DoNotOptimize(r->io);
    state.counters["IO"] = static_cast<double>(r->io);
    state.counters["hits"] = static_cast<double>(r->term_cache_hits);
  }
}
BENCHMARK(BM_SourceEngine)->ArgNames({"engine"})->Arg(0)->Arg(1);

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
