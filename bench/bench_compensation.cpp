// How compensation construction scales with the number of updates in
// flight. Example 6 (C=100, J=4, Scenario-1 indexes, S=4 bytes), k mixed
// updates (35% deletes, seed 17), plain ECA, record_states off. Under the
// worst schedule every query compensates every earlier one, so the work of
// building Q_i = V<U_i> - sum_{Q_j in UQS} Q_j<U_i> dominates; the best
// schedule never has more than one query in flight.
//
// Each row runs in a child process capped at 2 GB of address space, so its
// peak RSS is its own and a row that outgrows the cap fails alone:
//
//   ./build/bench/bench_compensation          # k = 100..800
//   ./build/bench/bench_compensation --k=100  # CI smoke
//
// Columns: wall time of RunToQuiescence alone, peak RSS, generated terms
// (every term compensation built, including the fully-bound ones the
// warehouse folds locally), shipped terms (what crossed the wire), and
// query messages. The exit status is nonzero if any row fails to finish or
// ends with a warehouse view that differs from the view over the source.
// WVM_BENCH_JSON=<path> also writes the table as JSON. Rows run with one
// evaluation thread unless WVM_THREADS is set.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/eca.h"
#include "harness.h"
#include "sim/policies.h"
#include "sim/simulation.h"
#include "workload/generator.h"

namespace wvm::bench {
namespace {

constexpr uint64_t kSeed = 17;
constexpr int kOutOfMemory = 3;
constexpr rlim_t kAddressSpaceCapBytes = rlim_t{2048} << 20;

// What a row's child process reports back, through shared memory.
struct Measured {
  double wall_s = 0;
  int64_t generated_terms = 0;
  int64_t shipped_terms = 0;
  int64_t queries = 0;
  bool view_matches = false;
};

struct Row {
  std::string policy;
  int64_t k = 0;
  Measured m;
  double peak_rss_mb = 0;
  std::string failure;
};

// ECA that tallies each query's generated size: UQS ids only grow, so the
// newest entry after OnUpdate is the query this update stored. (On
// Example 6 every update ships a query, so every query is counted.)
class CountingEca : public Eca {
 public:
  using Eca::Eca;

  Status OnUpdate(const Update& u, WarehouseContext* ctx) override {
    WVM_RETURN_IF_ERROR(Eca::OnUpdate(u, ctx));
    if (!uqs().empty() && uqs().rbegin()->first > last_counted_) {
      last_counted_ = uqs().rbegin()->first;
      generated_ += static_cast<int64_t>(uqs().rbegin()->second.NumTerms());
    }
    return Status::OK();
  }

  int64_t generated() const { return generated_; }

 private:
  uint64_t last_counted_ = 0;
  int64_t generated_ = 0;
};

Status RunRow(const std::string& policy_name, int64_t k, Measured* out) {
  Random rng(kSeed);
  WVM_ASSIGN_OR_RETURN(Workload w, MakeExample6Workload({100, 4}, &rng));
  WVM_ASSIGN_OR_RETURN(std::vector<Update> updates,
                       MakeMixedUpdates(w, k, 0.35, &rng));
  SimulationOptions options;
  options.bytes_per_tuple = 4;
  options.physical.scenario = PhysicalScenario::kIndexedMemory;
  options.indexes = w.scenario1_indexes;
  options.instrument.record_states = false;
  auto maintainer = std::make_unique<CountingEca>(w.view);
  const CountingEca* eca = maintainer.get();
  WVM_ASSIGN_OR_RETURN(std::unique_ptr<Simulation> sim,
                       Simulation::Create(w.initial, w.view,
                                          std::move(maintainer), options));
  sim->SetUpdateScript(std::move(updates));

  std::unique_ptr<Policy> policy;
  if (policy_name == "worst") {
    policy = std::make_unique<WorstCasePolicy>();
  } else if (policy_name == "best") {
    policy = std::make_unique<BestCasePolicy>();
  } else {
    policy = std::make_unique<RandomPolicy>(kSeed);
  }
  const auto start = std::chrono::steady_clock::now();
  WVM_RETURN_IF_ERROR(RunToQuiescence(sim.get(), policy.get()));
  out->wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

  WVM_ASSIGN_OR_RETURN(Relation truth, sim->SourceViewNow());
  out->view_matches = sim->warehouse_view() == truth;
  out->generated_terms = eca->generated();
  out->shipped_terms = sim->meter().query_terms();
  out->queries = sim->meter().query_messages();
  return Status::OK();
}

// Runs `row` in a child process whose address space is capped at
// kAddressSpaceCapBytes.
void RunInChild(Row* row) {
  void* shared = mmap(nullptr, sizeof(Measured), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    row->failure = "mmap failed";
    return;
  }
  Measured* measured = new (shared) Measured();
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    const rlimit lim{kAddressSpaceCapBytes, kAddressSpaceCapBytes};
    setrlimit(RLIMIT_AS, &lim);
    int code = 0;
    try {
      Status s = RunRow(row->policy, row->k, measured);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        code = 2;
      }
    } catch (const std::bad_alloc&) {
      code = kOutOfMemory;
    }
    _exit(code);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || wait4(pid, &status, 0, &usage) != pid) {
    row->failure = "could not run the child process";
  } else if (WIFSIGNALED(status)) {
    row->failure = "killed by signal " + std::to_string(WTERMSIG(status));
  } else if (WEXITSTATUS(status) == kOutOfMemory) {
    row->failure = "over the memory bound";
  } else if (WEXITSTATUS(status) != 0) {
    row->failure = "failed (see stderr)";
  } else if (!measured->view_matches) {
    row->failure = "final view differs from the source view";
  }
  row->m = *measured;
  row->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  munmap(shared, sizeof(Measured));
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> policies = {"worst", "best", "random"};
  std::vector<int64_t> ks = {100, 200, 400, 800};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--k=")) {
      ks.clear();
      for (const std::string& k : SplitList(v)) {
        ks.push_back(std::atoll(k.c_str()));
      }
    } else {
      std::fprintf(stderr, "usage: %s [--k=100,200,400,800]\n", argv[0]);
      return 2;
    }
  }
  for (int64_t k : ks) {
    if (k <= 0) {
      std::fprintf(stderr, "k must be positive\n");
      return 2;
    }
  }
  setenv("WVM_THREADS", "1", /*overwrite=*/0);

  std::printf("%-7s %6s %10s %12s %16s %14s %8s  %s\n", "policy", "k",
              "wall_s", "peak_rss_mb", "generated_terms", "shipped_terms",
              "queries", "view");
  JsonReport json;
  bool all_ok = true;
  for (const std::string& policy : policies) {
    for (int64_t k : ks) {
      Row row;
      row.policy = policy;
      row.k = k;
      RunInChild(&row);
      const bool ok = row.failure.empty();
      all_ok = all_ok && ok;
      std::printf("%-7s %6lld %10.3f %12.1f %16lld %14lld %8lld  %s\n",
                  policy.c_str(), static_cast<long long>(k), row.m.wall_s,
                  row.peak_rss_mb,
                  static_cast<long long>(row.m.generated_terms),
                  static_cast<long long>(row.m.shipped_terms),
                  static_cast<long long>(row.m.queries),
                  ok ? "ok" : row.failure.c_str());
      std::fflush(stdout);
      json.Begin("compensation/" + policy + "/k=" + std::to_string(k));
      json.Metric("finished", static_cast<int64_t>(ok ? 1 : 0));
      json.Metric("wall_s", row.m.wall_s);
      json.Metric("peak_rss_mb", row.peak_rss_mb);
      json.Metric("generated_terms", row.m.generated_terms);
      json.Metric("shipped_terms", row.m.shipped_terms);
      json.Metric("queries", row.m.queries);
    }
  }
  json.WriteFileFromEnv();
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace wvm::bench

int main(int argc, char** argv) { return wvm::bench::Main(argc, argv); }
