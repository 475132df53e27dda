// Runs one named workload for a fixed wall-time budget and prints every
// metric by name and unit, then one JSON result line:
//
//   perfbench --workload steady --seed 17 --seconds 10 --trace 0
//             [--work-dir DIR] [--spans-out FILE]
//
// A run repeats rounds (generate, create, run to quiescence, gate) over
// WorkloadSpec::datasets inputs derived from the seed, so it averages over
// more than one draw of the data. Every round must reproduce the counters
// of the first round on the same input. The first round only warms the
// process up; each later round gives one value of every timed metric and
// the run reports their median. With --trace 0 every round is untraced and
// the run reports the end-to-end metrics. With --trace 1 untraced and traced
// rounds alternate on each input and the run reports the per-layer metrics;
// the spans of the last traced round go to --spans-out.
//
// Every time a round measures is divided by the machine's slowdown, which
// a SpeedProbe measures just before and just after the round, so the
// reported times are those of the nominal machine (see speed.h).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver.h"
#include "speed.h"

namespace wvm::perfbench {
namespace {


struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / v.size();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Hands freed memory back to the kernel and restarts the kernel's
/// resident-set high-water mark, so the next PeakRssMb() covers one round
/// as if it ran in a fresh process. Where the kernel cannot reset the mark,
/// PeakRssMb() reports the process-wide peak.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The resident-set high-water mark, less `excluded_bytes` that belong to
/// the benchmark rather than to the round.
double PeakRssMb(int64_t excluded_bytes) {
  const double excluded_mb = excluded_bytes / (1024.0 * 1024.0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0 -  // kB
             excluded_mb;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0 - excluded_mb;  // KiB on Linux
}

/// Metrics in report order, each printed as a line and into the JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    entries_.push_back({name, value, unit});
  }

  void PrintLines() const {
    for (const Entry& e : entries_) {
      std::printf("%-34s %18.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "" : ", ");
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// One round plus how it was run.
struct Ran {
  RoundOptions options;
  RoundResult result;
  bool recording = false;
  /// The first round of a run warms the process up (first-touch page
  /// faults, allocator growth); it is gated but not timed.
  bool warmup = false;
  int dataset = 0;
  double peak_rss_mb = 0;
  /// The machine's slowdown around the round; its times are divided by it.
  double slowdown = 1;
};

/// Turns the round's measured times into times on the nominal machine.
void Rescale(double slowdown, RoundResult* r) {
  const double f = 1 / slowdown;
  r->generate_s *= f;
  r->create_s *= f;
  r->wall_s *= f;
  r->check_s *= f;
  for (std::vector<double>* samples : {&r->install_us, &r->head_us}) {
    for (double& us : *samples) {
      if (us >= 0) {
        us *= f;
      }
    }
  }
  for (Span& span : r->spans) {
    span.start_ns = std::llround(span.start_ns * f);
    span.end_ns = std::llround(span.end_ns * f);
  }
}

double UpdatesPerSecond(const RoundResult& r) {
  return Ratio(static_cast<double>(r.counters.updates), r.wall_s);
}

bool CountsInRun(const Ran& ran, Layer layer) {
  // The verdict is part of the run only where it is part of the work.
  return layer != Layer::kConsistencyCheck || ran.recording;
}

double BusySeconds(const Ran& ran, bool steps_only) {
  int64_t ns = 0;
  for (const Span& s : ran.result.spans) {
    if (steps_only ? s.layer != Layer::kConsistencyCheck
                   : CountsInRun(ran, s.layer)) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return ns / 1e9;
}

/// One value per timed round, grouped by input.
class PerInput {
 public:
  explicit PerInput(int datasets) : values_(datasets) {}

  void Add(int dataset, double value) { values_[dataset].push_back(value); }

  /// Each input's median over its rounds, so an input that happened to
  /// run twice weighs no more than the others; then the mean of the middle
  /// half of those medians. Inputs differ widely on some metrics (peak RSS
  /// on `checked` spans 210-415 MB), and the interquartile mean of N
  /// inputs varies less from seed to seed than their median does.
  double Center() const {
    std::vector<double> medians;
    for (const std::vector<double>& v : values_) {
      if (!v.empty()) {
        medians.push_back(perfbench::Median(v));
      }
    }
    std::sort(medians.begin(), medians.end());
    const size_t quarter = medians.size() / 4;
    return Mean(std::vector<double>(medians.begin() + quarter,
                                    medians.end() - quarter));
  }

 private:
  std::vector<std::vector<double>> values_;
};

void AddEndToEnd(const WorkloadSpec& spec, const std::vector<Ran>& rounds,
                 Report* report) {
  // Each timed round gives one value of every timed metric; medians over
  // each input's rounds keep a transient stall from moving the result.
  PerInput rates(spec.datasets), setup(spec.datasets),
      install50(spec.datasets), install99(spec.datasets),
      head_mean(spec.datasets), head99(spec.datasets), rss(spec.datasets);
  // The paper's M, B and IO per update, over one round of every input.
  Counters c;
  std::vector<bool> counted(spec.datasets, false);
  size_t timed = 0;
  for (const Ran& ran : rounds) {
    if (ran.warmup) {
      continue;
    }
    ++timed;
    const RoundResult& r = ran.result;
    const int d = ran.dataset;
    rates.Add(d, UpdatesPerSecond(r));
    setup.Add(d, r.generate_s + r.create_s);
    rss.Add(d, ran.peak_rss_mb);
    install50.Add(d, Quantile(r.install_us, 0.5));
    install99.Add(d, Quantile(r.install_us, 0.99));
    // The head latency on `replicated` is bimodal, about half the updates
    // in each mode (replicas checkpoint every 8 applies, every 4 updates),
    // so its median would jump between the modes; the mean does not.
    head_mean.Add(d, Mean(r.head_us));
    head99.Add(d, Quantile(r.head_us, 0.99));
    if (!counted[d]) {
      counted[d] = true;
      c.updates += r.counters.updates;
      c.messages += r.counters.messages;
      c.bytes += r.counters.bytes;
      c.page_reads += r.counters.page_reads;
    }
  }
  const double k = static_cast<double>(c.updates);
  report->Add("updates_per_s", rates.Center(), "1/s");
  report->Add("install_p50_us", install50.Center(), "us");
  report->Add("install_p99_us", install99.Center(), "us");
  report->Add("head_mean_us", head_mean.Center(), "us");
  report->Add("head_p99_us", head99.Center(), "us");
  report->Add("msgs_per_update", Ratio(c.messages, k), "msg/update");
  report->Add("bytes_per_update", Ratio(c.bytes, k), "B/update");
  report->Add("io_per_update", Ratio(c.page_reads, k), "pages/update");
  report->Add("peak_rss_mb", rss.Center(), "MB");
  report->Add("setup_s", setup.Center(), "s");
  std::printf("# %s: %zu timed rounds of %lld updates (one install and one "
              "head sample each)\n",
              spec.name.c_str(), timed, static_cast<long long>(spec.updates));
}

/// Counts come from the first traced round, so they repeat exactly at a
/// seed; times are averaged per traced round over every input.
void AddPerLayer(const std::vector<Ran>& rounds, Report* report) {
  std::vector<const Ran*> traced, untraced, unrecorded;
  for (const Ran& ran : rounds) {
    if (ran.warmup) {
      continue;
    } else if (!ran.options.traced) {
      untraced.push_back(&ran);
    } else if (ran.options.record_states.has_value()) {
      unrecorded.push_back(&ran);
    } else {
      traced.push_back(&ran);
    }
  }
  const double n = static_cast<double>(traced.size());
  const Counters& c = traced.front()->result.counters;
  std::vector<double> generate, create, check, untraced_rates, traced_rates;
  for (const Ran& ran : rounds) {
    if (ran.warmup) {
      continue;
    }
    generate.push_back(ran.result.generate_s);
    create.push_back(ran.result.create_s);
    check.push_back(ran.result.check_s);
  }
  double wall = 0, busy_in_run = 0, steps = 0, page_reads = 0;
  for (const Ran* ran : traced) {
    wall += ran->result.wall_s;
    page_reads += ran->result.counters.page_reads;
    busy_in_run += BusySeconds(*ran, false);
    steps += BusySeconds(*ran, true);
    traced_rates.push_back(UpdatesPerSecond(ran->result));
  }
  for (const Ran* ran : untraced) {
    untraced_rates.push_back(UpdatesPerSecond(ran->result));
  }
  double unrecorded_steps = 0;
  for (const Ran* ran : unrecorded) {
    unrecorded_steps += BusySeconds(*ran, true);
  }

  report->Add("workload.generate_s", Median(generate), "s");
  report->Add("sim.create_s", Median(create), "s");
  double answer_busy_s = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const std::string name = LayerName(layer);
    std::vector<double> per_call;
    double busy = 0;
    for (const Ran* ran : traced) {
      for (const Span& s : ran->result.spans) {
        if (s.layer == layer) {
          per_call.push_back((s.end_ns - s.start_ns) / 1e3);
          busy += (s.end_ns - s.start_ns) / 1e9;
        }
      }
    }
    if (layer == Layer::kSourceAnswer) {
      answer_busy_s = busy;
    }
    if (layer == Layer::kConsistencyCheck) {
      continue;  // reported as consistency.check_s below
    }
    report->Add(name + ".calls", c.calls[l], "count");
    if (layer == Layer::kReplicationCatchUp) {
      continue;  // no workload rejoins; its count shows that stays true
    }
    report->Add(name + ".busy_s", busy / n, "s");
    report->Add(name + ".p50_us", Quantile(per_call, 0.5), "us");
    report->Add(name + ".p99_us", Quantile(per_call, 0.99), "us");
    report->Add(name + ".share", Ratio(busy, wall), "fraction");
  }
  report->Add("storage.page_reads", c.page_reads, "count");
  report->Add("storage.index_probes", c.index_probes, "count");
  report->Add("storage.full_scans", c.full_scans, "count");
  report->Add("storage.us_per_page_read",
              Ratio(answer_busy_s * 1e6, page_reads), "us");
  report->Add("core.uqs_peak", c.uqs_peak, "count");
  report->Add("core.uqs_peak_terms", c.uqs_peak_terms, "count");
  report->Add("channel.notifications", c.notifications, "count");
  report->Add("channel.messages", c.messages, "count");
  report->Add("channel.bytes", c.bytes, "B");
  report->Add("channel.query_terms", c.query_terms, "count");
  report->Add("transport.retransmits", c.retransmits, "count");
  report->Add("transport.acks", c.acks, "count");
  report->Add("transport.frames_dropped", c.frames_dropped, "count");
  report->Add("recovery.wal.appends", c.wal_appends, "count");
  report->Add("recovery.wal.appended_bytes", c.wal_appended_bytes, "B");
  report->Add("recovery.wal.flushes", c.wal_flushes, "count");
  report->Add("recovery.wal.segments_created", c.wal_segments_created, "count");
  report->Add("recovery.wal.segments_dropped", c.wal_segments_dropped, "count");
  report->Add("recovery.wal.bytes_per_update",
              Ratio(c.wal_appended_bytes, c.updates), "B/update");
  report->Add("replication.read.refused", c.reads_refused, "count");
  report->Add("consistency.check_s", Median(check), "s");
  report->Add("consistency.states", c.consistency_states, "count");
  // Without state recording the schedule is its own baseline.
  report->Add("consistency.tax",
              unrecorded.empty()
                  ? 1.0
                  : Ratio(steps / n, unrecorded_steps / unrecorded.size()),
              "ratio");
  report->Add("trace.overhead", Ratio(Median(untraced_rates),
                                      Median(traced_rates)),
              "ratio");
  report->Add("trace.unattributed_s", (wall - busy_in_run) / n, "s");
  report->Add("trace.attributed_share", Ratio(busy_in_run, wall), "fraction");
  std::vector<double> slowdowns;
  for (const Ran& ran : rounds) {
    if (!ran.warmup) {
      slowdowns.push_back(ran.slowdown);
    }
  }
  report->Add("machine.slowdown", Median(slowdowns), "ratio");
}

/// Writes the spans of one traced round as TSV: layer, start and end in
/// nanoseconds from the round's first step, causing update id.
void WriteSpans(const std::string& path, const RoundResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "layer\tstart_ns\tend_ns\tupdate_id\n";
  for (const Span& s : r.spans) {
    out << LayerName(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.update_id << '\n';
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans-out FILE]\n");
    return 2;
  }
  Result<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found.ok()) {
    std::fprintf(stderr, "%s\n", found.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *found;

  // The kinds of round a run cycles through on each input.
  std::vector<RoundOptions> kinds(1);
  if (args.trace) {
    kinds.resize(2);
    kinds[1].traced = true;
    if (spec.record_states) {
      kinds.push_back(kinds[1]);
      kinds[2].record_states = false;
    }
  }
  // At least one round of every kind, and with --trace 0 one round of
  // every input, whatever the budget.
  const size_t min_rounds =
      1 + kinds.size() * (args.trace ? 1 : spec.datasets);

  SpeedProbe probe;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<Ran> rounds;
  double longest_s = 0;
  for (size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= min_rounds && elapsed + longest_s > args.seconds) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    Ran ran;
    ran.warmup = i == 0;
    const size_t j = i == 0 ? 0 : i - 1;
    ran.dataset = static_cast<int>(j / kinds.size() % spec.datasets);
    ran.options = kinds[j % kinds.size()];
    ran.options.seed = args.seed * spec.datasets + ran.dataset;
    ran.options.work_dir = args.work_dir;
    ran.recording = ran.options.record_states.value_or(spec.record_states);
    const double slowdown_before = probe.Slowdown();
    ResetPeakRss();
    Result<RoundResult> result = RunRound(spec, ran.options);
    ran.peak_rss_mb = PeakRssMb(probe.resident_bytes());
    ran.slowdown = std::sqrt(slowdown_before * probe.Slowdown());
    if (!result.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    ran.result = std::move(*result);
    std::printf("# round %zu, input %d%s: %.1f updates/s, set-up %.4f s "
                "as measured; machine slowdown %.3f\n",
                i, ran.dataset,
                ran.warmup ? " (warm-up)"
                : ran.options.traced ? " (traced)" : "",
                UpdatesPerSecond(ran.result),
                ran.result.generate_s + ran.result.create_s, ran.slowdown);
    Rescale(ran.slowdown, &ran.result);
    rounds.push_back(std::move(ran));
    longest_s = std::max(
        longest_s,
        std::chrono::duration<double>(Clock::now() - round_start).count());
  }

  // Correctness: every gate of every round, then the determinism check.
  // A round attempts its whole script, even when an error stops it early.
  const int64_t ops = spec.updates + (spec.updates_per_read > 0
                                          ? spec.updates / spec.updates_per_read
                                          : 0);
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  for (const Ran& ran : rounds) {
    const RoundResult& r = ran.result;
    attempted += ops;
    const Ran* first = nullptr;
    for (const Ran& other : rounds) {
      if (other.dataset == ran.dataset && other.recording == ran.recording) {
        first = &other;
        break;
      }
    }
    std::string problem = r.failure;
    if (problem.empty() && !(r.counters == first->result.counters)) {
      problem = "counters differ from the first round on the same input";
    }
    if (!problem.empty()) {
      failed += ops;
      problems.push_back(problem);
    } else {
      failed += r.counters.reads_refused;
    }
  }
  for (const std::string& p : problems) {
    std::printf("# FAILED: %s\n", p.c_str());
  }

  Report report;
  if (args.trace) {
    AddPerLayer(rounds, &report);
    for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
      if (it->options.traced && !it->options.record_states.has_value()) {
        if (!args.spans_out.empty()) {
          WriteSpans(args.spans_out, it->result);
        }
        break;
      }
    }
  } else {
    AddEndToEnd(spec, rounds, &report);
  }
  report.PrintLines();
  std::printf("%-34s %18.6f %s\n", "fail_rate",
              Ratio(static_cast<double>(failed), attempted), "fraction");
  const bool correct = failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), report.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wvm::perfbench

int main(int argc, char** argv) {
  return wvm::perfbench::Main(argc, argv);
}
