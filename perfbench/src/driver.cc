#include "driver.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/strings.h"
#include "consistency/checker.h"
#include "core/eca.h"
#include "core/factory.h"
#include "replication/replicated_simulation.h"
#include "sim/simulation.h"
#include "workload/generator.h"

namespace wvm::perfbench {

namespace {

constexpr int64_t kJoinFactor = 4;
constexpr double kDeleteFraction = 0.5;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<WorkloadSpec> AllWorkloads() {
  WorkloadSpec steady;
  steady.name = "steady";
  steady.schedule = Schedule::kSteady;
  steady.cardinality = 10000;
  steady.updates = 2000;

  WorkloadSpec burst;
  burst.name = "burst";
  burst.schedule = Schedule::kBurst;
  burst.cardinality = 1000;
  burst.updates = 512;
  burst.burst = 128;

  WorkloadSpec checked;
  checked.name = "checked";
  checked.schedule = Schedule::kSteady;
  checked.cardinality = 100;
  checked.updates = 1000;
  checked.record_states = true;
  // At C=100 the per-input cost varies most, and rounds are short.
  checked.datasets = 16;

  WorkloadSpec replicated;
  replicated.name = "replicated";
  replicated.schedule = Schedule::kReplicated;
  replicated.cardinality = 1000;
  replicated.updates = 1000;
  replicated.replicas = 2;
  replicated.drop_rate = 0.05;
  replicated.lead_checkpoint_every = 256;
  replicated.updates_per_read = 2;
  replicated.updates_per_heartbeat = 100;

  return {steady, burst, checked, replicated};
}

/// One message in flight on a FIFO link, as the bench mirrors it: which
/// update's path it belongs to, and whether it is an answer.
struct Mirrored {
  bool is_answer = false;
  uint64_t update_id = 0;
};

/// Drives one built system to quiescence under the workload's schedule,
/// choosing every event from simulation state only. `rep` is null for the
/// single-site workloads; `lead` is always the simulation whose source and
/// warehouse execute the updates.
class RoundDriver {
 public:
  RoundDriver(const WorkloadSpec& spec, const RoundOptions& options,
              Simulation* lead, ReplicatedSimulation* rep,
              RoundResult* result)
      : spec_(spec),
        options_(options),
        lead_(lead),
        rep_(rep),
        result_(result),
        eca_(dynamic_cast<const Eca*>(&lead->maintainer())),
        updates_start_ns_(spec.updates, -1) {
    result_->install_us.assign(spec.updates, -1);
    result_->head_us.assign(spec.updates, -1);
  }

  /// Runs the schedule; the first error stops it.
  Status Run() {
    origin_ns_ = NowNs();
    int burst_left = spec_.burst;
    int64_t reads_due = 0;
    int64_t heartbeats_due = 0;
    while (true) {
      if (rep_ != nullptr) {
        bool stepped = false;
        for (int r = 0; r < rep_->num_replicas() && !stepped; ++r) {
          if (rep_->CanReplicaApply(r)) {
            WVM_RETURN_IF_ERROR(ReplicaApply(r));
            stepped = true;
          } else if (rep_->CanCatchUp(r)) {
            WVM_RETURN_IF_ERROR(Timed(Layer::kReplicationCatchUp, 0,
                                      [&] { return rep_->StepCatchUp(r); }));
            stepped = true;
          }
        }
        if (stepped) {
          continue;
        }
      }
      if (spec_.schedule == Schedule::kBurst && burst_left > 0 &&
          lead_->CanSourceUpdate()) {
        --burst_left;
        WVM_RETURN_IF_ERROR(SourceUpdate());
      } else if (lead_->CanWarehouseStep()) {
        WVM_RETURN_IF_ERROR(WarehouseStep());
      } else if (lead_->CanSourceAnswer()) {
        WVM_RETURN_IF_ERROR(SourceAnswer());
      } else if (rep_ != nullptr && rep_->CanTransportTick()) {
        WVM_RETURN_IF_ERROR(Timed(Layer::kTransportTick, 0,
                                  [&] { return rep_->StepTransportTick(); }));
      } else if (rep_ != nullptr && reads_due > 0 && rep_->CanClientRead()) {
        --reads_due;
        WVM_RETURN_IF_ERROR(ClientRead());
      } else if (rep_ != nullptr && heartbeats_due > 0 &&
                 rep_->CanHeartbeatRound()) {
        --heartbeats_due;
        WVM_RETURN_IF_ERROR(Timed(Layer::kReplicationHeartbeat, 0, [&] {
          return rep_->StepHeartbeatRound();
        }));
      } else if (lead_->CanSourceUpdate()) {
        burst_left = spec_.burst - 1;
        WVM_RETURN_IF_ERROR(SourceUpdate());
        const int64_t n = result_->counters.updates;
        if (spec_.updates_per_read > 0 && n % spec_.updates_per_read == 0) {
          ++reads_due;
        }
        if (spec_.updates_per_heartbeat > 0 &&
            n % spec_.updates_per_heartbeat == 0) {
          ++heartbeats_due;
        }
      } else {
        break;
      }
    }
    const bool quiescent =
        rep_ != nullptr ? rep_->Quiescent() : lead_->Quiescent();
    if (!quiescent) {
      return Status::Internal("schedule stopped short of quiescence");
    }
    return Status::OK();
  }

  /// Runs the workload's verdict (strong consistency on a recording run,
  /// replica convergence on the replicated tier) as a timed span.
  Status Verdict() {
    if (rep_ != nullptr) {
      ReplicaConvergenceReport report;
      WVM_RETURN_IF_ERROR(Timed(Layer::kConsistencyCheck, 0, [&] {
        report = rep_->ConvergenceNow();
        return Status::OK();
      }));
      if (!report.converged) {
        return Status::Internal(
            StrCat("replica group did not converge: ", report.violation));
      }
    } else if (recording_) {
      ConsistencyReport report;
      WVM_RETURN_IF_ERROR(Timed(Layer::kConsistencyCheck, 0, [&] {
        report = CheckConsistency(lead_->state_log());
        return Status::OK();
      }));
      if (!report.strongly_consistent) {
        return Status::Internal(
            StrCat("run is not strongly consistent: ", report.violation));
      }
    }
    return Status::OK();
  }

  /// The FIFO mirrors must have drained in step with the meters.
  Status CheckMirrors() const {
    const CostMeter& meter = lead_->meter();
    if (!downlink_.empty() || !uplink_.empty()) {
      return Status::Internal("FIFO mirror holds messages at quiescence");
    }
    if (mirrored_notifications_ != meter.notifications() ||
        mirrored_answers_ != meter.answer_messages()) {
      return Status::Internal(StrCat(
          "FIFO mirror disagrees with the meter: ", mirrored_notifications_,
          " notifications / ", mirrored_answers_, " answers mirrored, ",
          meter.notifications(), " / ", meter.answer_messages(), " metered"));
    }
    return Status::OK();
  }

  int64_t origin_ns() const { return origin_ns_; }
  void set_recording(bool recording) { recording_ = recording; }

 private:
  template <typename F>
  Status Timed(Layer layer, uint64_t update_id, F&& step) {
    ++result_->counters.calls[static_cast<int>(layer)];
    if (!options_.traced) {
      return step();
    }
    const int64_t start = NowNs();
    Status status = step();
    result_->spans.push_back(
        {layer, start - origin_ns_, NowNs() - origin_ns_, update_id});
    return status;
  }

  Status SourceUpdate() {
    const int64_t start = NowNs();
    const uint64_t id = lead_->updates_executed() + 1;
    WVM_RETURN_IF_ERROR(Timed(Layer::kSourceUpdate, id, [&] {
      return rep_ != nullptr ? rep_->StepSourceUpdate()
                             : lead_->StepSourceUpdate();
    }));
    if (lead_->updates_executed() != id) {
      return Status::Internal("update ids are not assigned in order");
    }
    ++result_->counters.updates;
    updates_start_ns_[id - 1] = start;
    downlink_.push_back({false, id});
    ++mirrored_notifications_;
    return Status::OK();
  }

  Status SourceAnswer() {
    if (uplink_.empty()) {
      return Status::Internal("source answers a query the mirror never saw");
    }
    const uint64_t cause = uplink_.front();
    uplink_.pop_front();
    WVM_RETURN_IF_ERROR(Timed(Layer::kSourceAnswer, cause, [&] {
      return rep_ != nullptr ? rep_->StepSourceAnswer()
                             : lead_->StepSourceAnswer();
    }));
    downlink_.push_back({true, cause});
    return Status::OK();
  }

  Status WarehouseStep() {
    if (downlink_.empty()) {
      return Status::Internal("warehouse consumes a message never sent");
    }
    const Mirrored m = downlink_.front();
    downlink_.pop_front();
    const int64_t queries_before = lead_->meter().query_messages();
    WVM_RETURN_IF_ERROR(Timed(
        m.is_answer ? Layer::kCoreOnAnswer : Layer::kCoreOnUpdate, m.update_id,
        [&] {
          return rep_ != nullptr ? rep_->StepLeadStep()
                                 : lead_->StepWarehouse();
        }));
    const int64_t end = NowNs();
    if (rep_ != nullptr) {
      lsn_cause_.push_back(m.update_id);
    }
    if (m.is_answer) {
      ++mirrored_answers_;
    } else {
      awaiting_install_.push_back(m.update_id);
    }
    for (int64_t q = queries_before; q < lead_->meter().query_messages();
         ++q) {
      uplink_.push_back(m.update_id);
    }
    if (eca_ != nullptr) {
      Counters& c = result_->counters;
      int64_t terms = 0;
      for (const auto& [id, query] : eca_->uqs()) {
        terms += static_cast<int64_t>(query.NumTerms());
      }
      c.uqs_peak =
          std::max(c.uqs_peak, static_cast<int64_t>(eca_->uqs().size()));
      c.uqs_peak_terms = std::max(c.uqs_peak_terms, terms);
    }
    if (lead_->maintainer().IsQuiescent()) {
      for (uint64_t id : awaiting_install_) {
        result_->install_us[id - 1] = (end - updates_start_ns_[id - 1]) / 1e3;
        ++result_->counters.install_samples;
        if (rep_ == nullptr) {
          // A single site holds the only copy of the view: it is at the
          // head the moment it installs.
          result_->head_us[id - 1] = result_->install_us[id - 1];
          ++result_->counters.head_samples;
        } else {
          awaiting_head_.push_back({id, rep_->sequencer().head_lsn()});
        }
      }
      awaiting_install_.clear();
    }
    return Status::OK();
  }

  Status ReplicaApply(int r) {
    const uint64_t lsn = rep_->replica(r).applied_lsn();
    const uint64_t cause = lsn < lsn_cause_.size() ? lsn_cause_[lsn] : 0;
    WVM_RETURN_IF_ERROR(Timed(Layer::kReplicationApply, cause,
                              [&] { return rep_->StepReplicaApply(r); }));
    const int64_t end = NowNs();
    uint64_t group_lsn = rep_->replica(0).applied_lsn();
    for (int i = 1; i < rep_->num_replicas(); ++i) {
      group_lsn = std::min(group_lsn, rep_->replica(i).applied_lsn());
    }
    while (!awaiting_head_.empty() &&
           awaiting_head_.front().second <= group_lsn) {
      const uint64_t id = awaiting_head_.front().first;
      result_->head_us[id - 1] = (end - updates_start_ns_[id - 1]) / 1e3;
      ++result_->counters.head_samples;
      awaiting_head_.pop_front();
    }
    return Status::OK();
  }

  Status ClientRead() {
    const size_t before = rep_->read_log().size();
    WVM_RETURN_IF_ERROR(Timed(Layer::kReplicationRead, 0,
                              [&] { return rep_->StepClientRead(); }));
    ++result_->counters.reads;
    if (rep_->read_log().size() != before + 1) {
      return Status::Internal("client read left no read-log entry");
    }
    if (!rep_->read_log().back().served) {
      ++result_->counters.reads_refused;
    }
    return Status::OK();
  }

  const WorkloadSpec& spec_;
  const RoundOptions& options_;
  Simulation* lead_;
  ReplicatedSimulation* rep_;
  RoundResult* result_;
  const Eca* eca_;
  bool recording_ = false;
  int64_t origin_ns_ = 0;
  std::vector<int64_t> updates_start_ns_;
  std::deque<Mirrored> downlink_;  // source -> warehouse, in send order
  std::deque<uint64_t> uplink_;    // warehouse -> source queries, by cause
  int64_t mirrored_notifications_ = 0;
  int64_t mirrored_answers_ = 0;
  std::vector<uint64_t> awaiting_install_;
  // (update id, sequencer head at its install), in install order.
  std::deque<std::pair<uint64_t, uint64_t>> awaiting_head_;
  std::vector<uint64_t> lsn_cause_;  // broadcast LSN -> causing update
};

void FillCounters(const Simulation& lead, Counters* c) {
  const CostMeter& meter = lead.meter();
  c->notifications = meter.notifications();
  c->messages = meter.messages();
  c->answers = meter.answer_messages();
  c->bytes = meter.bytes_transferred();
  c->query_terms = meter.query_terms();
  c->retransmits = meter.retransmitted_messages();
  c->acks = meter.ack_messages();
  const IOStats& io = lead.io_stats();
  c->page_reads = io.page_reads;
  c->index_probes = io.index_probes;
  c->full_scans = io.full_scans;
  c->frames_dropped = lead.transport_stats().link.frames_dropped;
  const WalStats wal = lead.wal_stats();
  c->wal_appends = wal.appends;
  c->wal_appended_bytes = wal.appended_bytes;
  c->wal_flushes = wal.flushes;
  c->wal_segments_created = wal.segments_created;
  c->wal_segments_dropped = wal.segments_dropped;
  c->consistency_states =
      static_cast<int64_t>(lead.state_log().source_view_states.size() +
                           lead.state_log().warehouse_view_states.size());
}

}  // namespace

Result<WorkloadSpec> FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      return spec;
    }
  }
  return Status::NotFound(StrCat("no workload named '", name, "'"));
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSourceUpdate:
      return "source.update";
    case Layer::kSourceAnswer:
      return "source.answer";
    case Layer::kCoreOnUpdate:
      return "core.on_update";
    case Layer::kCoreOnAnswer:
      return "core.on_answer";
    case Layer::kTransportTick:
      return "transport.tick";
    case Layer::kReplicationApply:
      return "replication.apply";
    case Layer::kReplicationCatchUp:
      return "replication.catch_up";
    case Layer::kReplicationHeartbeat:
      return "replication.heartbeat";
    case Layer::kReplicationRead:
      return "replication.read";
    case Layer::kConsistencyCheck:
      return "consistency.check";
  }
  return "?";
}

std::string GateFinalView(const Relation& warehouse,
                          const Result<Relation>& source_now) {
  if (!source_now.ok()) {
    return StrCat("source view evaluation failed: ",
                  source_now.status().ToString());
  }
  if (warehouse != *source_now) {
    return StrCat("final warehouse view (", warehouse.TotalPositive(),
                  " tuples) differs from the source view (",
                  source_now->TotalPositive(), " tuples)");
  }
  return "";
}

Result<RoundResult> RunRound(const WorkloadSpec& spec,
                             const RoundOptions& options) {
  RoundResult result;
  const bool recording = options.record_states.value_or(spec.record_states);

  int64_t t = NowNs();
  Random rng(options.seed);
  WVM_ASSIGN_OR_RETURN(
      Workload workload,
      MakeExample6Workload({spec.cardinality, kJoinFactor}, &rng));
  WVM_ASSIGN_OR_RETURN(
      std::vector<Update> updates,
      MakeMixedUpdates(workload, spec.updates, kDeleteFraction, &rng));
  result.generate_s = (NowNs() - t) / 1e9;

  SimulationOptions sim_options;
  sim_options.bytes_per_tuple = 4;
  sim_options.indexes = workload.scenario1_indexes;
  sim_options.instrument.record_states = recording;

  std::unique_ptr<Simulation> single;
  std::unique_ptr<ReplicatedSimulation> rep;
  std::filesystem::path wal_dir;
  t = NowNs();
  if (spec.schedule == Schedule::kReplicated) {
    sim_options.fault.enabled = true;
    sim_options.fault.reliable = true;
    sim_options.fault.drop_rate = spec.drop_rate;
    sim_options.fault.seed = options.seed;
    sim_options.recovery.enabled = true;
    sim_options.recovery.checkpoint_every = spec.lead_checkpoint_every;
    sim_options.recovery.backend = JournalBackend::kFile;
    sim_options.recovery.wal.fsync = false;
    wal_dir = std::filesystem::path(options.work_dir) /
              StrCat("wal-", spec.name, "-", options.seed);
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    sim_options.recovery.wal_dir = wal_dir.string();
    ReplicationOptions rep_options;
    rep_options.num_replicas = spec.replicas;
    rep_options.read_policy = ReadPolicy::kBoundedStaleness;
    rep_options.staleness_bound = 4;
    rep_options.reads = static_cast<int>(spec.updates / spec.updates_per_read);
    rep_options.heartbeat_rounds =
        static_cast<int>(spec.updates / spec.updates_per_heartbeat);
    // The data plane's drops are the fault under test; a lossless control
    // channel keeps eviction and rejoin out of the steady path.
    rep_options.heartbeat_loss_rate = 0;
    WVM_ASSIGN_OR_RETURN(
        rep, ReplicatedSimulation::Create(workload.initial, workload.view,
                                          Algorithm::kEca, sim_options,
                                          rep_options));
    rep->SetUpdateScript(std::move(updates));
  } else {
    WVM_ASSIGN_OR_RETURN(std::unique_ptr<ViewMaintainer> maintainer,
                         MakeMaintainer(Algorithm::kEca, workload.view));
    WVM_ASSIGN_OR_RETURN(
        single, Simulation::Create(workload.initial, workload.view,
                                   std::move(maintainer), sim_options));
    single->SetUpdateScript(std::move(updates));
  }
  result.create_s = (NowNs() - t) / 1e9;

  Simulation* lead = rep != nullptr ? &rep->lead() : single.get();
  RoundDriver driver(spec, options, lead, rep.get(), &result);
  driver.set_recording(recording);
  Status status = driver.Run();
  int64_t run_end = NowNs();
  if (status.ok() && (recording || rep != nullptr)) {
    // The verdict is part of the work on `checked` only; on `replicated`
    // it is timed but outside the run.
    const int64_t check_start = NowNs();
    status = driver.Verdict();
    result.check_s = (NowNs() - check_start) / 1e9;
    if (recording) {
      run_end = NowNs();
    }
  }
  result.wall_s = (run_end - driver.origin_ns()) / 1e9;
  FillCounters(*lead, &result.counters);
  if (status.ok()) {
    status = driver.CheckMirrors();
  }
  if (!status.ok()) {
    result.failure = status.ToString();
  } else {
    result.failure = GateFinalView(lead->warehouse_view(),
                                   lead->SourceViewNow());
  }
  if (result.failure.empty() &&
      result.counters.install_samples != result.counters.updates) {
    result.failure = StrCat(result.counters.install_samples,
                            " install samples for ", result.counters.updates,
                            " updates");
  }
  if (result.failure.empty() &&
      result.counters.head_samples != result.counters.updates) {
    result.failure = StrCat(result.counters.head_samples,
                            " head samples for ", result.counters.updates,
                            " updates");
  }
  rep.reset();
  single.reset();
  if (!wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
  return result;
}

}  // namespace wvm::perfbench
