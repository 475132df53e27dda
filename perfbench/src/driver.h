#ifndef WVM_PERFBENCH_DRIVER_H_
#define WVM_PERFBENCH_DRIVER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace wvm::perfbench {

/// The four named workloads. All run Example 6 (J=4, Scenario-1 indexes,
/// bytes_per_tuple=4) under plain ECA with a 50%-delete mixed update
/// stream, so relation sizes stay stationary over a run.
enum class Schedule {
  /// BestCase priority (warehouse, answer, update): pipeline depth 1.
  kSteady,
  /// `burst` updates run before the warehouse consumes the burst's first
  /// notification; then the warehouse consumes every notification before
  /// any answer (WorstCase priority) until the system is quiescent.
  kBurst,
  /// The lead runs the steady schedule; every replica applies each
  /// broadcast message as soon as it can, and the next update waits until
  /// the whole group is at the head with no timed transport work left.
  kReplicated,
};

struct WorkloadSpec {
  std::string name;
  Schedule schedule = Schedule::kSteady;
  int64_t cardinality = 100;  // C
  int64_t updates = 50;       // k per round
  int burst = 1;              // kBurst only
  /// Inputs a run cycles over: dataset d of seed s is generated from seed
  /// s * datasets + d. More inputs where the cost depends more on the data.
  int datasets = 8;
  /// Record V[ss]/V[ws] states and give the strong-consistency verdict.
  bool record_states = false;
  // kReplicated only.
  int replicas = 0;
  double drop_rate = 0;
  int lead_checkpoint_every = 0;
  int updates_per_read = 0;
  int updates_per_heartbeat = 0;
};

/// The named workload (steady, burst, checked, replicated), or NotFound.
Result<WorkloadSpec> FindWorkload(std::string_view name);

/// The calls into a layer's public step function that a traced round
/// times.
enum class Layer {
  kSourceUpdate,         // Simulation::StepSourceUpdate
  kSourceAnswer,         // Simulation::StepSourceAnswer
  kCoreOnUpdate,         // StepWarehouse consuming a notification
  kCoreOnAnswer,         // StepWarehouse consuming an answer
  kTransportTick,        // StepTransportTick
  kReplicationApply,     // ReplicatedSimulation::StepReplicaApply
  kReplicationCatchUp,   // ReplicatedSimulation::StepCatchUp
  kReplicationHeartbeat, // ReplicatedSimulation::StepHeartbeatRound
  kReplicationRead,      // ReplicatedSimulation::StepClientRead
  kConsistencyCheck,     // CheckConsistency / ConvergenceNow
};
inline constexpr int kNumLayers = 10;
const char* LayerName(Layer layer);

/// One timed call. Times are nanoseconds from the round's first step;
/// `update_id` is the update whose path caused the call (0 for none:
/// transport ticks, heartbeats, reads, verdicts).
struct Span {
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t update_id;
};

/// Counts that must repeat exactly at a fixed seed, whatever the speed of
/// the machine: the schedule is chosen from simulation state only.
struct Counters {
  int64_t updates = 0;
  int64_t notifications = 0;     // meter().notifications()
  int64_t messages = 0;          // meter().messages(): the paper's M
  int64_t answers = 0;           // meter().answer_messages()
  int64_t bytes = 0;             // the paper's B
  int64_t query_terms = 0;
  int64_t page_reads = 0;        // the paper's IO
  int64_t index_probes = 0;
  int64_t full_scans = 0;
  int64_t uqs_peak = 0;          // largest Eca::uqs() after a warehouse step
  int64_t uqs_peak_terms = 0;    // largest total term count in UQS
  int64_t retransmits = 0;
  int64_t acks = 0;
  int64_t frames_dropped = 0;
  int64_t wal_appends = 0;
  int64_t wal_appended_bytes = 0;
  int64_t wal_flushes = 0;
  int64_t wal_segments_created = 0;
  int64_t wal_segments_dropped = 0;
  int64_t reads = 0;
  int64_t reads_refused = 0;
  int64_t install_samples = 0;
  int64_t head_samples = 0;
  int64_t consistency_states = 0;
  std::array<int64_t, kNumLayers> calls{};

  bool operator==(const Counters&) const = default;
};

struct RoundOptions {
  uint64_t seed = 1;
  /// Record a span around every step (the traced pass).
  bool traced = false;
  /// Overrides WorkloadSpec::record_states when set: the traced pass of
  /// `checked` reruns its schedule with states off to price the checker.
  std::optional<bool> record_states;
  /// Directory for the replicated workload's WAL segments; created and
  /// removed by the round.
  std::string work_dir = ".";
};

/// Everything one round (generate, create, run to quiescence, gate)
/// measured.
struct RoundResult {
  /// Empty when the round passed every correctness gate.
  std::string failure;
  Counters counters;
  double generate_s = 0;
  double create_s = 0;
  /// Wall seconds from the first step to quiescence (every replica at the
  /// head on `replicated`; including the verdict on `checked`).
  double wall_s = 0;
  /// CheckConsistency (checked) or ConvergenceNow (replicated) seconds.
  double check_s = 0;
  /// Indexed by update id - 1; negative where no sample was taken.
  std::vector<double> install_us;
  std::vector<double> head_us;
  /// Traced rounds only.
  std::vector<Span> spans;
};

/// Runs one round of `spec`. Step errors and failed gates land in
/// RoundResult::failure; only set-up errors return a Status.
Result<RoundResult> RunRound(const WorkloadSpec& spec,
                             const RoundOptions& options);

/// The final-view gate: empty when the warehouse view equals the view
/// evaluated at the source, else a description of the failure.
std::string GateFinalView(const Relation& warehouse,
                          const Result<Relation>& source_now);

}  // namespace wvm::perfbench

#endif  // WVM_PERFBENCH_DRIVER_H_
