#ifndef WVM_REPLICATION_REPLICA_H_
#define WVM_REPLICATION_REPLICA_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "channel/cost_meter.h"
#include "core/factory.h"
#include "core/warehouse.h"
#include "recovery/journal.h"
#include "replication/sequencer.h"

namespace wvm {

/// Where a replica stands relative to the broadcast group.
enum class ReplicaMembership {
  /// Receiving the live broadcast; eligible to serve reads (unless the
  /// heartbeat monitor currently suspects it).
  kInGroup,
  /// Rejoining: replaying its own journal tail and then the sequencer
  /// history until it reaches the head. Never serves reads.
  kCatchingUp,
  /// Evicted by the heartbeat monitor; receives no broadcast traffic until
  /// it rejoins via catch-up.
  kEvicted,
};

const char* ReplicaMembershipName(ReplicaMembership m);

/// A replica's durable checkpoint: the maintainer's full state (the same
/// MaintainerSnapshot hierarchy src/recovery checkpoints use) plus the LSN
/// floor it folds in. Relations are copy-on-write, and Checkpoint() rotates
/// storage rather than sharing it: once the live view has been written
/// since the replica last restored state (Create and BeginRejoin start out
/// sharing, so their first install clones once), the held checkpoint and
/// the live view share no relation and no install clones the view.
struct ReplicaCheckpoint {
  std::shared_ptr<const MaintainerSnapshot> maintainer;
  /// Sequenced messages with LSN < this are folded into `maintainer`.
  uint64_t applied_floor = 0;
  /// The warehouse query-id counter at the floor: replayed notifications
  /// must re-allocate the very ids they allocated the first time, or the
  /// broadcast answers (which carry the lead's ids) stop matching the UQS.
  uint64_t next_query_id = 1;
};

/// One warehouse replica of the replicated tier: an unmodified
/// maintainer driven by the sequenced broadcast instead of a private source
/// connection. Determinism does the heavy lifting — the maintainer re-runs
/// the exact decision procedure the lead ran, over the exact same message
/// stream, so byte-identical view state needs no coordination at all.
///
/// The replica never originates traffic: its Warehouse runs permanently in
/// replay mode, so the compensating queries its maintainer "sends" are
/// allocated (keeping query-id bookkeeping aligned with the lead) but
/// neither metered nor transmitted — the answers arrive in the broadcast.
///
/// Durable state (survives a crash): the inbound journal, the latest
/// checkpoint. Everything else — maintainer bookkeeping, channel buffers —
/// is volatile, exactly the split src/recovery defines for the single-site
/// warehouse.
class Replica {
 public:
  static Result<std::unique_ptr<Replica>> Create(int id,
                                                 const MaintainerSpec& spec,
                                                 ViewDefinitionPtr view,
                                                 const Catalog& initial,
                                                 int checkpoint_every);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int id() const { return id_; }
  std::string name() const;

  bool up() const { return up_; }
  ReplicaMembership membership() const { return membership_; }
  void set_membership(ReplicaMembership m) { membership_ = m; }

  /// Number of sequenced messages applied = the next LSN this replica
  /// needs. Equal to the lead's consumed count when fully caught up.
  uint64_t applied_lsn() const { return applied_lsn_; }

  /// The replica's durable inbound journal (LSN-keyed broadcast records).
  const Journal<SourceMessage>& journal() const { return journal_; }
  Journal<SourceMessage>& mutable_journal() { return journal_; }
  const std::optional<ReplicaCheckpoint>& checkpoint() const {
    return checkpoint_;
  }

  const Relation& view() const {
    return warehouse_->maintainer().view_contents();
  }
  const ViewMaintainer& maintainer() const { return warehouse_->maintainer(); }

  /// Applies the next deliverable broadcast message from `channel` (which
  /// journaled it on delivery). Pre: up, in group, channel has a message.
  Status ApplyFromChannel(TransportChannel<SourceMessage>& channel);

  /// One catch-up step: applies up to `batch` missed messages, reading each
  /// from the replica's own journal where it reaches and from the sequencer
  /// history beyond that (appending history reads to the journal, so a
  /// crash mid-catch-up loses no progress past the last applied record).
  /// Pre: up, catching up. Returns the number of messages applied.
  Result<int> CatchUpStep(const Sequencer& sequencer, int batch);

  /// Fail-stop crash: volatile state is garbage until the next
  /// BeginRejoin() restores it. The journal and checkpoint survive.
  void Crash();

  /// Starts the rejoin protocol. For a crashed replica: restore the
  /// checkpoint, after which CatchUpStep replays the journal tail and then
  /// the history. For an up-but-evicted replica (spurious eviction): state
  /// is current, catch-up only has to close the gap to the head.
  Status BeginRejoin();

  /// Folds current state into a new checkpoint and truncates the journal
  /// prefix it made redundant. Pre: up.
  ///
  /// Rotates rather than shares storage: the new checkpoint takes the live
  /// maintainer's state, and the live maintainer is restored from the
  /// previous checkpoint (which is then released) and replays the journal
  /// from that checkpoint's floor up to applied_lsn() — the replay a rejoin
  /// runs. A checkpoint therefore costs a replay of the messages applied
  /// since the last one, not a clone of the view, and exercises the
  /// recovery path every time. This needs the maintainer's SnapshotState
  /// to capture all of its state, bookkeeping as well as MV, as every
  /// maintainer MakeMaintainer builds does. A damaged journal record in
  /// that range, or a replay that ends at a different query id than the
  /// live state, returns an error; the replica then keeps the new
  /// checkpoint and the live state shares its storage (the next install
  /// clones it once).
  Status Checkpoint();

  /// Serves one read: returns a fingerprint of the view computed under the
  /// replica's serve lock. The lock models per-replica serving capacity —
  /// concurrent readers of ONE replica serialize, readers of different
  /// replicas proceed in parallel — which is exactly the scaling the
  /// replicated tier exists to buy.
  uint64_t ServeRead() const;

  int64_t reads_served() const { return reads_served_; }

 private:
  Replica(int id, int checkpoint_every)
      : id_(id),
        checkpoint_every_(checkpoint_every),
        journal_([](const SourceMessage& m) {
          return SourceMessageToString(m);
        }) {}

  /// Applies one sequenced message to the maintainer and advances the
  /// applied LSN, auto-checkpointing on the configured cadence.
  Status Apply(const SourceMessage& m);

  int id_;
  int checkpoint_every_;
  int applied_since_checkpoint_ = 0;

  CostMeter meter_;  // never charged: the replica originates no traffic
  TransportChannel<QueryMessage> null_query_channel_;
  std::unique_ptr<Warehouse> warehouse_;

  Journal<SourceMessage> journal_;
  std::optional<ReplicaCheckpoint> checkpoint_;

  uint64_t applied_lsn_ = 0;
  bool up_ = true;
  ReplicaMembership membership_ = ReplicaMembership::kInGroup;

  mutable std::mutex serve_mutex_;
  mutable int64_t reads_served_ = 0;
};

}  // namespace wvm

#endif  // WVM_REPLICATION_REPLICA_H_
