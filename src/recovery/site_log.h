#ifndef WVM_RECOVERY_SITE_LOG_H_
#define WVM_RECOVERY_SITE_LOG_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "channel/message.h"
#include "channel/wire_codec.h"
#include "core/warehouse.h"
#include "query/catalog.h"
#include "recovery/journal.h"
#include "source/physical_evaluator.h"

namespace wvm {

/// Crash-restart recovery (DESIGN.md Section 2e). The paper's standing
/// assumption (Section 3) is that both sites stay up; these structures are
/// the durable medium that lets the simulator revoke that assumption too.
///
/// Each site keeps, on its simulated disk:
///
///   * an INBOUND journal — every frame the reliable endpoint released to
///     the application, logged under the frame's protocol sequence number
///     BEFORE the cumulative ack covering it leaves the site. The protocol
///     invariant "acked => journaled" is what makes the ack safe: the peer
///     may forget an acked frame, because this journal can always reproduce
///     it after a crash;
///   * an OUTBOUND journal — every frame handed to the endpoint's sender,
///     logged under its sequence number before it reaches the wire. After a
///     crash the retained outbound suffix is conservatively re-installed as
///     the unacked window: retransmission repairs in-flight loss, the
///     peer's dedup absorbs replayed duplicates, and the first cumulative
///     ack prunes the excess;
///   * a consumed floor — how many inbound frames the application had
///     processed (frames are released and consumed strictly in sequence
///     order, so a single number suffices);
///   * the latest checkpoint, which folds a prefix of both journals into
///     materialized state and lets them be truncated.
///
/// Everything in these structs survives a kCrash simulator action; nothing
/// else at the site does.

/// Checkpoint of the warehouse site: the maintenance algorithm's full state
/// (MV + UQS + COLLECT progress, captured via ViewMaintainer::SnapshotState)
/// plus the counters replay needs. Relations are copy-on-write, so taking
/// one copies no tuple; but while it is held it shares MV's storage, so the
/// warehouse's next install clones the whole view first.
struct WarehouseCheckpoint {
  std::shared_ptr<const MaintainerSnapshot> maintainer;
  uint64_t next_query_id = 1;
  /// Inbound frames with seq < this are folded into `maintainer`.
  uint64_t consumed_floor = 0;
};

/// Checkpoint of the source site: logical catalog plus the physical store.
/// The StorageMap snapshot rides the existing copy-on-write row
/// representation of StoredRelation, so checkpointing is O(relations).
struct SourceCheckpoint {
  Catalog catalog;
  StorageMap storage;
  /// Inbound (query) frames with seq < this were already answered.
  uint64_t consumed_floor = 0;
  /// Outbound frames with seq < this are reflected in `storage`; replaying
  /// the update notifications at and above this floor rebuilds the
  /// post-checkpoint base state.
  uint64_t outbound_floor = 0;
};

/// The warehouse's durable state. Inbound records are source messages
/// (notifications and answers) keyed by the source->warehouse data seq;
/// outbound records are queries keyed by the warehouse->source data seq.
/// Record images are the binary wire encoding (channel/wire_codec.h), so the
/// same image that is checksummed in memory round-trips through the on-disk
/// WAL backend.
struct WarehouseSiteLog {
  WarehouseSiteLog()
      : inbound([](const SourceMessage& m) { return EncodeSourceMessage(m); }),
        outbound([](const QueryMessage& m) { return EncodeQueryMessage(m); }) {}

  Journal<SourceMessage> inbound;
  Journal<QueryMessage> outbound;
  uint64_t consumed = 0;
  std::optional<WarehouseCheckpoint> checkpoint;
  int events_since_checkpoint = 0;
};

/// The source's durable state, mirror image of the warehouse's. The
/// outbound journal doubles as the source's update history: each journaled
/// notification carries the update(s) it announced, so replaying the
/// notifications above the checkpoint's outbound floor re-executes exactly
/// the updates the checkpointed storage is missing.
struct SourceSiteLog {
  SourceSiteLog()
      : inbound([](const QueryMessage& m) { return EncodeQueryMessage(m); }),
        outbound([](const SourceMessage& m) { return EncodeSourceMessage(m); }) {}

  Journal<QueryMessage> inbound;
  Journal<SourceMessage> outbound;
  uint64_t consumed = 0;
  std::optional<SourceCheckpoint> checkpoint;
  int events_since_checkpoint = 0;
};

}  // namespace wvm

#endif  // WVM_RECOVERY_SITE_LOG_H_
