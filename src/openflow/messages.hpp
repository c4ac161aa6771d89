// Control-plane message types exchanged between a controller and its
// switches, modelled on the OpenFlow protocol surface PLEROMA uses:
// flow-mod (add / modify / delete) and flow-stats reads.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow_table.hpp"
#include "net/packet.hpp"

namespace pleroma::openflow {

enum class FlowModType { kAdd, kModify, kDelete };

/// OpenFlow controller role towards one switch (OFPT_ROLE_REQUEST). A
/// switch accepts state-changing messages from its master; a promoted
/// standby claims mastership switch by switch before repairing.
enum class ControllerRole { kEqual, kMaster, kSlave };

struct FlowMod {
  FlowModType type = FlowModType::kAdd;
  net::NodeId switchNode = net::kInvalidNode;
  net::FlowEntry entry;  // for kDelete only entry.match is meaningful
  /// Transaction id, assigned by the control channel at send time. Acks
  /// and retransmissions are tracked per xid (OpenFlow header.xid).
  std::uint64_t xid = 0;
};

/// Flow-stats read request (OFPT_STATS_REQUEST / OFPST_FLOW): asks a
/// switch for its installed entries including per-flow counters.
struct FlowStatsRequest {
  net::NodeId switchNode = net::kInvalidNode;
  std::uint64_t xid = 0;
};

/// Reply to a FlowStatsRequest: the switch's actual flow entries with
/// their FlowEntry::matchedPackets counters. `ok` is false when the
/// switch's control session is down (the reply never arrives) — callers
/// must not treat that as an empty table.
struct FlowStatsReply {
  net::NodeId switchNode = net::kInvalidNode;
  std::uint64_t xid = 0;
  bool ok = false;
  std::vector<net::FlowEntry> entries;
};

/// Counters of control-network traffic (the quantity Figs 7g/7h report)
/// plus the fault/recovery accounting of the control-plane fault model.
struct ControlPlaneStats {
  std::uint64_t flowModsSent = 0;
  std::uint64_t flowAdds = 0;
  std::uint64_t flowModifies = 0;
  std::uint64_t flowDeletes = 0;
  // ---- batching --------------------------------------------------------
  /// Batch messages sent (each carries >= 1 mods towards one switch).
  std::uint64_t flowModBatches = 0;
  /// Mods that travelled inside a batch message (subset of flowModsSent).
  std::uint64_t batchedMods = 0;
  /// Control messages actually put on the wire for flow-mods: batched mods
  /// cost one message per batch, unbatched mods one message each.
  std::uint64_t flowModMessages() const noexcept {
    return flowModsSent - batchedMods + flowModBatches;
  }
  // ---- fault model / reliability layer ---------------------------------
  /// Flow-mod transmission attempts lost (random drop or disconnected
  /// switch); retransmissions count again.
  std::uint64_t flowModsDropped = 0;
  /// Extra deliveries caused by duplication faults.
  std::uint64_t flowModsDuplicated = 0;
  /// Retransmission attempts issued by the reliability layer.
  std::uint64_t flowModsRetried = 0;
  /// Successful acknowledgements: one per mod applied synchronously, one
  /// per async message resolved ok (an async batch acks once).
  std::uint64_t flowModsAcked = 0;
  /// Mods given up on after the retry budget was exhausted (or dropped with
  /// retries disabled). These are exactly what reconciliation must repair.
  std::uint64_t flowModsAbandoned = 0;
  /// Deferred (async) applies that failed at the switch — e.g. a modify of
  /// a missing entry or an add rejected by a full TCAM. Idempotent
  /// re-deliveries of an already-applied mod are not failures.
  std::uint64_t asyncApplyFailures = 0;
  /// Flow-stats reads (the Reconciler's data-plane audit channel).
  std::uint64_t flowStatsRequests = 0;
  std::uint64_t flowStatsReplies = 0;
  /// Batched flow-stats sweeps (one multipart request covering many
  /// switches — the promotion audit's read pattern). The per-switch
  /// replies count into flowStatsReplies; the sweep itself is one request.
  std::uint64_t flowStatsBatches = 0;
  // ---- failover --------------------------------------------------------
  /// Controller-role claims sent (OFPT_ROLE_REQUEST) and their replies.
  std::uint64_t roleRequests = 0;
  std::uint64_t roleReplies = 0;
};

}  // namespace pleroma::openflow
