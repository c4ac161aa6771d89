// The control network between one controller and the switches of its
// partition.
//
// Two modes:
//  * synchronous (default): flow-mods are applied to the switch TCAMs
//    immediately; the per-mod latency is only *accounted* (the modelled
//    reconfiguration delay that Fig 7f reports). The controller processes
//    requests sequentially (Sec 2), so ordering is trivially consistent.
//  * asynchronous: each flow-mod is applied `flowModLatency` of simulated
//    time after it is sent, in send order. Events in flight during a
//    reconfiguration then observe partially updated flow state — the
//    transient the paper's sequential-processing rule bounds but cannot
//    eliminate. Used by the activation-delay bench and consistency tests.
//
// Flow-mods travel in messages: one or more mods to one switch, sharing one
// xid, one drop draw, one duplicate draw and one ack/retry unit. A plain
// send() is a message of one; sendBatch() groups one message per mod, or
// one per switch when batching is on.
//
// Fault model (control-plane robustness extension): the channel can lose,
// duplicate, or delay messages — per-attempt faults drawn from the seeded
// util::Rng — and individual switches can be disconnected (node failure /
// control-session loss). On top of the lossy channel sits an OpenFlow-style
// reliability layer: every message carries an xid, applied messages are
// acknowledged, and unacknowledged ones are retransmitted with capped
// exponential backoff under the simulator clock. Mods that exhaust the
// retry budget are *abandoned* (counted in the stats); the controller's
// anti-entropy pass (ctrl::Reconciler) repairs the resulting mirror/switch
// divergence.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "openflow/messages.hpp"
#include "util/rng.hpp"

namespace pleroma::openflow {

/// Per-attempt fault probabilities of the control channel. All faults are
/// drawn from the channel's seeded Rng, so runs are reproducible.
struct ControlFaultModel {
  /// Probability that one transmission attempt of a mod is lost.
  double dropProbability = 0.0;
  /// Probability that a delivered mod is applied a second time.
  double duplicateProbability = 0.0;
  /// Extra per-delivery delay, uniform in [0, maxExtraDelay] (async only).
  net::SimTime maxExtraDelay = 0;
};

/// Retransmission policy of the reliability layer (async mode). With
/// maxRetries == 0 the channel is fire-and-forget: a dropped mod is
/// immediately abandoned.
struct RetryPolicy {
  int maxRetries = 0;
  /// First retransmission timeout; doubles per attempt up to 32 ms.
  net::SimTime initialTimeout = 4 * net::kMillisecond;
};

class ControlChannel {
 public:
  /// `flowModLatency` models the switch-side installation cost of one
  /// flow-mod (dominated by TCAM write; ~1 ms on 2014 hardware).
  explicit ControlChannel(net::Network& network,
                          net::SimTime flowModLatency = net::kMillisecond)
      : network_(network), flowModLatency_(flowModLatency) {}

  /// Switches to asynchronous application: mods apply `flowModLatency`
  /// after send, under the network's simulator clock.
  void enableAsyncInstall() { async_ = true; }
  bool asyncInstall() const noexcept { return async_; }

  /// Opt-in flow-mod batching: sendBatch() groups the mods for each switch
  /// into one message instead of one message per mod, and every message
  /// counts as a batch (ControlPlaneStats::flowModBatches). Off by default —
  /// batching changes the channel's message and fault-draw sequence, so
  /// seeded runs are only reproducible against themselves.
  void enableBatching(bool on = true) { batching_ = on; }
  bool batchingEnabled() const noexcept { return batching_; }

  /// Mutes the channel: sends become silent no-ops (nothing transmitted,
  /// applied, counted, or drawn from the fault Rng) while reads still work.
  /// Used during standby promotion — the fresh controller replays the
  /// primary's command history to rebuild its *intent* (trees, registry,
  /// installer mirror) without touching the switches, whose TCAMs already
  /// hold the primary's installs; the post-replay reconcile pass then
  /// repairs only the true delta.
  void setMuted(bool on) noexcept { muted_ = on; }
  bool muted() const noexcept { return muted_; }

  // ---- fault injection -------------------------------------------------

  void setFaultModel(const ControlFaultModel& model) { faults_ = model; }
  const ControlFaultModel& faultModel() const noexcept { return faults_; }
  void setRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retryPolicy() const noexcept { return retry_; }
  /// Reseeds the fault Rng (deterministic fault sequences per seed).
  void reseedFaults(std::uint64_t seed) { rng_.reseed(seed); }

  /// Connects / disconnects a switch's control session. Every transmission
  /// attempt towards a disconnected switch is lost.
  void setSwitchConnected(net::NodeId switchNode, bool connected);
  bool switchConnected(net::NodeId switchNode) const {
    return !disconnected_.contains(switchNode);
  }

  // ---- sending ---------------------------------------------------------

  /// Applies (sync) or schedules (async) a flow-mod as a message of one.
  /// Synchronous mode returns false when the mod is lost by the fault
  /// model, an add is rejected (TCAM full), or a modify/delete targets a
  /// missing entry; asynchronous mode always returns true (failures surface
  /// in the stats and are resolved through acks/retries).
  bool send(const FlowMod& mod) { return sendMessage({&mod, 1}) == 1; }

  /// Sends a group of flow-mods: one message per mod, or, when batching is
  /// enabled, one message per destination switch in first-appearance
  /// order. Mod order is preserved within each message. Returns the number
  /// of mods applied (sync) or queued (async).
  std::size_t sendBatch(std::span<const FlowMod> mods);

  // ---- introspection ---------------------------------------------------

  /// Messages sent to `switchNode` not yet resolved (acked or abandoned);
  /// a batch counts once.
  std::size_t outstandingMods(net::NodeId switchNode) const;
  /// Total unresolved messages across all switches.
  std::size_t outstandingMods() const;
  /// No mod towards this switch is in flight — its flow table can be
  /// audited without racing the reliability layer.
  bool quiescent(net::NodeId switchNode) const {
    return outstandingMods(switchNode) == 0;
  }

  /// Reads the switch's current flow entries — Algorithm 1's
  /// getCurrentFlowsFromSwitch. In async mode this is the *actual* switch
  /// state, which may lag the controller's mirror.
  const net::FlowTable& flowsOf(net::NodeId switchNode) const {
    return network_.flowTable(switchNode);
  }

  /// OpenFlow flow-stats read: the switch's actual entries with their
  /// per-flow matchedPackets counters. Unlike flowsOf() this goes over the
  /// control session, so a disconnected switch yields ok == false (and the
  /// request is counted in the control-plane stats either way).
  FlowStatsReply requestFlowStats(net::NodeId switchNode);

  /// Batched flow-stats read: one multipart sweep over `switches`, counted
  /// as a single request on the channel. Each switch still answers
  /// individually (a dead control session yields ok == false for its
  /// reply). The promotion audit uses this to snapshot every TCAM in one
  /// round instead of one request per switch.
  std::vector<FlowStatsReply> requestFlowStatsBatch(
      std::span<const net::NodeId> switches);

  // ---- role (failover support) -----------------------------------------

  /// Claims `role` towards a switch (OFPT_ROLE_REQUEST). Role messages are
  /// control-session RPCs: they fail only when the session is down (no
  /// random loss — OpenFlow runs them over TCP). Returns true on the
  /// switch's reply.
  bool sendRoleRequest(net::NodeId switchNode, ControllerRole role);

  /// The role most recently acknowledged by `switchNode` (kEqual before
  /// any request — OpenFlow's default role).
  ControllerRole roleOf(net::NodeId switchNode) const {
    const auto it = roles_.find(switchNode);
    return it == roles_.end() ? ControllerRole::kEqual : it->second;
  }

  /// Records per-flow-mod trace spans into `tracer` (nullptr detaches),
  /// parented by the tracer's current controller-op context.
  void setTracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  const ControlPlaneStats& stats() const noexcept { return stats_; }
  /// Continues another channel's counters from here on: a promoted
  /// controller's channel takes over the dead primary's, so the counters a
  /// deployment reports never decrease.
  void continueStats(const ControlPlaneStats& stats) noexcept {
    stats_ = stats;
  }
  /// Deferred applies that failed at the switch (satellite of the fault
  /// model: previously silently discarded).
  std::uint64_t asyncApplyFailures() const noexcept {
    return stats_.asyncApplyFailures;
  }

  /// Total modelled switch-side installation latency accumulated so far.
  net::SimTime modeledInstallTime() const noexcept { return modeledInstallTime_; }

  /// Resets the modelled-latency accumulator (benches call this around each
  /// measured reconfiguration).
  void resetModeledInstallTime() noexcept { modeledInstallTime_ = 0; }

  net::Network& network() noexcept { return network_; }

 private:
  /// An unresolved async message; erased once acked or abandoned.
  struct Pending {
    /// The message's mods, shared with its scheduled deliveries: a late or
    /// duplicate delivery still applies after the entry is gone.
    std::shared_ptr<const std::vector<FlowMod>> mods;
    int attempts = 1;          // transmission attempts so far
    net::SimTime timeout = 0;  // current RTO
    obs::SpanId span = obs::kNoSpan;  // open trace span, closed on resolve
  };

  /// Sends one message: `mods` (non-empty, all towards one switch) share
  /// one xid, one drop draw, one duplicate draw and one ack/retry unit.
  /// Returns the number of mods applied (sync) or queued (async).
  std::size_t sendMessage(std::span<const FlowMod> mods);
  bool applyNow(const FlowMod& mod);
  /// One switch's share of a flow-stats read, without counting a request
  /// (requestFlowStats and the batched sweep count differently).
  FlowStatsReply readFlowStats(net::NodeId switchNode);
  /// At-least-once apply: re-delivery of an already-applied mod succeeds
  /// (add of an identical entry, delete of an absent entry).
  bool applyIdempotent(const FlowMod& mod);
  /// Counts a mod in the sent/add/modify/delete stats.
  void countSent(const FlowMod& mod);
  /// One transmission attempt of a pending message; arms the retry timer.
  void transmitAttempt(std::uint64_t xid, bool isRetransmit);
  /// Returns the absolute delivery time of the scheduled attempt.
  net::SimTime scheduleDelivery(std::uint64_t xid, const Pending& p,
                                bool chained);
  /// Applies every mod of the message (at-least-once) and acks it once.
  void deliver(std::uint64_t xid, const std::vector<FlowMod>& mods);
  /// Arms the RTO to fire `timeout` after `basis` — the expected delivery
  /// time of the attempt, so FIFO queueing delay is not mistaken for loss.
  void armRetryTimer(std::uint64_t xid, net::SimTime basis);
  void resolve(std::uint64_t xid, bool ok);

  net::Network& network_;
  net::SimTime flowModLatency_;
  net::SimTime modeledInstallTime_ = 0;
  bool async_ = false;
  bool batching_ = false;
  /// Completion time of the last scheduled async message, so installs on
  /// the same channel never reorder even when sends burst.
  net::SimTime lastScheduled_ = 0;
  bool muted_ = false;
  ControlPlaneStats stats_;

  ControlFaultModel faults_;
  RetryPolicy retry_;
  util::Rng rng_{0x5DC0DE5ULL};
  std::unordered_set<net::NodeId> disconnected_;
  std::unordered_map<net::NodeId, ControllerRole> roles_;
  std::uint64_t nextXid_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<net::NodeId, std::set<std::uint64_t>> outstanding_;

  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pleroma::openflow
