#include "controller/failover.hpp"

#include <vector>

#include "openflow/control_channel.hpp"

namespace pleroma::ctrl {

namespace {
/// Seed the promoted controller's channel fault Rng is reset to, so a
/// promotion's repair sequence does not depend on the dead primary's Rng
/// position.
constexpr std::uint64_t kPromotedChannelSeed = 0x9E0C0DE5ULL;
/// Round budget of the post-promotion reconciliation loop.
constexpr std::size_t kRepairRoundLimit = 16;
}  // namespace

FailoverManager::FailoverManager(Controller& primary,
                                 StandbyController& standby,
                                 FailoverConfig config)
    : primary_(primary), standby_(standby), config_(config) {}

void FailoverManager::start() {
  if (running_) return;
  running_ = true;
  armTick();
}

void FailoverManager::killPrimary() {
  if (!primaryAlive_) return;
  primaryAlive_ = false;
  net::Network& network = primary_.network();
  stats_.primaryDiedAt = network.simulator().now();
  // Switches notice the dead control session through their own echo
  // timeout; modelled as immediate, they enter fail-soft: keep forwarding
  // on the installed TCAM entries, park misses for post-repair replay.
  network.setFailSoft(true);
  const net::NetworkCounters& c = network.counters();
  bufferedAtKill_ = c.packetsBufferedOnMiss;
  droppedAtKill_ = c.dropped(net::DropReason::kMissBuffer);
  replayedAtKill_ = c.packetsReplayedFromMissBuffer;
}

void FailoverManager::armTick() {
  primary_.network().simulator().schedule(config_.heartbeatInterval,
                                          [this] { onTick(); });
}

void FailoverManager::onTick() {
  // A completed promotion ends the schedule — the tick must not re-arm, or
  // nested convergence loops would never drain.
  if (promotedCtrl_ != nullptr) return;
  ++stats_.heartbeatsSent;
  if (primaryAlive_) {  // a live primary answers the echo
    consecutiveMisses_ = 0;
    armTick();
    return;
  }
  ++stats_.heartbeatsMissed;
  if (++consecutiveMisses_ < config_.missThreshold) {
    armTick();
    return;
  }
  stats_.detectedAt = primary_.network().simulator().now();
  promote();
}

void FailoverManager::forcePromotion() {
  if (promotedCtrl_ != nullptr) return;
  stats_.detectedAt = primary_.network().simulator().now();
  promote();
}

void FailoverManager::promote() {
  ++stats_.promotions;

  // 1. Muted-replay rebuild of the primary's intent (standby.hpp).
  promotedCtrl_ = standby_.promote();
  openflow::ControlChannel& channel = promotedCtrl_->channel();

  // The replica inherits the deployment's channel profile — mode, batching,
  // fault model, retry policy — and continues its counters (the muted
  // replay counted nothing), but takes a fixed fault seed: the dead
  // primary's Rng position is unknowable, and a deterministic reseed keeps
  // the repair byte-identical across bench configurations.
  const openflow::ControlChannel& old = primary_.channel();
  channel.continueStats(old.stats());
  if (old.asyncInstall()) channel.enableAsyncInstall();
  channel.enableBatching(old.batchingEnabled());
  channel.setFaultModel(old.faultModel());
  channel.setRetryPolicy(old.retryPolicy());
  channel.reseedFaults(kPromotedChannelSeed);

  // 2. Claim mastership and snapshot every reachable TCAM in one batched
  // stats sweep.
  std::vector<net::NodeId> reachable;
  for (const net::NodeId sw : promotedCtrl_->scope().switches) {
    if (!promotedCtrl_->switchActive(sw) || !channel.switchConnected(sw)) {
      continue;
    }
    channel.sendRoleRequest(sw, openflow::ControllerRole::kMaster);
    reachable.push_back(sw);
  }
  for (const openflow::FlowStatsReply& reply :
       channel.requestFlowStatsBatch(reachable)) {
    if (!reply.ok) continue;
    ++stats_.switchesAudited;
    stats_.entriesSurviving += reply.entries.size();
  }

  // 3. Anti-entropy repair: only the delta between mirrored intent and the
  // audited tables moves — surviving entries are never reinstalled.
  Reconciler reconciler(*promotedCtrl_);
  stats_.repairRounds = reconciler.runToConvergence(kRepairRoundLimit);
  stats_.repairFlowMods = reconciler.totalRepairMods();

  net::Network& network = promotedCtrl_->network();
  stats_.repairedAt = network.simulator().now();

  // 4. Leave fail-soft *before* replaying the parked misses: anything still
  // unmatched after the repair is a genuine no-route drop, not re-parked.
  network.setFailSoft(false);
  network.releaseMissBuffers();
  network.simulator().run();  // drain the replayed packets' deliveries
  const net::NetworkCounters& c = network.counters();
  stats_.eventsBuffered = c.packetsBufferedOnMiss - bufferedAtKill_;
  stats_.eventsDroppedBufferFull = c.dropped(net::DropReason::kMissBuffer) - droppedAtKill_;
  stats_.eventsReplayed = c.packetsReplayedFromMissBuffer - replayedAtKill_;

  if (onPromoted_) onPromoted_(*promotedCtrl_);
}

}  // namespace pleroma::ctrl
