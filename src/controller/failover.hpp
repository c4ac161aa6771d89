// Controller failure detection and standby promotion (the tentpole of the
// high-availability layer). The manager heartbeats the primary controller
// with OpenFlow-style echo round trips, which only a dead primary leaves
// unanswered; a configurable run of consecutive missed echoes declares the
// primary dead and promotes the StandbyController:
//
//   1. The standby replays its replicated command log against a fresh
//      Controller with a muted channel — rebuilding the authoritative
//      *intent* (trees, registry, per-switch flow mirror) with zero wire
//      traffic (see standby.hpp).
//   2. The promoted controller claims mastership of every reachable switch
//      (OFPT_ROLE_REQUEST) and snapshots every TCAM through one batched
//      flow-stats sweep.
//   3. A Reconciler anti-entropy pass diffs mirrored intent against actual
//      switch state and repairs only the delta — no global flush; entries
//      that survived the dead primary keep forwarding throughout.
//
// While the primary is dead the data plane runs fail-soft
// (Network::setFailSoft): existing TCAM entries keep forwarding, misses
// are parked in finite per-switch buffers instead of dropped, and once the
// repair converges the buffers are replayed — so the only events lost to a
// controller death are misses beyond the buffer budget.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "controller/controller.hpp"
#include "controller/reconciler.hpp"
#include "controller/standby.hpp"

namespace pleroma::ctrl {

struct FailoverConfig {
  /// Heartbeat (echo) period towards the primary controller.
  net::SimTime heartbeatInterval = 10 * net::kMillisecond;
  /// Consecutive missed echoes before the primary is declared dead.
  int missThreshold = 3;
};

struct FailoverStats {
  std::uint64_t promotions = 0;
  std::uint64_t heartbeatsSent = 0;
  std::uint64_t heartbeatsMissed = 0;

  // Timeline of the (single) primary death, -1 = not yet.
  net::SimTime primaryDiedAt = -1;
  net::SimTime detectedAt = -1;   ///< missThreshold-th echo declared dead
  net::SimTime repairedAt = -1;   ///< post-promotion reconcile converged

  // Promotion repair accounting.
  std::size_t switchesAudited = 0;   ///< stats-sweep replies received
  std::uint64_t entriesSurviving = 0;  ///< TCAM entries found intact
  std::uint64_t repairFlowMods = 0;  ///< mods the anti-entropy pass issued
  std::size_t repairRounds = 0;

  // Fail-soft accounting over the failover window.
  std::uint64_t eventsBuffered = 0;
  std::uint64_t eventsDroppedBufferFull = 0;
  std::uint64_t eventsReplayed = 0;

  net::SimTime detectionLatency() const noexcept {
    return primaryDiedAt >= 0 && detectedAt >= 0 ? detectedAt - primaryDiedAt
                                                 : -1;
  }
  /// Death → repaired tables + replayed buffers: the event-loss window.
  net::SimTime failoverWindow() const noexcept {
    return primaryDiedAt >= 0 && repairedAt >= 0 ? repairedAt - primaryDiedAt
                                                 : -1;
  }
};

class FailoverManager {
 public:
  /// `standby` must outlive the manager and already follow `primary`.
  FailoverManager(Controller& primary, StandbyController& standby,
                  FailoverConfig config = {});

  /// Arms the heartbeat. The primary must NOT have a periodic Reconciler
  /// enabled: promotion runs a nested convergence loop (sim.run()) from
  /// inside the heartbeat tick, which never drains while a self-rearming
  /// tick is live.
  void start();
  bool running() const noexcept { return running_; }

  /// Fault injection: kills the primary controller process. Echoes stop
  /// being answered; detection and promotion follow from the heartbeat
  /// schedule. The data plane enters fail-soft mode now —
  /// switches notice the dead control session via their own (local) echo
  /// timeout, modelled as immediate.
  void killPrimary();
  bool primaryAlive() const noexcept { return primaryAlive_; }

  /// Detects + promotes immediately, bypassing the heartbeat schedule
  /// (benches isolating repair cost from detection latency).
  void forcePromotion();

  bool promoted() const noexcept { return promotedCtrl_ != nullptr; }
  /// The controller currently in charge: the primary until promotion, the
  /// promoted replica after.
  Controller& active() noexcept {
    return promotedCtrl_ != nullptr ? *promotedCtrl_ : primary_;
  }

  /// Invoked right after a promotion's repair converged, with the promoted
  /// controller (e.g. to re-attach a tracer).
  void setPromotionCallback(std::function<void(Controller&)> cb) {
    onPromoted_ = std::move(cb);
  }
  const FailoverStats& stats() const noexcept { return stats_; }
  const FailoverConfig& config() const noexcept { return config_; }

 private:
  void armTick();
  void onTick();
  void promote();

  Controller& primary_;
  StandbyController& standby_;
  FailoverConfig config_;
  std::unique_ptr<Controller> promotedCtrl_;
  std::function<void(Controller&)> onPromoted_;

  bool running_ = false;
  bool primaryAlive_ = true;
  int consecutiveMisses_ = 0;
  FailoverStats stats_;

  // Miss-buffer counter snapshot taken at killPrimary(), so the stats
  // report this window's fail-soft activity, not the network's lifetime.
  std::uint64_t bufferedAtKill_ = 0;
  std::uint64_t droppedAtKill_ = 0;
  std::uint64_t replayedAtKill_ = 0;
};

}  // namespace pleroma::ctrl
