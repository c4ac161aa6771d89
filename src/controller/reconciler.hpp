// Anti-entropy for the control plane (robustness extension). Algorithm 1's
// getCurrentFlowsFromSwitch presumes the controller can audit actual switch
// state; the reconciler turns that audit into a repair loop: it diffs the
// controller's per-switch flow mirror (the *intended* state kept by
// FlowInstaller) against each switch's actual FlowTable and issues the
// add/modify/delete mods that converge the switch to the intent. Any mod
// the lossy control channel dropped, duplicated out of order, or abandoned
// after retries is repaired here; repairs travel over the same (possibly
// faulty) channel, so callers loop reconcile+settle until an audit finds no
// divergence (`runToConvergence`), or enable a periodic pass under the
// simulator clock.
//
// A switch is audited only when quiescent (no mods in flight towards it —
// in-flight mods would be double-counted as divergence) and its control
// session is connected; skipped switches are reported and re-audited on the
// next round.
#pragma once

#include <cstdint>

#include "controller/controller.hpp"

namespace pleroma::ctrl {

struct ReconcileReport {
  std::size_t switchesAudited = 0;
  /// Switches whose audit was deferred: control session down or mods still
  /// in flight towards them. Failed (inactive) switches are neither audited
  /// nor skipped — with table cleared and mirror forgotten they are
  /// vacuously converged.
  std::size_t switchesSkipped = 0;
  std::size_t repairAdds = 0;
  std::size_t repairModifies = 0;
  std::size_t repairDeletes = 0;
  /// Sum of FlowEntry::matchedPackets over all audited entries — the
  /// data-plane activity observed through the flow-stats reads.
  std::uint64_t matchedPacketsSeen = 0;

  std::size_t repairMods() const noexcept {
    return repairAdds + repairModifies + repairDeletes;
  }
  /// An audit round is clean when every switch was audited and none needed
  /// repair — the network provably matches the controller's intent.
  bool clean() const noexcept {
    return switchesSkipped == 0 && repairMods() == 0;
  }
};

class Reconciler {
 public:
  explicit Reconciler(Controller& controller) : controller_(controller) {}

  /// Audits one switch and issues repair mods for every divergence between
  /// the controller mirror and the switch's actual table.
  ReconcileReport reconcileSwitch(net::NodeId sw);

  /// Audits every active switch of the controller's scope.
  ReconcileReport reconcileAll();

  /// Repeats reconcileAll + draining the simulator until a round is clean.
  /// Returns the number of rounds used (0 = already clean on entry);
  /// returns maxRounds when convergence was not reached — with a positive
  /// retry budget on the channel this only happens for pathological drop
  /// probabilities.
  std::size_t runToConvergence(std::size_t maxRounds = 16);

  /// Schedules a reconcileAll every `interval` of simulated time. The tick
  /// re-arms itself, so the simulator queue never drains while enabled —
  /// drive the clock with runUntil(), not run().
  void enablePeriodic(net::SimTime interval);
  void disablePeriodic() { periodicInterval_ = 0; }
  bool periodicEnabled() const noexcept { return periodicInterval_ > 0; }

  const ReconcileReport& lastReport() const noexcept { return last_; }
  std::uint64_t roundsRun() const noexcept { return rounds_; }
  /// Total repair mods issued over the reconciler's lifetime.
  std::uint64_t totalRepairMods() const noexcept { return totalRepairs_; }

 private:
  void repair(openflow::FlowModType type, net::NodeId sw,
              const net::FlowEntry& entry, ReconcileReport& report);
  void scheduleTick();

  /// Repair mods for the switch being audited; flushed through
  /// ControlChannel::sendBatch at the end of each reconcileSwitch pass, so
  /// with batching enabled one audit costs one control message.
  std::vector<openflow::FlowMod> repairBatch_;

  Controller& controller_;
  ReconcileReport last_;
  net::SimTime periodicInterval_ = 0;
  bool tickArmed_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t totalRepairs_ = 0;
};

}  // namespace pleroma::ctrl
