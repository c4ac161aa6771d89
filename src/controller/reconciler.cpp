#include "controller/reconciler.hpp"

#include <map>
#include <vector>

namespace pleroma::ctrl {

void Reconciler::repair(openflow::FlowModType type, net::NodeId sw,
                        const net::FlowEntry& entry, ReconcileReport& report) {
  switch (type) {
    case openflow::FlowModType::kAdd:
      ++report.repairAdds;
      break;
    case openflow::FlowModType::kModify:
      ++report.repairModifies;
      break;
    case openflow::FlowModType::kDelete:
      ++report.repairDeletes;
      break;
  }
  ++totalRepairs_;
  // Repairs bypass the installer: the mirror already *is* the intended
  // state, only the switch must move. They are collected per audited
  // switch and flushed as one sendBatch — a single message when the
  // channel batches, the identical per-mod sends otherwise.
  repairBatch_.push_back({type, sw, entry});
}

ReconcileReport Reconciler::reconcileSwitch(net::NodeId sw) {
  ReconcileReport report;
  openflow::ControlChannel& channel = controller_.channel();
  // A failed switch has no state to audit: its table was cleared and the
  // mirror forgotten, so it is vacuously converged (neither audited nor
  // skipped — a permanent outage must not block convergence).
  if (!controller_.switchActive(sw)) return report;
  if (!channel.switchConnected(sw) || !channel.quiescent(sw)) {
    ++report.switchesSkipped;
    return report;
  }

  // Audit through the OpenFlow flow-stats read: the switch's actual entries
  // with their per-flow packet counters. A reply can still fail if the
  // control session dropped between the connectivity check and the read.
  const openflow::FlowStatsReply reply = channel.requestFlowStats(sw);
  if (!reply.ok) {
    ++report.switchesSkipped;
    return report;
  }
  ++report.switchesAudited;

  const auto& mirror = controller_.installer().mirror(sw);
  std::map<dz::DzExpression, const net::FlowEntry*> actual;
  std::vector<const net::FlowEntry*> orphans;
  for (const net::FlowEntry& entry : reply.entries) {
    report.matchedPacketsSeen += entry.matchedPackets;
    const auto d = dz::prefixToDz(entry.match);
    if (!d.has_value()) {
      orphans.push_back(&entry);
      continue;
    }
    actual.emplace(*d, &entry);
  }

  // Intent side: every mirrored flow must exist on the switch, verbatim.
  for (const auto& [d, entry] : mirror) {
    const auto it = actual.find(d);
    if (it == actual.end()) {
      repair(openflow::FlowModType::kAdd, sw, entry, report);
    } else if (*it->second != entry) {
      repair(openflow::FlowModType::kModify, sw, entry, report);
    }
  }
  // Switch side: flows the intent does not know about are orphans (lost
  // deletes, duplicated adds applied after a delete, pre-failure residue).
  for (const auto& [d, entry] : actual) {
    if (!mirror.contains(d)) orphans.push_back(entry);
  }
  for (const net::FlowEntry* entry : orphans) {
    repair(openflow::FlowModType::kDelete, sw, *entry, report);
  }
  if (!repairBatch_.empty()) {
    controller_.channel().sendBatch(repairBatch_);
    repairBatch_.clear();
  }
  return report;
}

ReconcileReport Reconciler::reconcileAll() {
  ReconcileReport total;
  for (const net::NodeId sw : controller_.scope().switches) {
    const ReconcileReport r = reconcileSwitch(sw);
    total.switchesAudited += r.switchesAudited;
    total.switchesSkipped += r.switchesSkipped;
    total.repairAdds += r.repairAdds;
    total.repairModifies += r.repairModifies;
    total.repairDeletes += r.repairDeletes;
    total.matchedPacketsSeen += r.matchedPacketsSeen;
  }
  ++rounds_;
  last_ = total;
  return total;
}

std::size_t Reconciler::runToConvergence(std::size_t maxRounds) {
  net::Simulator& sim = controller_.network().simulator();
  for (std::size_t round = 0; round < maxRounds; ++round) {
    // Drain in-flight mods (and their retries) so every switch is
    // quiescent and the audit sees settled state.
    sim.run();
    if (reconcileAll().clean()) return round;
  }
  sim.run();
  return maxRounds;
}

void Reconciler::enablePeriodic(net::SimTime interval) {
  periodicInterval_ = interval;
  if (!tickArmed_) scheduleTick();
}

void Reconciler::scheduleTick() {
  tickArmed_ = true;
  controller_.network().simulator().schedule(periodicInterval_, [this] {
    tickArmed_ = false;
    if (!periodicEnabled()) return;
    reconcileAll();
    scheduleTick();
  });
}

}  // namespace pleroma::ctrl
