#include "controller/load_monitor.hpp"

#include <algorithm>
#include <limits>

namespace pleroma::ctrl {

LoadMonitor::LoadMonitor(Controller& controller, LoadMonitorConfig config)
    : controller_(controller), config_(config) {
  auto& net = controller_.network();
  previousPackets_.assign(static_cast<std::size_t>(net.topology().linkCount()), 0);
  for (net::LinkId l = 0; l < net.topology().linkCount(); ++l) {
    previousPackets_[static_cast<std::size_t>(l)] = net.linkCounters(l).packets;
  }
  previousTime_ = net.simulator().now();
}

LoadReport LoadMonitor::sample() {
  auto& net = controller_.network();
  const net::Topology& topo = net.topology();

  LoadReport report;
  report.windowStart = previousTime_;
  report.windowEnd = net.simulator().now();

  if (cooldown_ > 0) --cooldown_;

  std::uint64_t total = 0;
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    const net::Link& link = topo.link(l);
    const std::uint64_t now = net.linkCounters(l).packets;
    const std::uint64_t delta = now - previousPackets_[static_cast<std::size_t>(l)];
    previousPackets_[static_cast<std::size_t>(l)] = now;
    if (!topo.isSwitch(link.a.node) || !topo.isSwitch(link.b.node)) continue;
    if (delta == 0) continue;
    report.links.push_back(LinkLoad{l, delta});
    total += delta;
  }
  previousTime_ = report.windowEnd;

  std::sort(report.links.begin(), report.links.end(),
            [](const LinkLoad& a, const LinkLoad& b) {
              return a.packetsInWindow > b.packetsInWindow;
            });
  if (!report.links.empty()) {
    report.meanPackets =
        static_cast<double>(total) / static_cast<double>(report.links.size());
    report.overloaded =
        static_cast<double>(report.links.front().packetsInWindow) >
        config_.hotLinkThreshold * report.meanPackets;
  }

  // Congestion view (DESIGN.md §15): a standing queue or queue losses on a
  // switch-switch link flag an overload even when raw packet rates look
  // balanced, and pin that link as the hottest so rebalanceOnce() targets
  // the tree crossing it.
  if (congestion_ != nullptr) {
    net::LinkId hotLink = net::kInvalidLink;
    double hotScore = 0.0;
    for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
      const net::Link& link = topo.link(l);
      if (!topo.isSwitch(link.a.node) || !topo.isSwitch(link.b.node)) continue;
      const double s = congestion_->score(l);
      if (s > hotScore) {
        hotScore = s;
        hotLink = l;
      }
    }
    if (hotLink != net::kInvalidLink &&
        hotScore >= config_.congestionScoreThreshold) {
      report.overloaded = true;
      const auto it = std::find_if(
          report.links.begin(), report.links.end(),
          [&](const LinkLoad& ll) { return ll.link == hotLink; });
      if (it == report.links.end()) {
        report.links.insert(report.links.begin(), LinkLoad{hotLink, 0});
      } else {
        std::rotate(report.links.begin(), it, it + 1);
      }
    }
  }
  last_ = report;
  return report;
}

int LoadMonitor::busiestTreeOn(net::LinkId link) const {
  const net::Topology& topo = controller_.network().topology();
  const auto crosses = [&](const RouteHop& hop) {
    return topo.linkAt(hop.switchNode, hop.outPort) == link;
  };
  int best = -1;
  std::size_t bestCount = 0;
  for (const SpanningTree* tree : controller_.trees()) {
    std::size_t count = 0;
    for (const auto& [hops, paths] :
         controller_.registry().routesOfTree(tree->id())) {
      if (std::any_of(hops->begin(), hops->end(), crosses)) count += paths;
    }
    if (count > bestCount) {
      bestCount = count;
      best = tree->id();
    }
  }
  return best;
}

net::NodeId LoadMonitor::coldestSwitch() const {
  const auto& net = controller_.network();
  const net::Topology& topo = net.topology();
  net::NodeId coldest = net::kInvalidNode;
  std::uint64_t coldestLoad = std::numeric_limits<std::uint64_t>::max();
  for (const net::NodeId sw : controller_.scope().switches) {
    // A dead switch's links stop counting, so it would look coldest.
    if (!controller_.switchActive(sw)) continue;
    std::uint64_t load = 0;
    for (const auto& [port, lid] : topo.portsOf(sw)) {
      load += net.linkCounters(lid).packets;
    }
    if (load < coldestLoad) {
      coldestLoad = load;
      coldest = sw;
    }
  }
  return coldest;
}

const std::vector<net::SimTime>* LoadMonitor::congestionCosts() {
  if (congestion_ == nullptr || config_.congestionFactor <= 0.0) return nullptr;
  const double maxScore = congestion_->maxScore();
  if (maxScore <= 0.0) return nullptr;
  const net::Topology& topo = controller_.network().topology();
  scratch_.assign(static_cast<std::size_t>(topo.linkCount()), 0);
  for (net::LinkId l = 0; l < topo.linkCount(); ++l) {
    const double inflate =
        1.0 + config_.congestionFactor * congestion_->score(l) / maxScore;
    scratch_[static_cast<std::size_t>(l)] = static_cast<net::SimTime>(
        static_cast<double>(topo.link(l).latency) * inflate);
  }
  return &scratch_;
}

bool LoadMonitor::rebalanceOnce() {
  if (cooldown_ > 0) return false;
  if (!last_.overloaded || last_.links.empty()) return false;
  const int treeId = busiestTreeOn(last_.links.front().link);
  if (treeId < 0) return false;
  const net::NodeId newRoot = coldestSwitch();
  if (newRoot == net::kInvalidNode) return false;
  if (!controller_.rerootTree(treeId, newRoot, congestionCosts())) {
    return false;
  }
  ++rebalances_;
  cooldown_ = config_.rebalanceCooldown;
  return true;
}

void LoadMonitor::startPeriodic(net::SimTime interval) {
  periodicInterval_ = interval;
  if (!tickArmed_) scheduleTick();
}

void LoadMonitor::scheduleTick() {
  tickArmed_ = true;
  controller_.network().simulator().schedule(periodicInterval_, [this] {
    tickArmed_ = false;
    if (!periodicEnabled()) return;
    sample();
    rebalanceOnce();
    scheduleTick();
  });
}

}  // namespace pleroma::ctrl
