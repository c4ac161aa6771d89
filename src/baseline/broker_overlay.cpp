#include "baseline/broker_overlay.hpp"

#include <algorithm>
#include <cassert>

namespace pleroma::baseline {

namespace {
bool rectCovers(const dz::Rectangle& outer, const dz::Rectangle& inner) {
  assert(outer.ranges.size() == inner.ranges.size());
  for (std::size_t i = 0; i < outer.ranges.size(); ++i) {
    if (!outer.ranges[i].containsRange(inner.ranges[i])) return false;
  }
  return true;
}
}  // namespace

BrokerOverlay::BrokerOverlay(net::Topology topology, BrokerConfig config)
    : topo_(std::move(topology)), config_(config) {
  root_ = config_.root != net::kInvalidNode ? config_.root : topo_.switches().front();
  // Broker tree: shortest-path tree over the switches from the root.
  const auto sp = topo_.shortestPathsFrom(root_);
  parent_.assign(static_cast<std::size_t>(topo_.nodeCount()), net::kInvalidNode);
  for (const net::NodeId sw : topo_.switches()) {
    parent_[static_cast<std::size_t>(sw)] = sp.parentNode[static_cast<std::size_t>(sw)];
  }
}

std::vector<net::NodeId> BrokerOverlay::treeNeighbors(net::NodeId broker) const {
  std::vector<net::NodeId> out;
  if (parent_[static_cast<std::size_t>(broker)] != net::kInvalidNode) {
    out.push_back(parent_[static_cast<std::size_t>(broker)]);
  }
  for (const net::NodeId sw : topo_.switches()) {
    if (parent_[static_cast<std::size_t>(sw)] == broker) out.push_back(sw);
  }
  return out;
}

SubscriptionId BrokerOverlay::subscribe(net::NodeId host, dz::Rectangle rect) {
  assert(topo_.isHost(host));
  const SubscriptionId id = next_++;
  subscriberHost_[id] = host;
  const net::NodeId access = topo_.hostAttachment(host).switchNode;
  // The access broker learns to deliver towards the host; then the interest
  // propagates through the broker tree with covering suppression.
  tables_[access].push_back(Entry{id, host, rect});
  propagateSubscription(id, rect, access, host);
  return id;
}

void BrokerOverlay::propagateSubscription(SubscriptionId id,
                                          const dz::Rectangle& rect,
                                          net::NodeId broker,
                                          net::NodeId fromDirection) {
  for (const net::NodeId next : treeNeighbors(broker)) {
    if (next == fromDirection) continue;
    // Covering: the neighbour need not learn this interest if it already
    // forwards a covering filter towards `broker`.
    auto& nextTable = tables_[next];
    const bool covered = std::any_of(
        nextTable.begin(), nextTable.end(), [&](const Entry& e) {
          return e.direction == broker && rectCovers(e.rect, rect);
        });
    if (covered) continue;
    ++subMessages_;
    nextTable.push_back(Entry{id, broker, rect});
    propagateSubscription(id, rect, next, broker);
  }
}

BrokerOverlay::PublishResult BrokerOverlay::publish(net::NodeId host,
                                                    const dz::Event& event,
                                                    int packetBytes) const {
  PublishResult result;
  const net::NodeId access = topo_.hostAttachment(host).switchNode;
  const net::SimTime accessLatency =
      topo_.link(topo_.linkAt(host, topo_.hostAttachment(host).hostPort)).latency;

  // DFS through the broker tree, accumulating delay; matching happens in
  // software at every traversed broker.
  auto visit = [&](auto&& self, net::NodeId broker, net::NodeId fromDirection,
                   net::SimTime arrival) -> void {
    const auto ti = tables_.find(broker);
    const std::size_t filters = ti == tables_.end() ? 0 : ti->second.size();
    result.matchOperations += filters;
    const net::SimTime departure =
        arrival + config_.brokerBaseDelay +
        static_cast<net::SimTime>(filters) * config_.perFilterMatchCost;
    if (ti == tables_.end()) return;

    // One forward per direction that has at least one matching filter.
    std::vector<net::NodeId> forwarded;
    for (const Entry& e : ti->second) {
      if (e.direction == fromDirection) continue;
      if (!e.rect.contains(event)) continue;
      if (std::find(forwarded.begin(), forwarded.end(), e.direction) !=
          forwarded.end()) {
        continue;
      }
      forwarded.push_back(e.direction);
      // Hop latency to the next node (broker or host) over the physical
      // link between them (tree edges are physical links).
      net::SimTime hop = 0;
      for (const auto& [port, lid] : topo_.portsOf(broker)) {
        if (topo_.link(lid).peerOf(broker).node == e.direction) {
          hop = topo_.link(lid).latency;
          break;
        }
      }
      ++result.linkCrossings;
      result.bytesOnLinks += static_cast<std::uint64_t>(packetBytes);
      if (topo_.isHost(e.direction)) {
        result.deliveries.push_back(Delivery{e.direction, departure + hop});
      } else {
        self(self, e.direction, broker, departure + hop);
      }
    }
  };

  ++result.linkCrossings;  // publisher -> access broker
  result.bytesOnLinks += static_cast<std::uint64_t>(packetBytes);
  visit(visit, access, host, accessLatency);
  return result;
}

std::size_t BrokerOverlay::totalRoutingEntries() const noexcept {
  std::size_t total = 0;
  for (const auto& [broker, table] : tables_) total += table.size();
  return total;
}

}  // namespace pleroma::baseline
