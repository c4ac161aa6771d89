#include "interop/multi_domain.hpp"

#include <deque>
#include <stdexcept>
#include <string>

#include "net/packet.hpp"

namespace pleroma::interop {

std::vector<PartitionId> contiguousPartitions(const net::Topology& topology,
                                              int k) {
  if (k < 1) {
    throw std::invalid_argument("partition count " + std::to_string(k) +
                                " is not positive");
  }
  std::vector<PartitionId> partitionOf(
      static_cast<std::size_t>(topology.nodeCount()), 0);
  const std::vector<net::NodeId> switches = topology.switches();
  const std::size_t n = switches.size();
  for (std::size_t i = 0; i < n; ++i) {
    partitionOf[static_cast<std::size_t>(switches[i])] =
        static_cast<PartitionId>(i * static_cast<std::size_t>(k) / n);
  }
  return partitionOf;
}

MultiDomain::MultiDomain(net::Topology topology,
                         std::vector<PartitionId> partitionOf,
                         dz::EventSpace space,
                         ctrl::ControllerConfig controllerConfig,
                         net::NetworkConfig networkConfig)
    : MultiDomain(std::make_unique<Owned>(std::move(topology), networkConfig),
                  std::move(partitionOf), std::move(space),
                  std::move(controllerConfig)) {}

MultiDomain::MultiDomain(std::unique_ptr<Owned> owned,
                         std::vector<PartitionId> partitionOf,
                         dz::EventSpace space,
                         ctrl::ControllerConfig controllerConfig)
    : MultiDomain(owned->network, std::move(partitionOf), std::move(space),
                  std::move(controllerConfig)) {
  owned_ = std::move(owned);
}

MultiDomain::MultiDomain(net::Network& network,
                         std::vector<PartitionId> partitionOf,
                         dz::EventSpace space,
                         ctrl::ControllerConfig controllerConfig)
    : network_(&network), partitionOfNode_(std::move(partitionOf)) {
  auto discoveries =
      openflow::discoverPartitions(network_->topology(), partitionOfNode_);
  network_->setPacketInHandler(
      [this](net::NodeId sw, net::PortId port, const net::Packet& pkt) {
        onPacketIn(sw, port, pkt);
      });

  partitions_.reserve(discoveries.size());
  for (auto& disc : discoveries) {
    auto part = std::make_unique<Partition>();
    part->id = disc.partition;
    ctrl::Scope scope{disc.switches, disc.internalLinks};
    part->ownController = std::make_unique<ctrl::Controller>(
        space, *network_, std::move(scope), controllerConfig);
    part->controller = part->ownController.get();
    for (const openflow::BorderPort& bp : disc.borderPorts) {
      part->gatewayTo.try_emplace(bp.neighborPartition, bp);
    }
    part->discovery = std::move(disc);
    partitions_.push_back(std::move(part));
  }
  keepSpanningTreeGateways();
}

void MultiDomain::keepSpanningTreeGateways() {
  // Breadth-first from the lowest unreached partition id, each partition's
  // gateways in neighbour-id order; the gateway that first reaches a
  // partition makes a tree edge.
  const std::size_t n = partitions_.size();
  std::vector<PartitionId> parent(n, -1);
  std::vector<bool> reached(n, false);
  std::deque<PartitionId> queue;
  for (std::size_t root = 0; root < n; ++root) {
    if (reached[root]) continue;
    reached[root] = true;
    queue.push_back(static_cast<PartitionId>(root));
    while (!queue.empty()) {
      const PartitionId p = queue.front();
      queue.pop_front();
      for (const auto& [neighbor, bp] :
           partitions_[static_cast<std::size_t>(p)]->gatewayTo) {
        const auto next = static_cast<std::size_t>(neighbor);
        if (reached[next]) continue;
        reached[next] = true;
        parent[next] = p;
        queue.push_back(neighbor);
      }
    }
  }
  for (const auto& part : partitions_) {
    const PartitionId up = parent[static_cast<std::size_t>(part->id)];
    std::erase_if(part->gatewayTo, [&](const auto& gateway) {
      return gateway.first != up &&
             parent[static_cast<std::size_t>(gateway.first)] != part->id;
    });
  }
}

ctrl::Controller& MultiDomain::controller(PartitionId p) {
  return *partitions_.at(static_cast<std::size_t>(p))->controller;
}

void MultiDomain::setController(PartitionId p, ctrl::Controller& controller) {
  partitions_.at(static_cast<std::size_t>(p))->controller = &controller;
}

const openflow::DiscoveryResult& MultiDomain::discovery(PartitionId p) const {
  return partitions_.at(static_cast<std::size_t>(p))->discovery;
}

const PartitionStats& MultiDomain::stats(PartitionId p) const {
  return partitions_.at(static_cast<std::size_t>(p))->stats;
}

PartitionId MultiDomain::partitionOfHost(net::NodeId host) const {
  const auto att = network_->topology().hostAttachment(host);
  return partitionOfNode_[static_cast<std::size_t>(att.switchNode)];
}

MultiDomain::Partition& MultiDomain::owningPartition(net::NodeId switchNode) {
  return *partitions_.at(
      static_cast<std::size_t>(partitionOfNode_[static_cast<std::size_t>(switchNode)]));
}

ctrl::Endpoint MultiDomain::virtualHostEndpoint(const Partition& part,
                                                PartitionId neighbor) const {
  const openflow::BorderPort& bp = part.gatewayTo.at(neighbor);
  // No rewrite: events leave with the dz address intact so the next
  // partition's flows keep forwarding them (Sec 4.2).
  return ctrl::Endpoint{bp.switchNode, bp.port, std::nullopt, net::kInvalidNode};
}

// ---- host-facing operations ---------------------------------------------

GlobalPublisherId MultiDomain::advertise(net::NodeId host,
                                         const dz::Rectangle& rect) {
  Partition& part = *partitions_.at(static_cast<std::size_t>(partitionOfHost(host)));
  ++part.stats.internalRequests;
  const ctrl::PublisherId local = part.controller->advertise(host, rect);
  const std::uint64_t sent = part.stats.messagesSent;
  // Flood to every neighbouring partition (covering-suppressed).
  forwardAdvertisement(part, part.controller->advertisementDz(local), /*except=*/-1);
  if (part.stats.messagesSent != sent) settle();
  return GlobalPublisherId{part.id, local};
}

GlobalSubscriptionId MultiDomain::subscribe(net::NodeId host,
                                            const dz::Rectangle& rect) {
  Partition& part = *partitions_.at(static_cast<std::size_t>(partitionOfHost(host)));
  ++part.stats.internalRequests;
  const ctrl::SubscriptionId local = part.controller->subscribe(host, rect);
  const std::uint64_t sent = part.stats.messagesSent;
  forwardSubscription(part, part.controller->subscriptionDz(local), /*except=*/-1);
  if (part.stats.messagesSent != sent) settle();
  return GlobalSubscriptionId{part.id, local};
}

void MultiDomain::unsubscribe(GlobalSubscriptionId id) {
  if (id.partition < 0) return;
  controller(id.partition).unsubscribe(id.local);
}

void MultiDomain::publish(net::NodeId host, const dz::Event& event,
                          net::EventId id) {
  Partition& part = *partitions_.at(static_cast<std::size_t>(partitionOfHost(host)));
  network_->sendFromHost(host, part.controller->makeEventPacket(host, event, id));
}

// ---- inter-controller propagation ----------------------------------------

void MultiDomain::forwardAdvertisement(Partition& part, const dz::DzSet& dz,
                                       PartitionId except) {
  for (const auto& [neighbor, bp] : part.gatewayTo) {
    if (neighbor == except) continue;
    dz::DzSet& forwarded = part.forwardedAdvs[neighbor];
    if (forwarded.coversSet(dz)) {
      ++part.stats.advsSuppressed;
      continue;
    }
    forwarded.unionWith(dz);
    sendToNeighbor(part, neighbor,
                   ControlMessage{ControlMessage::Kind::kAdvertisement, part.id, dz});
  }
}

void MultiDomain::forwardSubscription(Partition& part, const dz::DzSet& dz,
                                      PartitionId except) {
  // The subscription follows the reverse paths of the overlapping external
  // advertisements: forward only towards neighbours that relayed them.
  std::map<PartitionId, dz::DzSet> byNeighbor;
  for (const ExternalAdv& ext : part.externalAdvs) {
    if (ext.fromNeighbor == except) continue;
    const dz::DzSet overlap = ext.dz.intersect(dz);
    if (!overlap.empty()) byNeighbor[ext.fromNeighbor].unionWith(overlap);
  }
  for (auto& [neighbor, overlap] : byNeighbor) {
    dz::DzSet& forwarded = part.forwardedSubs[neighbor];
    if (forwarded.coversSet(overlap)) {
      ++part.stats.subsSuppressed;
      continue;
    }
    forwarded.unionWith(overlap);
    sendToNeighbor(
        part, neighbor,
        ControlMessage{ControlMessage::Kind::kSubscription, part.id, overlap});
  }
}

void MultiDomain::sendToNeighbor(Partition& part, PartitionId to,
                                 ControlMessage msg) {
  const openflow::BorderPort& bp = part.gatewayTo.at(to);
  ++part.stats.messagesSent;

  net::Packet pkt;
  pkt.dst = dz::kControlAddress;
  pkt.src = net::hostAddress(static_cast<net::NodeId>(part.id));
  pkt.sizeBytes = 64 + 16 * static_cast<int>(msg.dz.size());
  pkt.controlKind = 1;
  pkt.control = std::make_shared<ControlMessage>(std::move(msg));

  // The controller instructs its border switch to push the packet out of
  // the border port; the remote border switch punts it to its controller.
  network_->sendOutPort(bp.switchNode, bp.port, std::move(pkt));
}

void MultiDomain::onPacketIn(net::NodeId switchNode, net::PortId inPort,
                             const net::Packet& packet) {
  (void)inPort;
  if (packet.controlKind != 1 || packet.control == nullptr) return;
  const auto& msg = *static_cast<const ControlMessage*>(packet.control.get());
  Partition& part = owningPartition(switchNode);
  switch (msg.kind) {
    case ControlMessage::Kind::kAdvertisement:
      handleExternalAdvertisement(part, msg.fromPartition, msg.dz);
      break;
    case ControlMessage::Kind::kSubscription:
      handleExternalSubscription(part, msg.fromPartition, msg.dz);
      break;
  }
}

void MultiDomain::handleExternalAdvertisement(Partition& part, PartitionId from,
                                              const dz::DzSet& dz) {
  ++part.stats.externalRequests;
  // Perceived as an advertisement from a virtual host on the border switch
  // (Sec 4.2): subsequent local subscriptions connect to that port.
  const ctrl::PublisherId local =
      part.controller->advertiseEndpoint(virtualHostEndpoint(part, from), dz);
  part.externalAdvs.push_back(ExternalAdv{from, dz, local});
  // Relay onwards so the advertisement reaches every partition.
  forwardAdvertisement(part, dz, /*except=*/from);

  // Local subscriptions that arrived before this advertisement need their
  // interest forwarded towards the advertisement's origin now.
  const dz::DzSet pendingInterest =
      part.controller->subscriptionUnion().intersect(dz);
  if (!pendingInterest.empty()) {
    dz::DzSet& forwarded = part.forwardedSubs[from];
    if (!forwarded.coversSet(pendingInterest)) {
      forwarded.unionWith(pendingInterest);
      sendToNeighbor(part, from,
                     ControlMessage{ControlMessage::Kind::kSubscription, part.id,
                                    pendingInterest});
    } else {
      ++part.stats.subsSuppressed;
    }
  }
}

void MultiDomain::handleExternalSubscription(Partition& part, PartitionId from,
                                             const dz::DzSet& dz) {
  ++part.stats.externalRequests;
  // Perceived as a subscription from a virtual host on the border switch:
  // local flows route matching events out of the border port.
  part.controller->subscribeEndpoint(virtualHostEndpoint(part, from), dz);
  // Continue along the reverse paths of overlapping external
  // advertisements towards their origins.
  forwardSubscription(part, dz, /*except=*/from);
}

std::uint64_t MultiDomain::totalControlMessages() const {
  std::uint64_t total = 0;
  for (const auto& part : partitions_) {
    total += part->stats.internalRequests + part->stats.messagesSent;
  }
  return total;
}

}  // namespace pleroma::interop
