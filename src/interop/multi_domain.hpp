// Interoperability of independently controlled partitions (Sec 4). A
// MultiDomain instantiates one PLEROMA controller per partition of a shared
// physical topology, discovers border gateways with the LLDP mechanism, and
// propagates advertisements/subscriptions between controllers:
//
//  * advertisements flood to all partitions along a spanning tree of the
//    partition graph (registered remotely as *virtual hosts* on the
//    receiving border switch port), so a cycle of partitions never
//    delivers an event twice (DESIGN.md §5);
//  * subscriptions follow the reverse path of the overlapping external
//    advertisements, and events the subscriptions' flows, so both stay on
//    the tree;
//  * both directions apply covering-based suppression — a request is only
//    forwarded to a neighbour if it is not covered by what was previously
//    forwarded there (Sec 4.2).
//
// Inter-controller messages travel through the data plane as packets to the
// reserved IP_mid address, pushed out of the local border port and punted
// to the remote controller by the remote border switch — exactly the
// mechanism of Sec 4.1. Figs 7g/7h measure the per-controller request load
// and the total control traffic this produces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "openflow/lldp.hpp"

namespace pleroma::interop {

using openflow::PartitionId;

/// A registration handle that names the owning partition.
struct GlobalPublisherId {
  PartitionId partition = -1;
  ctrl::PublisherId local = ctrl::kInvalidPublisher;
};
struct GlobalSubscriptionId {
  PartitionId partition = -1;
  ctrl::SubscriptionId local = ctrl::kInvalidSubscription;
};

/// Contiguous assignment of switches to `k` partitions: switch i of the n
/// in Topology::switches() belongs to partition floor(i*k/n). Host entries
/// stay 0 (hosts belong to their access switch's partition). Throws
/// std::invalid_argument for k < 1.
std::vector<PartitionId> contiguousPartitions(const net::Topology& topology,
                                              int k);

/// Control-load accounting per partition (Fig 7g/7h).
struct PartitionStats {
  std::uint64_t internalRequests = 0;  ///< adv/sub from local end hosts
  std::uint64_t externalRequests = 0;  ///< adv/sub received from neighbours
  std::uint64_t messagesSent = 0;      ///< inter-controller messages emitted
  std::uint64_t advsSuppressed = 0;    ///< covering suppression hits (adv)
  std::uint64_t subsSuppressed = 0;    ///< covering suppression hits (sub)

  std::uint64_t requestsProcessed() const noexcept {
    return internalRequests + externalRequests;
  }
};

class MultiDomain {
 public:
  /// Runs the partitions over an existing network (and its simulator),
  /// which must outlive this object. Installs the network's packet-in
  /// handler; the deliver handler is left to the caller.
  /// `partitionOf[node]` assigns each switch to a partition id in
  /// [0, numPartitions); host entries are ignored (hosts belong to their
  /// access switch's partition).
  MultiDomain(net::Network& network, std::vector<PartitionId> partitionOf,
              dz::EventSpace space, ctrl::ControllerConfig controllerConfig = {});

  /// Builds and owns its own simulator and network over `topology`.
  MultiDomain(net::Topology topology, std::vector<PartitionId> partitionOf,
              dz::EventSpace space, ctrl::ControllerConfig controllerConfig = {},
              net::NetworkConfig networkConfig = {});

  /// The network's packet-in handler holds `this`.
  MultiDomain(const MultiDomain&) = delete;
  MultiDomain& operator=(const MultiDomain&) = delete;

  std::size_t partitionCount() const noexcept { return partitions_.size(); }
  ctrl::Controller& controller(PartitionId p);
  /// Hands partition `p` to a controller this object does not own (a
  /// promoted standby); the partition's own controller stays alive.
  void setController(PartitionId p, ctrl::Controller& controller);
  const openflow::DiscoveryResult& discovery(PartitionId p) const;
  const PartitionStats& stats(PartitionId p) const;
  PartitionId partitionOfHost(net::NodeId host) const;

  net::Network& network() noexcept { return *network_; }
  net::Simulator& simulator() noexcept { return network_->simulator(); }

  // advertise and subscribe run the simulator until idle only when they
  // sent a relay, which must land before the next registration's covering
  // suppression; otherwise pending events and periodic ticks keep waiting.

  /// Registers an advertisement at the host's local controller, then floods
  /// it across partitions (with covering suppression).
  GlobalPublisherId advertise(net::NodeId host, const dz::Rectangle& rect);

  /// Registers a subscription locally, then forwards it along the reverse
  /// paths of overlapping external advertisements.
  GlobalSubscriptionId subscribe(net::NodeId host, const dz::Rectangle& rect);

  /// Removes a subscription's paths in its home partition. Interest already
  /// relayed to other partitions is retained conservatively (the paper does
  /// not define cross-partition retraction; covering state makes it
  /// ambiguous which relays are still needed by other subscribers) — events
  /// may still cross borders and are then dropped at the first switch with
  /// no matching flow, costing bandwidth but never false deliveries.
  void unsubscribe(GlobalSubscriptionId id);

  /// Publishes an event from `host` into the data plane. Delivery happens
  /// as the simulator runs (`settle()` or manual stepping).
  void publish(net::NodeId host, const dz::Event& event, net::EventId id = 0);

  /// Runs the simulator until idle.
  void settle() { simulator().run(); }

  std::uint64_t totalControlMessages() const;

 private:
  // One inter-controller message (carried inside an IP_mid packet).
  struct ControlMessage {
    enum class Kind { kAdvertisement, kSubscription } kind = Kind::kAdvertisement;
    PartitionId fromPartition = -1;
    dz::DzSet dz;
  };

  struct ExternalAdv {
    PartitionId fromNeighbor = -1;
    dz::DzSet dz;
    ctrl::PublisherId localPublisher = ctrl::kInvalidPublisher;
  };

  struct Partition {
    PartitionId id = -1;
    openflow::DiscoveryResult discovery;
    std::unique_ptr<ctrl::Controller> ownController;
    ctrl::Controller* controller = nullptr;  ///< in charge; see setController
    PartitionStats stats;
    /// First border port towards each neighbouring partition on the
    /// spanning tree (used both as messaging gateway and as the
    /// virtual-host endpoint).
    std::map<PartitionId, openflow::BorderPort> gatewayTo;
    /// Covering-suppression state per neighbour.
    std::map<PartitionId, dz::DzSet> forwardedAdvs;
    std::map<PartitionId, dz::DzSet> forwardedSubs;
    /// External advertisements registered here as virtual hosts.
    std::vector<ExternalAdv> externalAdvs;
  };

  /// The simulator and network of the owning constructor.
  struct Owned {
    Owned(net::Topology topology, net::NetworkConfig config)
        : network(std::move(topology), sim, config) {}
    net::Simulator sim;
    net::Network network;
  };
  MultiDomain(std::unique_ptr<Owned> owned, std::vector<PartitionId> partitionOf,
              dz::EventSpace space, ctrl::ControllerConfig controllerConfig);

  /// Prunes every gatewayTo to the edges of a breadth-first spanning tree
  /// of the partition graph.
  void keepSpanningTreeGateways();
  Partition& owningPartition(net::NodeId switchNode);
  void onPacketIn(net::NodeId switchNode, net::PortId inPort,
                  const net::Packet& packet);
  void handleExternalAdvertisement(Partition& part, PartitionId from,
                                   const dz::DzSet& dz);
  void handleExternalSubscription(Partition& part, PartitionId from,
                                  const dz::DzSet& dz);
  /// Sends `msg` from `part` to neighbour `to` through the data plane.
  void sendToNeighbor(Partition& part, PartitionId to, ControlMessage msg);
  /// Floods an advertisement to all neighbours except `except`, applying
  /// covering suppression.
  void forwardAdvertisement(Partition& part, const dz::DzSet& dz,
                            PartitionId except);
  /// Forwards a subscription towards neighbours with overlapping external
  /// advertisements, applying covering suppression.
  void forwardSubscription(Partition& part, const dz::DzSet& dz,
                           PartitionId except);
  ctrl::Endpoint virtualHostEndpoint(const Partition& part, PartitionId neighbor) const;

  /// Declared first: outlives the partition controllers that use it.
  std::unique_ptr<Owned> owned_;
  net::Network* network_;
  std::vector<PartitionId> partitionOfNode_;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace pleroma::interop
