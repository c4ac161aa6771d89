// The comparison baseline: a classical broker-based content pub/sub overlay
// (Sec 1, Sec 3.1, related work [2,8]). Brokers are co-located with the
// switches and organised in a single spanning tree; subscriptions propagate
// through the tree with covering-based suppression; every event is matched
// *in software* at every broker it traverses, adding per-broker processing
// delay — the detour-and-matching cost PLEROMA eliminates by filtering in
// TCAMs. Exact rectangle matching means zero false positives, at the price
// of per-event broker CPU work.
//
// The overlay is evaluated analytically on the shared topology (per-event
// DFS with accumulated delay), which is sufficient for the delay/bandwidth
// comparisons of the ablation bench.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "dz/event_space.hpp"
#include "net/topology.hpp"

namespace pleroma::baseline {

using SubscriptionId = std::int64_t;

struct BrokerConfig {
  /// Fixed per-broker forwarding/processing latency.
  net::SimTime brokerBaseDelay = 50 * net::kMicrosecond;
  /// Added matching cost per filter evaluated at a broker.
  net::SimTime perFilterMatchCost = 200 * net::kNanosecond;
  /// Root of the broker tree; defaults to the first switch.
  net::NodeId root = net::kInvalidNode;
};

class BrokerOverlay {
 public:
  explicit BrokerOverlay(net::Topology topology, BrokerConfig config = {});

  SubscriptionId subscribe(net::NodeId host, dz::Rectangle rect);

  struct Delivery {
    net::NodeId host = net::kInvalidNode;
    net::SimTime delay = 0;
  };
  struct PublishResult {
    std::vector<Delivery> deliveries;
    std::uint64_t linkCrossings = 0;
    std::uint64_t bytesOnLinks = 0;
    /// Filters evaluated across all brokers for this event.
    std::uint64_t matchOperations = 0;
  };

  /// Injects an event at the publisher's access broker and routes it
  /// through the overlay. Deterministic; no global clock needed.
  PublishResult publish(net::NodeId host, const dz::Event& event,
                        int packetBytes = 64) const;

  /// Total filters stored across all brokers (routing-state footprint).
  std::size_t totalRoutingEntries() const noexcept;
  /// Subscription messages exchanged between brokers so far (control cost).
  std::uint64_t subscriptionMessages() const noexcept { return subMessages_; }

  const net::Topology& topology() const noexcept { return topo_; }

 private:
  /// Routing entry at a broker: forward events matching `rect` towards
  /// `direction` (a neighbouring broker or a locally attached host).
  struct Entry {
    SubscriptionId id;
    net::NodeId direction;
    dz::Rectangle rect;
  };

  std::vector<net::NodeId> treeNeighbors(net::NodeId broker) const;
  void propagateSubscription(SubscriptionId id, const dz::Rectangle& rect,
                             net::NodeId broker, net::NodeId fromDirection);

  net::Topology topo_;
  BrokerConfig config_;
  net::NodeId root_ = net::kInvalidNode;
  /// Broker-tree parent per switch (kInvalidNode at root / non-switch).
  std::vector<net::NodeId> parent_;
  /// Per-broker routing tables.
  std::map<net::NodeId, std::vector<Entry>> tables_;
  std::map<SubscriptionId, net::NodeId> subscriberHost_;
  SubscriptionId next_ = 0;
  std::uint64_t subMessages_ = 0;
};

}  // namespace pleroma::baseline
