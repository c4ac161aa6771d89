// The physical network graph: switches, hosts, and bidirectional links with
// latency/bandwidth. Provides the builders used in the paper's evaluation —
// the hierarchical fat-tree of the Stuttgart SDN testbed (Fig 6: switches
// R1..R10, end hosts h1..h8) and the 20-switch fat-tree and ring topologies
// of the Mininet experiments — plus shortest-path computations that the
// controller uses to build spanning trees (Sec 3.2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace pleroma::net {

enum class NodeKind { kSwitch, kHost };

using LinkId = int;
inline constexpr LinkId kInvalidLink = -1;

struct LinkEnd {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
};

struct Link {
  LinkEnd a;
  LinkEnd b;
  SimTime latency = 50 * kMicrosecond;
  /// Bits per second; 0 means infinite (no transmission delay).
  double bandwidthBps = 0.0;

  LinkEnd peerOf(NodeId node) const noexcept { return a.node == node ? b : a; }
  LinkEnd endOf(NodeId node) const noexcept { return a.node == node ? a : b; }
};

struct Node {
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
  /// portLinks[p-1] is the link attached to port p (ports are 1-based).
  std::vector<LinkId> portLinks;
};

class Topology {
 public:
  NodeId addSwitch(std::string name = {});
  NodeId addHost(std::string name = {});

  /// Connects two nodes with a new link, assigning the next free port on
  /// each side. Returns the link id.
  LinkId connect(NodeId a, NodeId b, SimTime latency = 50 * kMicrosecond,
                 double bandwidthBps = 0.0);

  int nodeCount() const noexcept { return static_cast<int>(nodes_.size()); }
  int linkCount() const noexcept { return static_cast<int>(links_.size()); }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  bool isSwitch(NodeId id) const { return node(id).kind == NodeKind::kSwitch; }
  bool isHost(NodeId id) const { return node(id).kind == NodeKind::kHost; }

  std::vector<NodeId> switches() const;
  std::vector<NodeId> hosts() const;

  /// The link attached to a node's port, or kInvalidLink.
  LinkId linkAt(NodeId node, PortId port) const;

  /// Other end of the port's link: (peer node, peer port). Requires a link
  /// at that port.
  LinkEnd peer(NodeId node, PortId port) const;

  /// All (port, link) pairs of a node.
  std::vector<std::pair<PortId, LinkId>> portsOf(NodeId node) const;

  /// For a host (degree-1 node): the switch it attaches to, the switch-side
  /// port, and the host-side port.
  struct Attachment {
    NodeId switchNode = kInvalidNode;
    PortId switchPort = kInvalidPort;
    PortId hostPort = kInvalidPort;
  };
  Attachment hostAttachment(NodeId host) const;

  /// Single-source shortest paths by link latency (Dijkstra). Unreachable
  /// nodes keep parentLink = kInvalidLink and infinite distance.
  struct ShortestPaths {
    NodeId source = kInvalidNode;
    std::vector<SimTime> distance;
    std::vector<LinkId> parentLink;  // link towards the source
    std::vector<NodeId> parentNode;
  };
  ShortestPaths shortestPathsFrom(NodeId source) const;

  /// Node sequence of the shortest path src..dst (inclusive); empty when
  /// unreachable.
  std::vector<NodeId> shortestPath(NodeId src, NodeId dst) const;

  // ---- builders ------------------------------------------------------
  // All builders take an optional uniform link bandwidth (bits/second);
  // 0 keeps the default infinite-bandwidth links. Finite bandwidth is what
  // makes the finite link queues of DESIGN.md §15 bind.

  /// The testbed topology of Fig 6: 2 core switches, 4 aggregation, 4 edge
  /// (R1..R10), and 8 end hosts, two per edge switch.
  static Topology testbedFatTree(SimTime linkLatency = 50 * kMicrosecond,
                                 double bandwidthBps = 0.0);

  /// Generic two-level fat-tree: `core` core switches each connected to all
  /// aggregation switches; `edgePerAgg` edge switches per aggregation
  /// switch; `hostsPerEdge` hosts per edge switch.
  static Topology fatTree(int core, int aggregation, int edgePerAgg,
                          int hostsPerEdge, SimTime linkLatency = 50 * kMicrosecond,
                          double bandwidthBps = 0.0);

  /// Canonical k-ary (3-level) fat-tree: (k/2)^2 core switches, k pods of
  /// k/2 aggregation + k/2 edge switches, k/2 hosts per edge switch.
  /// `k` must be even and >= 2. k=4 gives 20 switches / 16 hosts — the
  /// Mininet-scale configuration of Sec 6.1.
  static Topology kAryFatTree(int k, SimTime linkLatency = 50 * kMicrosecond,
                              double bandwidthBps = 0.0);

  /// Ring of `numSwitches` switches, one host per switch (the Mininet ring
  /// configuration of Sec 6.1).
  static Topology ring(int numSwitches, SimTime linkLatency = 50 * kMicrosecond,
                       double bandwidthBps = 0.0);

  /// Line of `numSwitches` switches, one host per switch; handy in tests.
  static Topology line(int numSwitches, SimTime linkLatency = 50 * kMicrosecond,
                       double bandwidthBps = 0.0);

  /// Random connected switch graph: a random spanning tree plus
  /// `extraLinks` additional random switch-switch links (no duplicates or
  /// self-loops), one host per switch. Deterministic per seed. Used by the
  /// property tests to exercise routing on irregular topologies.
  static Topology randomConnected(int numSwitches, int extraLinks,
                                  std::uint64_t seed,
                                  SimTime linkLatency = 50 * kMicrosecond,
                                  double bandwidthBps = 0.0);

 private:
  PortId allocatePort(NodeId node, LinkId link);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
};

}  // namespace pleroma::net
