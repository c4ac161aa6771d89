// Topology discovery (Sec 4.1). Each controller floods LLDP probes through
// the switches it manages: a switch receiving an LLDP probe directly from
// its controller re-emits it on all ports; a switch receiving one from
// another switch punts it back to its controller, which records the link.
// Probes that cross into a differently-controlled partition reach a foreign
// controller — instead of discarding them (the Floodlight default), PLEROMA
// records the receiving (switch, port) tuple as a *border port* towards the
// probing partition.
//
// The simulation executes exactly this exchange over the shared physical
// topology, given the node→partition assignment.
#pragma once

#include <vector>

#include "net/topology.hpp"

namespace pleroma::openflow {

using PartitionId = int;

/// A border gateway port: local switch/port whose link leads into a
/// neighbouring partition.
struct BorderPort {
  net::NodeId switchNode = net::kInvalidNode;
  net::PortId port = net::kInvalidPort;
  PartitionId neighborPartition = -1;
};

/// What one controller learns about its own partition.
struct DiscoveryResult {
  PartitionId partition = -1;
  std::vector<net::NodeId> switches;           ///< switches it controls
  std::vector<net::LinkId> internalLinks;      ///< switch-switch links inside
  std::vector<BorderPort> borderPorts;         ///< ports into neighbours
  std::vector<net::NodeId> hosts;              ///< hosts attached inside
};

/// Runs the LLDP exchange for every partition at once. `partitionOf[node]`
/// assigns each node to a partition (hosts belong to the partition of their
/// access switch and their assignment is ignored).
std::vector<DiscoveryResult> discoverPartitions(
    const net::Topology& topology, const std::vector<PartitionId>& partitionOf);

}  // namespace pleroma::openflow
