#include "openflow/lldp.hpp"

#include <algorithm>
#include <cassert>

namespace pleroma::openflow {

std::vector<DiscoveryResult> discoverPartitions(
    const net::Topology& topology, const std::vector<PartitionId>& partitionOf) {
  assert(partitionOf.size() == static_cast<std::size_t>(topology.nodeCount()));

  PartitionId maxPartition = -1;
  for (net::NodeId n = 0; n < topology.nodeCount(); ++n) {
    if (topology.isSwitch(n)) maxPartition = std::max(maxPartition, partitionOf[static_cast<std::size_t>(n)]);
  }
  std::vector<DiscoveryResult> results(static_cast<std::size_t>(maxPartition + 1));
  for (PartitionId p = 0; p <= maxPartition; ++p) {
    results[static_cast<std::size_t>(p)].partition = p;
  }

  auto partOfSwitch = [&](net::NodeId n) { return partitionOf[static_cast<std::size_t>(n)]; };

  for (net::NodeId n = 0; n < topology.nodeCount(); ++n) {
    if (topology.isSwitch(n)) {
      results[static_cast<std::size_t>(partOfSwitch(n))].switches.push_back(n);
    } else {
      const auto att = topology.hostAttachment(n);
      results[static_cast<std::size_t>(partOfSwitch(att.switchNode))].hosts.push_back(n);
    }
  }

  // The LLDP exchange: every switch R (on behalf of its controller) emits a
  // probe on every port; the receiving end classifies the link.
  for (net::LinkId l = 0; l < topology.linkCount(); ++l) {
    const net::Link& link = topology.link(l);
    const net::NodeId a = link.a.node;
    const net::NodeId b = link.b.node;
    if (topology.isHost(a) || topology.isHost(b)) continue;  // hosts drop LLDP
    const PartitionId pa = partOfSwitch(a);
    const PartitionId pb = partOfSwitch(b);
    if (pa == pb) {
      // The foreign-side switch hands the probe to its own controller,
      // which here is also the probing controller: an internal link.
      results[static_cast<std::size_t>(pa)].internalLinks.push_back(l);
    } else {
      // The probe from a's controller arrives at b, whose controller is
      // different: b's controller records (b, port) as a border port toward
      // pa — and symmetrically for the probe in the other direction.
      results[static_cast<std::size_t>(pb)].borderPorts.push_back(
          BorderPort{b, link.b.port, pa});
      results[static_cast<std::size_t>(pa)].borderPorts.push_back(
          BorderPort{a, link.a.port, pb});
    }
  }
  return results;
}

}  // namespace pleroma::openflow
