// Multi-domain deployment (Sec 4): three independently controlled network
// partitions in a chain — e.g. three plants of a manufacturer, each running
// its own controller — interconnected through border gateways discovered
// via LLDP. Shows cross-domain event flow and the covering-based
// suppression of inter-controller traffic.
//
//   $ ./multi_domain
#include <cstdio>

#include "interop/multi_domain.hpp"

using namespace pleroma;

int main() {
  // Six switches in a line, two per partition; one host per switch.
  net::Topology topo = net::Topology::line(6);
  std::vector<interop::PartitionId> partitionOf =
      interop::contiguousPartitions(topo, 3);
  const auto hosts = topo.hosts();

  interop::MultiDomain domain(std::move(topo), std::move(partitionOf),
                              dz::EventSpace(2, 10));

  std::printf("discovered %zu partitions:\n", domain.partitionCount());
  for (std::size_t p = 0; p < domain.partitionCount(); ++p) {
    const auto& d = domain.discovery(static_cast<interop::PartitionId>(p));
    std::printf("  partition %zu: %zu switches, %zu border ports ->", p,
                d.switches.size(), d.borderPorts.size());
    for (const auto& bp : d.borderPorts) {
      std::printf(" N%d", bp.neighborPartition);
    }
    std::printf("\n");
  }

  domain.network().setDeliverHandler(
      [&](net::NodeId host, const net::Packet& pkt) {
        std::printf("  event %llu delivered to %s\n",
                    static_cast<unsigned long long>(pkt.eventId()),
                    domain.network().topology().node(host).name.c_str());
      });

  // Sensor plant in partition 0 publishes machine telemetry.
  std::printf("\nadvertise at %s (partition 0)\n",
              domain.network().topology().node(hosts[0]).name.c_str());
  domain.advertise(hosts[0],
                   dz::Rectangle{{dz::Range{0, 1023}, dz::Range{0, 1023}}});

  // Analytics in partition 2 subscribes to the alarm range; a second,
  // covered subscription from the same partition is suppressed.
  std::printf("subscribe at %s (partition 2)\n",
              domain.network().topology().node(hosts[5]).name.c_str());
  domain.subscribe(hosts[5],
                   dz::Rectangle{{dz::Range{0, 511}, dz::Range{0, 1023}}});
  std::printf("subscribe at %s (partition 2, covered by previous)\n",
              domain.network().topology().node(hosts[4]).name.c_str());
  domain.subscribe(hosts[4],
                   dz::Rectangle{{dz::Range{0, 255}, dz::Range{0, 511}}});

  std::printf("\npublishing events from partition 0:\n");
  domain.publish(hosts[0], {100, 100}, 1);  // both subscribers
  domain.publish(hosts[0], {300, 900}, 2);  // h6 only
  domain.publish(hosts[0], {900, 100}, 3);  // filtered at the source domain
  domain.settle();

  std::printf("\ncontrol-plane accounting:\n");
  for (std::size_t p = 0; p < domain.partitionCount(); ++p) {
    const auto& s = domain.stats(static_cast<interop::PartitionId>(p));
    std::printf(
        "  controller %zu: internal=%llu external=%llu sent=%llu "
        "suppressed(adv=%llu, sub=%llu)\n",
        p, static_cast<unsigned long long>(s.internalRequests),
        static_cast<unsigned long long>(s.externalRequests),
        static_cast<unsigned long long>(s.messagesSent),
        static_cast<unsigned long long>(s.advsSuppressed),
        static_cast<unsigned long long>(s.subsSuppressed));
  }
  std::printf("total control messages: %llu\n",
              static_cast<unsigned long long>(domain.totalControlMessages()));
  return 0;
}
