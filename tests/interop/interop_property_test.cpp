// Property test of multi-domain interoperability (Sec 4): under random
// advertise/subscribe sequences spread over a line of three partitions and
// over rings of three to six partitions, every event must reach exactly the
// dz-matching subscribers, once each, wherever publisher and subscriber
// reside — interop must add no false negatives, no duplicates and no
// spurious deliveries beyond dz truncation. A ring's partition graph is a
// cycle, so the rings check that interest propagation is loop-free.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "interop/multi_domain.hpp"
#include "workload/workload.hpp"

namespace pleroma::interop {
namespace {

void checkCrossDomainDeliveryInvariant(net::Topology topo, int partitions,
                                       std::uint64_t seed) {
  std::vector<PartitionId> partitionOf = contiguousPartitions(topo, partitions);
  const auto hosts = topo.hosts();

  ctrl::ControllerConfig ccfg;
  ccfg.maxDzLength = 8;
  ccfg.maxCellsPerRequest = 6;
  MultiDomain domain(std::move(topo), std::move(partitionOf),
                     dz::EventSpace(2, 10), ccfg);

  std::set<std::pair<net::NodeId, net::EventId>> got;
  domain.network().setDeliverHandler(
      [&](net::NodeId h, const net::Packet& pkt) {
        // No duplicate deliveries per (host, event).
        EXPECT_TRUE(got.insert({h, pkt.eventId()}).second)
            << "duplicate delivery to " << h;
      });

  workload::WorkloadConfig wcfg;
  wcfg.numAttributes = 2;
  wcfg.subscriptionSelectivity = 0.3;
  wcfg.seed = seed;
  workload::WorkloadGenerator gen(wcfg);
  util::Rng& rng = gen.rng();

  struct LiveSub {
    net::NodeId host;
    dz::DzSet dz;
  };
  struct LivePub {
    net::NodeId host;
    dz::DzSet dz;
  };
  std::vector<LiveSub> subs;
  std::vector<LivePub> pubs;
  net::EventId nextEvent = 1;

  for (int step = 0; step < 40; ++step) {
    const net::NodeId h = hosts[rng.uniformInt(0, hosts.size() - 1)];
    if (rng.chance(0.45) || pubs.empty()) {
      const GlobalPublisherId id = domain.advertise(h, gen.makeAdvertisement());
      pubs.push_back(LivePub{
          h, domain.controller(id.partition).advertisementDz(id.local)});
    } else {
      const GlobalSubscriptionId id = domain.subscribe(h, gen.makeSubscription());
      subs.push_back(LiveSub{
          h, domain.controller(id.partition).subscriptionDz(id.local)});
    }

    // Publish a few events from random publishers and check the invariant.
    for (int k = 0; k < 2 && !pubs.empty(); ++k) {
      const LivePub& pub = pubs[rng.uniformInt(0, pubs.size() - 1)];
      const dz::Event e = gen.makeEvent();
      const dz::DzExpression eDz =
          domain.controller(domain.partitionOfHost(pub.host)).stampEvent(e);
      got.clear();
      domain.publish(pub.host, e, nextEvent);
      domain.settle();

      const bool pubCovers = pub.dz.overlaps(eDz);
      std::set<net::NodeId> gotHosts;
      for (const auto& [gh, ge] : got) gotHosts.insert(gh);
      for (const LiveSub& s : subs) {
        if (s.dz.overlaps(eDz) && pubCovers && s.host != pub.host) {
          EXPECT_TRUE(gotHosts.contains(s.host))
              << "false negative at step " << step << ": host " << s.host
              << " event " << eDz.toString();
        }
      }
      for (const net::NodeId gh : gotHosts) {
        bool anySub = false;
        for (const LiveSub& s : subs) {
          if (s.host == gh && s.dz.overlaps(eDz)) {
            anySub = true;
            break;
          }
        }
        EXPECT_TRUE(anySub) << "spurious delivery to " << gh << " at step "
                            << step;
      }
      ++nextEvent;
    }
  }
}

class InteropPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Six switches in a line, two per partition: an acyclic partition graph.
TEST_P(InteropPropertyTest, CrossDomainDeliveryInvariant) {
  checkCrossDomainDeliveryInvariant(net::Topology::line(6), 3, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InteropPropertyTest,
                         ::testing::Values(3u, 33u, 333u, 3333u));

struct RingCase {
  int partitions;
  std::uint64_t seed;
};

void PrintTo(const RingCase& c, std::ostream* os) {
  *os << c.partitions << "_partitions_seed_" << c.seed;
}

std::vector<RingCase> ringCases() {
  std::vector<RingCase> cases;
  for (int k = 3; k <= 6; ++k) {
    for (const std::uint64_t seed : {3u, 33u, 333u, 3333u}) {
      cases.push_back({k, seed});
    }
  }
  return cases;
}

class InteropRingPropertyTest : public ::testing::TestWithParam<RingCase> {};

// A ring of 2k switches, two per partition: the partition graph is a cycle.
TEST_P(InteropRingPropertyTest, CrossDomainDeliveryInvariant) {
  const RingCase c = GetParam();
  checkCrossDomainDeliveryInvariant(net::Topology::ring(2 * c.partitions),
                                    c.partitions, c.seed);
}

INSTANTIATE_TEST_SUITE_P(Rings, InteropRingPropertyTest,
                         ::testing::ValuesIn(ringCases()));

}  // namespace
}  // namespace pleroma::interop
