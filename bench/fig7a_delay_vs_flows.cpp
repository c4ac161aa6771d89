// Fig 7(a): end-to-end delay vs. flow-table size (5k-80k entries).
//
// Setup per Sec 6.2: publisher and subscriber connected via the *longest*
// path of the testbed fat-tree; the flow tables of every switch along that
// path are filled with N entries; 10,000 UDP events, each matching a
// (uniformly / zipf-) random entry, are sent at a constant rate and the
// average end-to-end delay is measured at the subscriber.
//
// Expected shape: delay constant w.r.t. table size — the TCAM (here: the
// hash-indexed table whose lookup cost does not enter virtual time, and
// whose wall-clock cost is O(#distinct prefix lengths)) matches in O(1).
#include "bench_common.hpp"

#include "net/network.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace pleroma;

/// Installs `n` forwarding entries on every switch along `path`; entry i
/// matches a unique dz of length `len` and forwards toward the next hop
/// (terminal: to the subscriber host). Returns the dz list for publishing.
std::vector<dz::DzExpression> fillPath(net::Network& network,
                                       const std::vector<net::NodeId>& path,
                                       net::NodeId subscriberHost, int n) {
  const net::Topology& topo = network.topology();
  // Unique dz per entry: 17 bits cover up to 131072 entries.
  const int len = 17;
  std::vector<dz::DzExpression> dzs;
  dzs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    dz::U128 bits;
    for (int b = 0; b < len; ++b) {
      bits.setBitFromMsb(b, ((i >> (len - 1 - b)) & 1) != 0);
    }
    dzs.emplace_back(bits, len);
  }

  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    const net::NodeId sw = path[hop];
    net::PortId outPort;
    std::optional<dz::Ipv6Address> rewrite;
    if (hop + 1 < path.size()) {
      // Port toward the next switch on the path.
      outPort = net::kInvalidPort;
      for (const auto& [port, lid] : topo.portsOf(sw)) {
        if (topo.link(lid).peerOf(sw).node == path[hop + 1]) {
          outPort = port;
          break;
        }
      }
    } else {
      const auto att = topo.hostAttachment(subscriberHost);
      outPort = att.switchPort;
      rewrite = net::hostAddress(subscriberHost);
    }
    net::FlowTable& table = network.flowTable(sw);
    for (const auto& d : dzs) {
      net::FlowEntry e;
      e.match = dz::dzToPrefix(d);
      e.priority = d.length();
      e.actions.push_back(net::FlowAction{outPort, rewrite});
      table.insert(e);
    }
  }
  return dzs;
}

/// The longest host-to-host path in the topology (by hop count).
std::pair<net::NodeId, net::NodeId> longestHostPair(const net::Topology& topo) {
  std::pair<net::NodeId, net::NodeId> best{topo.hosts()[0], topo.hosts()[1]};
  std::size_t bestLen = 0;
  for (const net::NodeId a : topo.hosts()) {
    for (const net::NodeId b : topo.hosts()) {
      if (a >= b) continue;
      const auto path = topo.shortestPath(a, b);
      if (path.size() > bestLen) {
        bestLen = path.size();
        best = {a, b};
      }
    }
  }
  return best;
}

double runOnce(int nFlows, bool zipfian, std::uint64_t seed) {
  net::Topology topo = net::Topology::testbedFatTree();
  const auto [pub, sub] = longestHostPair(topo);
  const auto hostPath = topo.shortestPath(pub, sub);
  // Switch-only portion of the path.
  std::vector<net::NodeId> path(hostPath.begin() + 1, hostPath.end() - 1);

  net::Simulator sim;
  net::Network network(topo, sim, {});
  const auto dzs = fillPath(network, path, sub, nFlows);

  util::RunningStat delay;
  network.setDeliverHandler([&](net::NodeId, const net::Packet& pkt) {
    delay.add(static_cast<double>(sim.now() - pkt.sentAt()));
  });

  util::Rng rng(seed);
  util::ZipfSampler zipf(dzs.size(), 1.0);
  const int kEvents = bench::scaled(10000, 500);
  const net::SimTime interval = 100 * net::kMicrosecond;  // constant rate
  for (int i = 0; i < kEvents; ++i) {
    sim.schedule(i * interval, [&network, &dzs, &rng, &zipf, zipfian, pub] {
      const std::size_t pick = zipfian
                                   ? zipf.sample(rng)
                                   : rng.uniformInt(0, dzs.size() - 1);
      net::Packet pkt;
      pkt.mutablePayload().eventDz = dzs[pick];
      pkt.dst = dz::dzToAddress(pkt.eventDz());
      pkt.src = net::hostAddress(pub);
      pkt.sizeBytes = 64;
      network.sendFromHost(pub, pkt);
    });
  }
  sim.run();
  return delay.mean() / static_cast<double>(net::kMillisecond);
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("fig7a",
                   "Fig 7(a)",
                   "end-to-end delay vs. flow table size, longest path, 10k events");
  bench.meta("seed", 1);
  bench.meta("topology", "testbed_fat_tree");
  bench.meta("workload", "synthetic_flow_fill_uniform_and_zipfian");
  bench.beginSeries("delay_vs_flows", {{"flows", "entries"},
                                       {"delay_ms_uniform", "ms"},
                                       {"delay_ms_zipfian", "ms"}});
  const std::vector<int> sweep = smokeMode()
                                     ? std::vector<int>{2000}
                                     : std::vector<int>{5000, 10000, 20000,
                                                        40000, 80000};
  for (const int n : sweep) {
    bench.row({n, cell(runOnce(n, false, 1), 3), cell(runOnce(n, true, 2), 3)});
  }
  return 0;
}
