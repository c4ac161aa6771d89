// Micro-benchmarks of the controller's reconfiguration path
// (google-benchmark): subscribe/unsubscribe cost at different deployment
// sizes, tree reroots, advertisement processing, and the dz-trie
// subscription index.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "controller/controller.hpp"
#include "dz/dz_trie.hpp"
#include "workload/workload.hpp"

namespace {

using namespace pleroma;

struct Harness {
  /// `advertisers` whole-space publishers (host i mod host count), then
  /// `preDeployed` subscriptions spread over every host but the first.
  explicit Harness(std::size_t preDeployed, std::uint64_t seed = 11,
                   std::size_t advertisers = 1)
      : topo(net::Topology::testbedFatTree()),
        network(topo, sim, {}),
        controller(dz::EventSpace(4, 10), network,
                   ctrl::Scope::wholeTopology(topo), config()),
        gen(workloadConfig(seed)) {
    hosts = topo.hosts();
    for (std::size_t i = 0; i < advertisers; ++i) {
      controller.advertise(hosts[i % hosts.size()],
                           controller.space().wholeSpace());
    }
    for (std::size_t i = 0; i < preDeployed; ++i) {
      controller.subscribe(hosts[1 + i % (hosts.size() - 1)],
                           gen.makeSubscription());
    }
  }
  static ctrl::ControllerConfig config() {
    ctrl::ControllerConfig c;
    c.maxDzLength = 16;
    c.maxCellsPerRequest = 8;
    return c;
  }
  static workload::WorkloadConfig workloadConfig(std::uint64_t seed) {
    workload::WorkloadConfig w;
    w.numAttributes = 4;
    w.subscriptionSelectivity = 0.08;
    w.seed = seed;
    return w;
  }

  net::Topology topo;
  net::Simulator sim;
  net::Network network;
  ctrl::Controller controller;
  workload::WorkloadGenerator gen;
  std::vector<net::NodeId> hosts;
};

void BM_Subscribe(benchmark::State& state) {
  Harness h(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.controller.subscribe(
        h.hosts[1 + i % (h.hosts.size() - 1)], h.gen.makeSubscription()));
    ++i;
  }
  state.SetLabel(std::to_string(state.range(0)) + " pre-deployed");
}
BENCHMARK(BM_Subscribe)->Arg(0)->Arg(1000)->Arg(10000);

/// Subscribe alone with 1 or 16 whole-space advertisers over 500
/// pre-deployed subscriptions: each subscription embeds one path per
/// publisher, most of whose (dz, hop) pieces the registry already counts,
/// so its cost should follow what it adds, not the paths it embeds.
void BM_SubscribeFanIn(benchmark::State& state) {
  const auto advertisers = static_cast<std::size_t>(state.range(0));
  Harness h(500, 11, advertisers);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.controller.subscribe(
        h.hosts[1 + i % (h.hosts.size() - 1)], h.gen.makeSubscription()));
    ++i;
  }
  state.SetLabel(std::to_string(advertisers) + " advertisers");
}
BENCHMARK(BM_SubscribeFanIn)->Arg(1)->Arg(16);

void BM_SubscribeUnsubscribeCycle(benchmark::State& state) {
  Harness h(500);
  for (auto _ : state) {
    const auto id = h.controller.subscribe(h.hosts[3], h.gen.makeSubscription());
    h.controller.unsubscribe(id);
  }
}
BENCHMARK(BM_SubscribeUnsubscribeCycle);

/// The same cycle with 1 or 16 whole-space advertisers: every subscription
/// embeds one path per publisher, so the switches near the tree root carry
/// thousands of paths and the unsubscribe's flow recompute must not scale
/// with them.
void BM_UnsubscribeFanIn(benchmark::State& state) {
  const auto advertisers = static_cast<std::size_t>(state.range(0));
  Harness h(500, 11, advertisers);
  for (auto _ : state) {
    const auto id = h.controller.subscribe(h.hosts[3], h.gen.makeSubscription());
    h.controller.unsubscribe(id);
  }
  state.SetLabel(std::to_string(advertisers) + " advertisers");
}
BENCHMARK(BM_UnsubscribeFanIn)->Arg(1)->Arg(16);

/// A congestion-style reroot of a loaded tree: 4 whole-space publishers
/// and 500 subscriptions share the one tree, rerooted alternately at the
/// two core switches. Routes between hosts of one edge switch keep their
/// hops and the others move to the other core; the rebuild should cost
/// what moves, not what the tree holds.
void BM_Reroot(benchmark::State& state) {
  Harness h(500, 11, 4);
  const auto switches = h.topo.switches();
  std::size_t i = 0;
  for (auto _ : state) {
    const int treeId = h.controller.trees().front()->id();
    benchmark::DoNotOptimize(
        h.controller.rerootTree(treeId, switches[i++ % 2]));
  }
}
BENCHMARK(BM_Reroot);

void BM_Advertise(benchmark::State& state) {
  Harness h(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  std::vector<ctrl::PublisherId> pubs;
  for (auto _ : state) {
    pubs.push_back(h.controller.advertise(h.hosts[i % h.hosts.size()],
                                          h.gen.makeAdvertisement()));
    ++i;
    if (pubs.size() > 64) {
      state.PauseTiming();
      for (const auto id : pubs) h.controller.unadvertise(id);
      pubs.clear();
      state.ResumeTiming();
    }
  }
  state.SetLabel(std::to_string(state.range(0)) + " subscriptions");
}
BENCHMARK(BM_Advertise)->Arg(100)->Arg(2000);

void BM_EventStamping(benchmark::State& state) {
  Harness h(0);
  const dz::Event e{10, 900, 512, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.controller.makeEventPacket(h.hosts[0], e, 1));
  }
}
BENCHMARK(BM_EventStamping);

void BM_DzTrieOverlapQuery(benchmark::State& state) {
  dz::DzTrie<int> trie;
  workload::WorkloadGenerator gen(Harness::workloadConfig(3));
  dz::EventSpace space(4, 10);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    for (const auto& d : space.rectangleToDz(gen.makeSubscription(), 16, 8)) {
      trie.insert(d, i);
    }
  }
  const dz::DzSet probe = space.rectangleToDz(gen.makeAdvertisement(), 16, 8);
  for (auto _ : state) {
    int count = 0;
    for (const auto& d : probe) {
      trie.forEachOverlapping(d,
                              [&](const dz::DzExpression&, const int&) { ++count; });
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel(std::to_string(trie.size()) + " indexed dz");
}
BENCHMARK(BM_DzTrieOverlapQuery)->Arg(100)->Arg(10000);

/// One reconfiguration wave (32 adds + 32 deletes to one switch) through
/// the async control channel, unbatched (arg 0: one message, xid, and ack
/// per mod) vs batched (arg 1: one message per switch per sendBatch call).
/// The counters report control messages per wave, so the bench doubles as
/// the batching satellite's message-saving evidence.
void BM_FlowModBatchVsSingle(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kMods = 32;

  net::Topology topo = net::Topology::line(2);
  net::Simulator sim;
  net::Network network(topo, sim, {});
  openflow::ControlChannel channel(network, net::kMillisecond);
  channel.enableAsyncInstall();
  channel.enableBatching(batched);
  const net::NodeId sw = topo.switches()[0];

  std::vector<openflow::FlowMod> adds, dels;
  for (std::size_t i = 0; i < kMods; ++i) {
    // Distinct 8-bit dz per mod so the adds land as separate TCAM entries.
    std::string bits;
    for (int b = 7; b >= 0; --b) bits.push_back((i >> b) & 1 ? '1' : '0');
    const auto d = *dz::DzExpression::fromString(bits);
    net::FlowEntry e;
    e.match = dz::dzToPrefix(d);
    e.priority = d.length();
    e.actions = {{1, std::nullopt}};
    adds.push_back({openflow::FlowModType::kAdd, sw, e});
    dels.push_back({openflow::FlowModType::kDelete, sw, e});
  }

  std::uint64_t waves = 0;
  for (auto _ : state) {
    channel.sendBatch(adds);
    sim.run();
    channel.sendBatch(dels);
    sim.run();
    ++waves;
  }

  const auto& stats = channel.stats();
  state.counters["msgs_per_wave"] = benchmark::Counter(
      static_cast<double>(stats.flowModMessages()) / static_cast<double>(waves));
  state.counters["mods_per_wave"] = benchmark::Counter(
      static_cast<double>(stats.flowModsSent) / static_cast<double>(waves));
  state.SetLabel(batched ? "batched" : "single");
}
BENCHMARK(BM_FlowModBatchVsSingle)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return pleroma::bench::runMicroBench("micro_controller", argc, argv);
}
