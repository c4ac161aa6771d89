// Proves the data-plane fast path is allocation-free at steady state: after
// a warm-up burst sizes the simulator's slabs, run FIFOs, and free lists, a
// second identical burst must complete without a single call to the global
// allocator. The whole point of the pooled PacketEvent lane and the shared
// EventPayload is that per-hop cost is O(1) with zero heap traffic — this
// test pins that property so it cannot silently rot. (The slow lane's
// std::function timers are control-plane only and not on this path.)
//
// Counting is done by replacing the global operator new/delete set with a
// thin wrapper that bumps an atomic while a window flag is armed. The
// wrapper still routes through malloc/free, so sanitizers (ASan/LSan) keep
// seeing every allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_newCalls{0};

void* countedAlloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  return std::malloc(n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = countedAlloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pleroma::net {
namespace {

dz::DzExpression dz(std::string_view s) {
  return *dz::DzExpression::fromString(s);
}

FlowEntry entry(std::string_view dzStr, std::vector<FlowAction> actions) {
  FlowEntry e;
  const auto d = dz(dzStr);
  e.match = dz::dzToPrefix(d);
  e.priority = d.length();
  e.actions = std::move(actions);
  return e;
}

Packet eventPacket(std::string_view dzStr, NodeId fromHost) {
  Packet p;
  EventPayload& payload = p.mutablePayload();
  payload.eventDz = dz(dzStr);
  payload.publisherHost = fromHost;
  p.dst = dz::dzToAddress(payload.eventDz);
  p.src = hostAddress(fromHost);
  return p;
}

/// Counts the global operator-new calls made while alive.
struct AllocWindow {
  AllocWindow() {
    g_newCalls.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocWindow() { g_armed.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const {
    return g_newCalls.load(std::memory_order_relaxed);
  }
};

TEST(ZeroAllocation, SteadyStateHopsDoNotTouchTheHeap) {
  // h1 - R1 - R2 - h2; every hop exercises the packet fast lane, and the
  // host service queue exercises schedulePacketAt.
  Topology topo = Topology::line(2, 100 * kMicrosecond);
  Simulator sim;
  NetworkConfig config;
  config.hostServiceTime = 50 * kMicrosecond;
  Network net(topo, sim, config);

  const NodeId r1 = topo.switches()[0];
  const NodeId r2 = topo.switches()[1];
  const NodeId h1 = topo.hosts()[0];
  const NodeId h2 = topo.hosts()[1];
  net.flowTable(r1).insert(entry(
      "1", {{topo.link(topo.linkAt(r1, 1)).endOf(r1).port, std::nullopt}}));
  net.flowTable(r2).insert(
      entry("1", {{topo.hostAttachment(h2).switchPort, hostAddress(h2)}}));

  std::uint64_t delivered = 0;
  net.setDeliverHandler([&](NodeId, const Packet&) { ++delivered; });

  constexpr int kBurst = 64;

  // Packets are built outside the measured window (constructing a payload
  // allocates by design); the claim is about *hops*, not packet birth.
  const auto makeBurst = [&] {
    std::vector<Packet> burst;
    burst.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) burst.push_back(eventPacket("101", h1));
    return burst;
  };

  // Warm-up: identical bursts size every pool — the PacketEvent slab, the
  // run-coalescing queue's run table and free list, and the heap array.
  // Two rounds, because recycled runs regrow their FIFO capacity lazily on
  // first reuse; the second round replays the exact reuse pattern the
  // measured round will see.
  constexpr int kWarmups = 2;
  for (int round = 0; round < kWarmups; ++round) {
    auto burst = makeBurst();
    for (auto& p : burst) net.sendFromHost(h1, std::move(p));
    sim.run();
  }
  ASSERT_EQ(delivered, static_cast<std::uint64_t>(kWarmups * kBurst));

  // Measured run: same shape, so peak in-flight never exceeds warm-up.
  auto burst = makeBurst();
  std::uint64_t allocs = 0;
  {
    AllocWindow window;
    for (auto& p : burst) net.sendFromHost(h1, std::move(p));
    sim.run();
    allocs = window.count();
  }

  EXPECT_EQ(delivered, static_cast<std::uint64_t>((kWarmups + 1) * kBurst));
  EXPECT_EQ(allocs, 0u)
      << "the packet fast path allocated during steady state";
}

TEST(ZeroAllocation, FanOutSharesThePayload) {
  // One ingress replicated to four hosts: fan-out copies must only bump the
  // shared payload's refcount, never clone event bytes. A 1-1-1 fat-tree
  // with five hosts puts everything on a single edge switch.
  Topology topo = Topology::fatTree(1, 1, 1, 5, 100 * kMicrosecond);
  Simulator sim;
  Network net(topo, sim, NetworkConfig{});

  const auto hosts = topo.hosts();
  const NodeId hub = topo.hostAttachment(hosts[0]).switchNode;
  std::vector<FlowAction> fanout;
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const auto att = topo.hostAttachment(hosts[i]);
    fanout.push_back({att.switchPort, hostAddress(hosts[i])});
  }
  net.flowTable(hub).insert(entry("1", std::move(fanout)));

  std::uint64_t delivered = 0;
  net.setDeliverHandler([&](NodeId, const Packet&) { ++delivered; });

  constexpr int kRounds = 32;
  const auto makeBurst = [&] {
    std::vector<Packet> burst;
    burst.reserve(kRounds);
    for (int i = 0; i < kRounds; ++i) {
      burst.push_back(eventPacket("101", hosts[0]));
    }
    return burst;
  };

  {
    auto burst = makeBurst();
    for (auto& p : burst) net.sendFromHost(hosts[0], std::move(p));
    sim.run();
  }

  auto burst = makeBurst();
  std::uint64_t allocs = 0;
  {
    AllocWindow window;
    for (auto& p : burst) net.sendFromHost(hosts[0], std::move(p));
    sim.run();
    allocs = window.count();
  }

  EXPECT_EQ(delivered, static_cast<std::uint64_t>(2 * kRounds) *
                           (hosts.size() - 1));
  EXPECT_EQ(allocs, 0u) << "fan-out replication allocated per copy";
}

}  // namespace
}  // namespace pleroma::net
