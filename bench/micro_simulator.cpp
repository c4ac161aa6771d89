// Micro-benchmark of the discrete-event kernel itself: schedule+drain
// throughput of the slow lane (type-erased closures) and the typed packet
// fast lane. BM_SimulatorScheduleDrain is one of the two CI perf-smoke
// gates (see .github/workflows/ci.yml): it regresses when a per-event heap
// allocation sneaks back into the hot path.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "net/simulator.hpp"

namespace {

using namespace pleroma;

/// Schedule `n` closure events at distinct times, then drain. The closure
/// captures 16 bytes, which std::function stores inline.
void BM_SimulatorScheduleDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    net::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule(static_cast<net::SimTime>(i), [&sink, i] { sink += i; });
    }
    benchmark::DoNotOptimize(sim.run());
    ++rounds;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds * n));
  state.SetLabel(std::to_string(n) + " events/round");
}
BENCHMARK(BM_SimulatorScheduleDrain)->Arg(1024)->Arg(16384);

/// Steady-state variant: the queue is kept at a constant depth and every
/// fired event reschedules one successor, as a stable packet flow does.
/// After warm-up the event storage is fully recycled, so this measures the
/// per-hop cost with zero allocations.
void BM_SimulatorSteadyState(benchmark::State& state) {
  net::Simulator sim;
  std::uint64_t fired = 0;
  // Self-rescheduling chain; 64 concurrent chains model in-flight packets.
  struct Chain {
    net::Simulator& sim;
    std::uint64_t& fired;
    void fire() {
      ++fired;
      sim.schedule(10, [this] { fire(); });
    }
  };
  std::vector<Chain> chains(64, Chain{sim, fired});
  for (auto& c : chains) c.fire();
  for (auto _ : state) {
    const net::SimTime horizon = sim.now() + 1000;
    benchmark::DoNotOptimize(sim.runUntil(horizon));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SimulatorSteadyState);

}  // namespace

int main(int argc, char** argv) {
  return pleroma::bench::runMicroBench("micro_simulator", argc, argv);
}
