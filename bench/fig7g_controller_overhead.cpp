// Fig 7(g): normalized average controller overhead vs. number of
// controllers (network partitions), for 100/200/400 subscriptions
// (Sec 6.6).
//
// Setup: the 20-switch Mininet-style topology partitioned into 1..10
// domains; uniform subscriptions randomly distributed over the end hosts.
// A controller's overhead is the number of requests it processes (internal
// host requests + external requests relayed by neighbours). Values are
// normalized to the single-controller configuration.
//
// Expected shape: average overhead per controller falls with partition
// count, and the benefit grows with the subscription count (more covering
// suppression of relayed requests).
#include "bench_common.hpp"

namespace {

using namespace pleroma;

/// Requests processed per controller (internal + external).
double runOnce(int controllers, std::size_t numSubs, std::uint64_t seed) {
  const auto domain = bench::deployPartitionedRing(controllers, numSubs, seed);
  std::uint64_t processed = 0;
  for (std::size_t pid = 0; pid < domain->partitionCount(); ++pid) {
    processed +=
        domain->stats(static_cast<interop::PartitionId>(pid)).requestsProcessed();
  }
  return static_cast<double>(processed) / static_cast<double>(controllers);
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("fig7g", "Fig 7(g)",
                   "normalized avg controller overhead vs. number of controllers "
                   "(ring of 20 switches, uniform subscriptions)");
  bench.meta("seed", 51);
  bench.meta("topology", "ring_20");
  bench.meta("workload", "uniform_subscriptions_100_200_400");
  bench.beginSeries("controller_overhead", {{"controllers", "count"},
                                            {"norm_overhead_100sub", "%"},
                                            {"norm_overhead_200sub", "%"},
                                            {"norm_overhead_400sub", "%"}});
  const std::vector<std::size_t> subCounts = {100, 200, 400};
  std::vector<double> baselineOverhead(subCounts.size(), 1.0);
  const int kMax = smokeMode() ? 3 : 10;
  for (int k = 1; k <= kMax; ++k) {
    std::vector<obs::Cell> row{k};
    for (std::size_t si = 0; si < subCounts.size(); ++si) {
      const double overhead = runOnce(k, subCounts[si], 51 + si);
      if (k == 1) baselineOverhead[si] = overhead;
      row.push_back(cell(100.0 * overhead / baselineOverhead[si], 1));
    }
    bench.row(std::move(row));
  }
  return 0;
}
