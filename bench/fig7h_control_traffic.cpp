// Fig 7(h): total control traffic vs. number of controllers, for
// 100/200/400 subscriptions (Sec 6.6).
//
// Total control traffic counts every control message in the system: end
// host requests to their local controller plus all inter-controller
// advertisement/subscription relays. Normalized to the single-controller
// configuration (which has no inter-controller traffic at all).
//
// Expected shape: traffic grows with partition count; the *relative*
// increase is smaller for larger subscription counts because covering
// suppression filters a growing share of relays.
#include "bench_common.hpp"

namespace {

using namespace pleroma;

double runOnce(int controllers, std::size_t numSubs, std::uint64_t seed) {
  return static_cast<double>(
      bench::deployPartitionedRing(controllers, numSubs, seed)
          ->totalControlMessages());
}

}  // namespace

int main() {
  using namespace pleroma::bench;
  BenchTable bench("fig7h", "Fig 7(h)",
                   "normalized total control traffic vs. number of controllers");
  bench.meta("seed", 61);
  bench.meta("topology", "ring_20");
  bench.meta("workload", "uniform_subscriptions_100_200_400");
  bench.beginSeries("control_traffic", {{"controllers", "count"},
                                        {"norm_traffic_100sub", "%"},
                                        {"norm_traffic_200sub", "%"},
                                        {"norm_traffic_400sub", "%"}});
  const std::vector<std::size_t> subCounts = {100, 200, 400};
  std::vector<double> baseline(subCounts.size(), 1.0);
  const int kMax = smokeMode() ? 3 : 10;
  for (int k = 1; k <= kMax; ++k) {
    std::vector<obs::Cell> row{k};
    for (std::size_t si = 0; si < subCounts.size(); ++si) {
      const double total = runOnce(k, subCounts[si], 61 + si);
      if (k == 1) baseline[si] = total;
      row.push_back(cell(100.0 * total / baseline[si], 1));
    }
    bench.row(std::move(row));
  }
  return 0;
}
