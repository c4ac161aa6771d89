// Executes a declarative scenario file (schema pleroma-scenario-v1):
//
//   scenario_run FILE.json [--smoke]
//
// Loads and validates the scenario, runs it on one core::Pleroma with the
// scenario's partition count, prints the per-phase TSV table, and writes
// BENCH_<name>.json — a pleroma-bench-v1 report — to $PLEROMA_BENCH_DIR.
// --smoke (or PLEROMA_BENCH_SMOKE) applies the scenario's smoke caps so the
// whole catalog executes in seconds.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  using namespace pleroma;

  const char* file = nullptr;
  bool smoke = bench::smokeMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    } else if (file != nullptr) {
      std::fprintf(stderr, "exactly one scenario file expected\n");
      return 2;
    } else {
      file = argv[i];
    }
  }
  if (file == nullptr) {
    std::fprintf(stderr, "usage: %s FILE.json [--smoke]\n", argv[0]);
    return 2;
  }

  std::string error;
  auto scenario = scenario::Scenario::loadFile(file, &error);
  if (!scenario.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!scenario->validate(&error)) {
    std::fprintf(stderr, "%s: %s\n", file, error.c_str());
    return 1;
  }

  scenario::RunOptions options;
  options.smoke = smoke;
  options.log = [](const std::string& line) {
    std::printf("# %s\n", line.c_str());
  };

  bench::printHeader(("scenario " + scenario->name).c_str(),
                     scenario->description.empty()
                         ? scenario->topologyLabel().c_str()
                         : scenario->description.c_str());
  std::printf("# topology=%s workload=%s partitions=%d seed=%llu%s\n",
              scenario->topologyLabel().c_str(),
              scenario->workloadLabel().c_str(), scenario->partitions,
              static_cast<unsigned long long>(scenario->seed),
              smoke ? " (smoke)" : "");

  scenario::ScenarioRunner runner(*scenario, options);
  const scenario::RunResult result = runner.run();

  bench::printRow({"phase", "family", "adv", "sub", "moves", "events",
                   "delivered", "fp", "latency_us", "flow_mods",
                   "flow_entries"});
  for (std::size_t p = 0; p < result.phases.size(); ++p) {
    const scenario::PhaseResult& pr = result.phases[p];
    bench::printRow({bench::fmt(p), scenario::toString(pr.family),
                     bench::fmt(pr.advertisements),
                     bench::fmt(pr.subscriptions), bench::fmt(pr.churnMoves),
                     bench::fmt(pr.events), bench::fmt(pr.delivered),
                     bench::fmt(pr.falsePositives),
                     bench::fmt(pr.meanLatencyUs), bench::fmt(pr.flowMods),
                     bench::fmt(pr.flowEntries)});
  }
  std::printf(
      "# totals: published=%llu delivered=%llu fp=%llu latency_us=%s "
      "flow_mods=%llu control_messages=%llu promoted=%s\n",
      static_cast<unsigned long long>(result.published),
      static_cast<unsigned long long>(result.delivered),
      static_cast<unsigned long long>(result.falsePositives),
      bench::fmt(result.meanLatencyUs).c_str(),
      static_cast<unsigned long long>(result.flowMods),
      static_cast<unsigned long long>(result.controlMessages),
      result.promoted ? "true" : "false");

  obs::BenchReporter report(scenario->name);
  runner.report(report, result);
  if (!report.finish()) {
    std::fprintf(stderr, "failed to write %s\n", report.outputPath().c_str());
    return 1;
  }
  // stderr: the path depends on $PLEROMA_BENCH_DIR, and stdout must stay
  // byte-identical across determinism-gate runs writing to different dirs.
  std::fprintf(stderr, "report: %s\n", report.outputPath().c_str());
  return 0;
}
