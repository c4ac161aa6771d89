#include "scenario/script_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/runner.hpp"

namespace pleroma::scenario {
namespace {

struct RunnerFixture : ::testing::Test {
  RunnerFixture()
      : runner([this](const std::string& line) { output.push_back(line); }) {}

  /// True when some output line contains `needle`.
  bool outputContains(const std::string& needle) const {
    for (const auto& line : output) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }
  std::string lastLine() const { return output.empty() ? "" : output.back(); }

  std::vector<std::string> output;
  ScriptRunner runner;
};

TEST_F(RunnerFixture, AdvertiseSubscribePublishRun) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h6 0:511 0:1023\n"
      "pub h1 100 100\n"
      "run\n");
  EXPECT_TRUE(outputContains("publisher 0"));
  EXPECT_TRUE(outputContains("subscription 0"));
  EXPECT_TRUE(outputContains("-> h6"));
  EXPECT_TRUE(outputContains("ok: 1 deliveries"));
}

TEST_F(RunnerFixture, NonMatchingEventNotDelivered) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h6 0:511 0:1023\n"
      "pub h1 900 100\n"
      "run\n");
  EXPECT_TRUE(outputContains("ok: 0 deliveries"));
}

TEST_F(RunnerFixture, CommentsAndBlankLinesIgnored) {
  runner.executeScript("# a comment\n\n   \n");
  EXPECT_TRUE(output.empty());
}

TEST_F(RunnerFixture, QuitStopsScript) {
  runner.executeScript("quit\nadv h1 0:1023 0:1023\n");
  EXPECT_FALSE(outputContains("publisher"));
}

TEST_F(RunnerFixture, TopologySwitching) {
  EXPECT_TRUE(runner.executeLine("topo ring 8"));
  EXPECT_TRUE(outputContains("8 switches, 8 hosts"));
  EXPECT_TRUE(runner.executeLine("topo random 5 2 9"));
  EXPECT_TRUE(outputContains("5 switches, 5 hosts"));
  EXPECT_TRUE(runner.executeLine("topo bogus"));
  EXPECT_TRUE(outputContains("error: unknown topology"));
}

TEST_F(RunnerFixture, AttrsChangesSchemaArity) {
  runner.executeLine("attrs 3");
  runner.executeLine("adv h1 0:1023 0:1023");  // wrong arity now
  EXPECT_TRUE(outputContains("error: expected 3 lo:hi ranges"));
  runner.executeLine("adv h1 0:1023 0:1023 0:1023");
  EXPECT_TRUE(outputContains("publisher 0"));
}

TEST_F(RunnerFixture, ErrorsOnUnknownNames) {
  runner.executeLine("adv nosuch 0:1023 0:1023");
  EXPECT_TRUE(outputContains("error: unknown host"));
  runner.executeLine("flows nosuch");
  EXPECT_TRUE(outputContains("error: unknown switch"));
  runner.executeLine("frobnicate");
  EXPECT_TRUE(outputContains("error: unknown command"));
}

TEST_F(RunnerFixture, UnsubscribeViaScript) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h6 0:1023 0:1023\n"
      "unsub 0\n"
      "pub h1 1 1\n"
      "run\n");
  EXPECT_TRUE(outputContains("ok: 0 deliveries"));
}

TEST_F(RunnerFixture, UnsubscribeAndUnadvertiseRejectIdsThatAreNotLive) {
  runner.executeScript(
      "attrs 2\n"
      "sub h1 0:100 0:100\n"
      "unsub 0\n"
      "unsub 0\n"
      "unsub 999\n"
      "unsub -5\n"
      "unadv 7\n");
  ASSERT_GE(output.size(), 5u);
  const std::vector<std::string> tail(output.end() - 5, output.end());
  EXPECT_EQ(tail, (std::vector<std::string>{
                      "ok",
                      "error: unknown subscription 0",
                      "error: unknown subscription 999",
                      "error: unknown subscription -5",
                      "error: unknown publisher 7",
                  }));
}

TEST_F(RunnerFixture, TreesAndStats) {
  runner.executeScript(
      "adv h1 0:511 0:1023\n"
      "trees\n"
      "stats\n");
  EXPECT_TRUE(outputContains("tree 0"));
  EXPECT_TRUE(outputContains("DZ=0"));
  EXPECT_TRUE(outputContains("trees=1"));
}

TEST_F(RunnerFixture, FlowsDump) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h2 0:1023 0:1023\n"
      "flows R7\n");
  EXPECT_TRUE(outputContains("ok: "));
  EXPECT_TRUE(outputContains("ff0e:"));
}

TEST_F(RunnerFixture, FailureInjectionCommands) {
  runner.executeScript(
      "topo ring 6\n"
      "adv h1 0:1023 0:1023\n"
      "sub h4 0:1023 0:1023\n");
  // Find a tree edge to fail.
  const auto edges = runner.middleware().controller().trees()[0]->edges();
  ASSERT_FALSE(edges.empty());
  runner.executeLine("fail " + std::to_string(edges.front()));
  EXPECT_TRUE(outputContains("failed"));
  runner.executeScript("pub h1 1 1\nrun\n");
  EXPECT_TRUE(outputContains("-> h4"));  // repaired route still delivers
  runner.executeLine("restore " + std::to_string(edges.front()));
  EXPECT_TRUE(outputContains("restored"));
  runner.executeLine("fail 99999");
  EXPECT_TRUE(outputContains("error: expected a valid link id"));
}

TEST_F(RunnerFixture, DimselCommand) {
  runner.executeScript(
      "attrs 3\n"
      "adv h1 0:1023 0:1023 0:1023\n"
      "sub h2 0:100 0:1023 0:1023\n"
      "pub h1 50 1 2\n"
      "pub h1 60 900 3\n"
      "run\n"
      "dimsel 0.8\n");
  EXPECT_TRUE(outputContains("ok: indexing dimensions"));
}

// Malformed input is rejected with an error line before it reaches the
// library, where it would trip an assert (Debug) or be accepted silently.
TEST_F(RunnerFixture, TopologySizesOutsideTheBuildersBoundsAreRejected) {
  for (const char* line :
       {"topo ring 0", "topo ring 2", "topo line -3", "topo random 0 0 1"}) {
    output.clear();
    EXPECT_TRUE(runner.executeLine(line));
    ASSERT_EQ(output.size(), 1u) << line;
    EXPECT_TRUE(output[0].starts_with("error: ")) << line << ": " << output[0];
  }
  // The testbed fat-tree is still the deployed topology.
  EXPECT_EQ(runner.middleware().topology().switches().size(), 10u);
  runner.executeLine("topo ring 3");
  EXPECT_EQ(lastLine(), "ok: 3 switches, 3 hosts");
  runner.executeLine("topo line 1");
  EXPECT_EQ(lastLine(), "ok: 1 switches, 1 hosts");
}

TEST_F(RunnerFixture, DimselThresholdOutsideUnitIntervalIsRejected) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h2 0:100 0:1023\n"
      "pub h1 50 1\n"
      "run\n");
  for (const char* line : {"dimsel 5", "dimsel -1", "dimsel 0"}) {
    output.clear();
    runner.executeLine(line);
    EXPECT_EQ(output, (std::vector<std::string>{
                          "error: dimsel THRESHOLD must be in (0, 1]"}))
        << line;
  }
  runner.executeLine("dimsel 1");
  EXPECT_TRUE(lastLine().starts_with("ok: indexing dimensions"));
}

TEST_F(RunnerFixture, RangesOutsideTheDomainAreRejected) {
  for (const char* line : {"adv h1 5:1 0:100", "adv h1 0:5000 0:100",
                           "adv h1 -1:5 0:100", "sub h2 0:1024 0:100"}) {
    output.clear();
    runner.executeLine(line);
    EXPECT_EQ(output, (std::vector<std::string>{
                          "error: expected 2 lo:hi ranges with lo <= hi <= "
                          "1023"}))
        << line;
  }
  // Nothing was registered: the first valid requests get ids 0.
  runner.executeLine("adv h1 0:1023 0:1023");
  EXPECT_EQ(lastLine(), "publisher 0 (dz=*)");
  runner.executeLine("sub h2 1023:1023 0:1023");
  EXPECT_TRUE(lastLine().starts_with("subscription 0 "));
}

TEST_F(RunnerFixture, EventValuesOutsideTheDomainAreRejected) {
  runner.executeLine("adv h1 0:1023 0:1023");
  for (const char* line : {"pub h1 99999 5", "pub h1 -1 5", "pub h1 1024 5"}) {
    output.clear();
    runner.executeLine(line);
    EXPECT_EQ(output, (std::vector<std::string>{
                          "error: expected 2 attribute values <= 1023"}))
        << line;
  }
  // Nothing was published: the first valid event gets id 1.
  runner.executeLine("pub h1 1023 5");
  EXPECT_TRUE(lastLine().starts_with("event 1 published")) << lastLine();
}

TEST_F(RunnerFixture, PublishArityChecked) {
  runner.executeLine("adv h1 0:1023 0:1023");
  runner.executeLine("pub h1 1");
  EXPECT_TRUE(outputContains("error: expected 2 attribute values"));
}

TEST_F(RunnerFixture, StatsMetricsDumpsRegistry) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "sub h6 0:1023 0:1023\n"
      "pub h1 100 100\n"
      "run\n"
      "stats metrics\n");
  EXPECT_TRUE(outputContains("flow_table.lookups"));
  EXPECT_TRUE(outputContains("ok:"));
  // The summary trailer reports how many metric lines were printed.
  EXPECT_NE(lastLine().find("metrics"), std::string::npos);
}

// Pins every line `stats metrics` prints for a fixed script, except the
// two wall-clock gauges.
TEST_F(RunnerFixture, StatsMetricsGoldenLines) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "adv h3 0:511 0:1023\n"
      "sub h6 0:511 0:1023\n"
      "sub h8 256:1023 0:511\n"
      "sub h2 0:1023 512:1023\n"
      "pub h1 100 100\n"
      "pub h1 300 700\n"
      "pub h3 400 200\n"
      "pub h1 900 900\n"
      "pub h3 10 1000\n"
      "run\n");
  output.clear();
  runner.executeLine("stats metrics");
  std::vector<std::string> lines;
  for (const std::string& line : output) {
    // Wall-clock gauges differ from run to run.
    if (line.starts_with("  sim.wall_time_ns ") ||
        line.starts_with("  sim.virtual_wall_ratio ")) {
      continue;
    }
    lines.push_back(line);
  }
  const std::vector<std::string> expected = {
      "  controller.ops 5",
      "  controller.reindexes 0",
      "  controller.tree_merges 0",
      "  controller.tree_rebuilds 0",
      "  controller.tree_reroots 0",
      "  controller.trees_created 1",
      "  controller.trees_joined 1",
      "  core.deliveries 8",
      "  core.false_positive_deliveries 0",
      "  core.publishes 5",
      "  ctrl_channel.flow_stats_requests 0",
      "  ctrl_channel.mods_abandoned 0",
      "  ctrl_channel.mods_acked 19",
      "  ctrl_channel.mods_dropped 0",
      "  ctrl_channel.mods_retried 0",
      "  ctrl_channel.mods_sent 19",
      "  flow_installer.case1_fresh_add 15",
      "  flow_installer.case2_covered 13",
      "  flow_installer.case3_subsumed_delete 0",
      "  flow_installer.case4_extend 4",
      "  flow_installer.case5_shadow_modify 0",
      "  flow_installer.coarsen_passes 0",
      "  flow_installer.reconcile_passes 0",
      "  flow_table.hits 25",
      "  flow_table.lookups 25",
      "  flow_table.misses 0",
      "  flow_table.probes_per_lookup 0.84",
      "  net.bp_parked 0",
      "  net.bp_retries 0",
      "  net.drops_backpressure 0",
      "  net.drops_hop_limit 0",
      "  net.drops_host_queue 0",
      "  net.drops_link_down 0",
      "  net.drops_link_queue 0",
      "  net.drops_miss_buffer 0",
      "  net.drops_no_egress 0",
      "  net.drops_no_match 0",
      "  net.drops_node_down 0",
      "  net.drops_total 0",
      "  net.link_bytes_total 1650",
      "  net.miss_buffered 0",
      "  net.miss_replayed 0",
      "  net.packets_delivered 8",
      "  net.packets_forwarded 28",
      "  net.packets_punted 0",
      "  net.peak_link_queue_depth 0",
      "  net.queued_hosts 0",
      "  net.queued_links 0",
      "  sim.events_executed 58",
      "  sim.virtual_time_ns 350000",
      "  controller.flow_mods_per_op count=5 mean=3.8 min=0 p50=4.5 p90=8 "
      "p99=8 max=8",
      "  controller.op_install_time_ns count=5 mean=3.8e+06 min=0 "
      "p50=4.1943e+06 p90=8e+06 p99=8e+06 max=8e+06",
      "  core.delivery_latency_ns count=8 mean=290000 min=110000 "
      "p50=350000 p90=350000 p99=350000 max=350000",
      "ok: 55 metrics",
  };
  EXPECT_EQ(lines, expected);
}

TEST_F(RunnerFixture, StatsJsonIsParseableSnapshot) {
  runner.executeScript(
      "adv h1 0:1023 0:1023\n"
      "pub h1 100 100\n"
      "run\n"
      "stats json\n");
  std::string err;
  const auto doc = obs::JsonValue::parse(lastLine(), &err);
  ASSERT_TRUE(doc.has_value()) << err << " in: " << lastLine();
  EXPECT_TRUE(doc->contains("counters"));
  EXPECT_TRUE(doc->contains("gauges"));
  EXPECT_TRUE(doc->contains("histograms"));
}

TEST_F(RunnerFixture, StatsRejectsUnknownMode) {
  runner.executeLine("stats bogus");
  EXPECT_TRUE(outputContains("error: stats [metrics|json]"));
}

namespace {
std::string writeTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << body;
  return path;
}
}  // namespace

/// The totals line the CLI's `scenario` command prints for `r`: the fields
/// of scenario_run's `# totals:` line.
std::string totalsLine(const std::string& name, const RunResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ok: scenario %s: published=%llu delivered=%llu fp=%llu "
                "latency_us=%.2f flow_mods=%llu control_messages=%llu "
                "promoted=%s",
                name.c_str(), static_cast<unsigned long long>(r.published),
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.falsePositives),
                r.meanLatencyUs, static_cast<unsigned long long>(r.flowMods),
                static_cast<unsigned long long>(r.controlMessages),
                r.promoted ? "true" : "false");
  return buf;
}

/// What ScenarioRunner reports for the scenario file at `path`.
RunResult runFile(const std::string& path) {
  std::string error;
  const auto s = Scenario::loadFile(path, &error);
  EXPECT_TRUE(s.has_value()) << error;
  return ScenarioRunner(*s).run();
}

std::string catalogFile(const std::string& stem) {
  return std::string(PLEROMA_SCENARIO_DIR) + "/" + stem + ".json";
}

TEST_F(RunnerFixture, ScenarioCommandDeploysFile) {
  const std::string path = writeTempFile("runner_scenario.json", R"({
    "schema": "pleroma-scenario-v1",
    "name": "cli_demo",
    "seed": 4,
    "topology": { "kind": "ring", "switches": 5 },
    "phases": [
      { "name": "main", "family": "uniform",
        "advertisements": 2, "subscriptions": 6, "events": 8 }
    ]
  })");
  runner.executeLine("scenario " + path);
  EXPECT_TRUE(outputContains("phase 0 (main, uniform): 2 adv, 6 sub"));
  EXPECT_EQ(lastLine(), totalsLine("cli_demo", runFile(path)));
  EXPECT_TRUE(lastLine().starts_with("ok: scenario cli_demo: published=8 "))
      << lastLine();
  // The totals line summarised the scenario's deliveries.
  runner.executeLine("run");
  EXPECT_EQ(lastLine(), "ok: 0 deliveries");
  std::remove(path.c_str());
}

TEST_F(RunnerFixture, ScenarioCommandDeploysWhatScenarioRunnerDeploys) {
  const std::string path = writeTempFile("runner_budget_scenario.json", R"({
    "schema": "pleroma-scenario-v1",
    "name": "cli_budget",
    "seed": 13,
    "topology": { "kind": "testbed-fat-tree" },
    "controller": { "max_dz_length": 16, "max_cells_per_request": 16,
                    "aggregate_subscriptions": true, "tcam_budget": 24 },
    "failover": { "heartbeat_ms": 10 },
    "phases": [
      { "name": "main", "family": "uniform",
        "advertisements": 3, "subscriptions": 300, "events": 20 }
    ]
  })");
  runner.executeLine("scenario " + path);
  const RunResult expected = runFile(path);
  EXPECT_EQ(lastLine(), totalsLine("cli_budget", expected));
  // The file's failover block arms the standby in the CLI too.
  core::Pleroma& p = runner.middleware();
  EXPECT_NE(p.failover(), nullptr);

  std::uint64_t flows = 0;
  for (const net::NodeId sw : p.topology().switches()) {
    const std::size_t size = p.network().flowTable(sw).size();
    EXPECT_LE(size, 24u) << p.topology().node(sw).name;
    flows += size;
  }
  EXPECT_EQ(flows, expected.phases.back().flowEntries);
  EXPECT_EQ(p.controller().controlStats().flowModsSent, expected.flowMods);
  std::remove(path.c_str());
}

TEST_F(RunnerFixture, ScenarioCommandReportsValidationErrors) {
  const std::string path = writeTempFile("runner_bad_scenario.json", R"({
    "schema": "pleroma-scenario-v1",
    "name": "bad",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [ { "name": "p", "family": "uniform", "events": 5 } ]
  })");
  runner.executeLine("scenario " + path);
  EXPECT_TRUE(outputContains("error:"));
  EXPECT_TRUE(outputContains("phases[0]"));
  std::remove(path.c_str());
}

TEST_F(RunnerFixture, ScenarioCommandRunsMultiPartition) {
  const std::string path = writeTempFile("runner_multi_scenario.json", R"({
    "schema": "pleroma-scenario-v1",
    "name": "multi",
    "topology": { "kind": "ring", "switches": 6 },
    "partitions": 2,
    "phases": [
      { "name": "p", "family": "uniform",
        "advertisements": 1, "subscriptions": 2, "events": 3 }
    ]
  })");
  runner.executeLine("scenario " + path);
  const RunResult expected = runFile(path);
  EXPECT_GT(expected.controlMessages, 0u);
  EXPECT_EQ(lastLine(), totalsLine("multi", expected));
  std::remove(path.c_str());
}

// On a deployment of several partitions, the commands that read the one
// controller refuse with an error line instead of asserting; the others
// keep working.
TEST_F(RunnerFixture, MultiPartitionDeploymentRefusesSingleControllerCommands) {
  runner.executeLine("scenario " + catalogFile("multi_partition_ring"));
  ASSERT_TRUE(lastLine().starts_with("ok: scenario multi_partition_ring: "))
      << lastLine();
  for (const char* line :
       {"adv h1 0:1023 0:1023", "sub h2 0:1023 0:1023", "pub h1 1 1",
        "unadv 0", "fail 0", "restore 0", "trees", "dimsel", "stats"}) {
    output.clear();
    runner.executeLine(line);
    ASSERT_EQ(output.size(), 1u) << line;
    EXPECT_TRUE(output[0].starts_with("error: ")) << line << ": " << output[0];
  }
  output.clear();
  runner.executeLine("stats metrics");
  EXPECT_TRUE(outputContains("  interop.control_messages "));
  EXPECT_TRUE(lastLine().starts_with("ok: ")) << lastLine();
  for (const char* line : {"unsub 0", "run", "flows R1"}) {
    runner.executeLine(line);
    EXPECT_TRUE(lastLine().starts_with("ok")) << line << ": " << lastLine();
  }
  runner.executeLine("topo ring 4");
  runner.executeLine("trees");
  EXPECT_EQ(lastLine(), "ok: 0 trees");
}

// The closed congestion loop's ticks point at monitors that die with the
// run: the run must leave none of them in the CLI's simulator.
TEST_F(RunnerFixture, RunAfterARebalancingScenarioSettlesCleanly) {
  runner.executeLine("scenario " + catalogFile("hotspot_rebalance"));
  ASSERT_TRUE(lastLine().starts_with("ok: scenario hotspot_rebalance: "))
      << lastLine();
  EXPECT_TRUE(runner.middleware().simulator().idle());
  runner.executeScript("pub h1 1 1\nrun\n");
  EXPECT_TRUE(lastLine().starts_with("ok: ")) << lastLine();
  EXPECT_TRUE(runner.middleware().simulator().idle());
}

std::vector<std::string> catalogStems() {
  std::vector<std::string> stems;
  for (const auto& entry :
       std::filesystem::directory_iterator(PLEROMA_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

struct CatalogScenario : ::testing::TestWithParam<std::string> {};

// The CLI's `scenario` command and ScenarioRunner report the same totals
// for every committed scenario file: published, delivered, false
// positives, mean latency, flow-mods, control messages and promotion.
TEST_P(CatalogScenario, CliTotalsEqualScenarioRunner) {
  const std::string path = catalogFile(GetParam());
  std::vector<std::string> output;
  ScriptRunner cli([&](const std::string& line) { output.push_back(line); });
  cli.executeLine("scenario " + path);
  ASSERT_FALSE(output.empty());
  std::string error;
  const auto s = Scenario::loadFile(path, &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(output.back(), totalsLine(s->name, ScenarioRunner(*s).run()));
}

INSTANTIATE_TEST_SUITE_P(Files, CatalogScenario,
                         ::testing::ValuesIn(catalogStems()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST_F(RunnerFixture, SourceExecutesCommandFile) {
  const std::string path = writeTempFile("runner_commands.txt",
                                         "adv h1 0:1023 0:1023\n"
                                         "sub h6 0:1023 0:1023\n"
                                         "pub h1 100 100\n"
                                         "run\n");
  runner.executeLine("source " + path);
  EXPECT_TRUE(outputContains("ok: 1 deliveries"));
  EXPECT_TRUE(outputContains("ok: sourced " + path));
  std::remove(path.c_str());
}

TEST_F(RunnerFixture, SourceNestingBounded) {
  // A file sourcing itself must terminate at the depth bound.
  const std::string path = ::testing::TempDir() + "/runner_self_source.txt";
  {
    std::ofstream out(path);
    out << "source " << path << "\n";
  }
  runner.executeLine("source " + path);
  EXPECT_TRUE(outputContains("error: source nesting too deep"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pleroma::scenario
