#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace pleroma::scenario {
namespace {

/// A document exercising every optional block: non-default topology,
/// controller overrides, failover, workload defaults plus per-phase
/// overrides, all five families, a fault schedule, and smoke caps.
const char* kRichScenario = R"({
  "schema": "pleroma-scenario-v1",
  "name": "rich_fixture",
  "description": "every-field fixture",
  "seed": 7,
  "topology": { "kind": "testbed-fat-tree" },
  "attributes": { "count": 3, "bits": 9 },
  "partitions": 1,
  "controller": { "max_dz_length": 20, "max_cells_per_request": 16 },
  "failover": { "heartbeat_ms": 5, "miss_threshold": 2 },
  "workload": { "selectivity": 0.2, "advertisement_width_factor": 3.0,
                "hotspots": 5, "zipf_alpha": 0.9, "hotspot_radius": 0.1 },
  "phases": [
    { "name": "warmup", "family": "uniform",
      "advertisements": 4, "subscriptions": 20, "events": 30 },
    { "name": "hot", "family": "zipfian",
      "subscriptions": 10, "events": 20, "selectivity": 0.05,
      "hotspots": 3, "zipf_alpha": 1.2, "hotspot_radius": 0.06 },
    { "name": "burst", "family": "flash-crowd",
      "advertisements": 2, "subscriptions": 15, "events": 25,
      "crowd_centre": [0.7, 0.3, 0.5], "crowd_radius": 0.04,
      "event_interval_us": 200 },
    { "name": "moves", "family": "churn", "churn_moves": 8, "events": 10 },
    { "name": "wide", "family": "wide-event-space",
      "subscriptions": 5, "events": 10, "uninformative_dims": [2] }
  ],
  "faults": [
    { "at_ms": 2.0, "action": "link-down", "target": 1 },
    { "at_ms": 4.0, "action": "link-up", "target": 1 },
    { "at_ms": 6.0, "action": "controller-kill" }
  ],
  "smoke": { "max_advertisements": 2, "max_subscriptions": 8,
             "max_events": 16, "max_churn_moves": 4 }
})";

std::optional<Scenario> parseOk(const std::string& text) {
  std::string error;
  auto s = Scenario::parse(text, &error);
  EXPECT_TRUE(s.has_value()) << error;
  return s;
}

std::string parseError(const std::string& text) {
  std::string error;
  auto s = Scenario::parse(text, &error);
  EXPECT_FALSE(s.has_value()) << "expected rejection, got a scenario";
  return error;
}

/// Minimal valid scenario text with `extra` spliced before "phases".
std::string minimalWith(const std::string& extra) {
  return std::string(R"({
  "schema": "pleroma-scenario-v1",
  "name": "minimal",
  "topology": { "kind": "ring", "switches": 4 },
)") + extra +
         R"(  "phases": [ { "name": "p", "family": "uniform",
                 "advertisements": 1, "subscriptions": 2, "events": 3 } ]
})";
}

TEST(ScenarioParse, ParsePreservesEveryField) {
  auto r = parseOk(kRichScenario);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->name, "rich_fixture");
  EXPECT_EQ(r->seed, 7u);
  EXPECT_EQ(r->numAttributes, 3);
  EXPECT_EQ(r->bitsPerDim, 9);
  ASSERT_TRUE(r->maxDzLength.has_value());
  EXPECT_EQ(*r->maxDzLength, 20);
  ASSERT_TRUE(r->maxCellsPerRequest.has_value());
  EXPECT_EQ(*r->maxCellsPerRequest, 16u);
  EXPECT_TRUE(r->failover.enabled);
  EXPECT_EQ(r->failover.heartbeatInterval, 5 * net::kMillisecond);
  EXPECT_EQ(r->failover.missThreshold, 2);
  EXPECT_DOUBLE_EQ(r->workload.selectivity, 0.2);
  ASSERT_EQ(r->phases.size(), 5u);
  EXPECT_EQ(r->phases[1].family, Family::kZipfian);
  ASSERT_TRUE(r->phases[1].selectivity.has_value());
  EXPECT_DOUBLE_EQ(*r->phases[1].selectivity, 0.05);
  EXPECT_EQ(r->phases[2].eventInterval, 200 * net::kMicrosecond);
  ASSERT_EQ(r->phases[2].crowdCentre.size(), 3u);
  EXPECT_DOUBLE_EQ(r->phases[2].crowdCentre[0], 0.7);
  EXPECT_EQ(r->phases[3].churnMoves, 8u);
  EXPECT_EQ(r->phases[4].uninformativeDims, (std::vector<int>{2}));
  ASSERT_EQ(r->faults.size(), 3u);
  EXPECT_EQ(r->faults[0].at, 2 * net::kMillisecond);
  EXPECT_EQ(r->faults[0].action, FaultAction::kLinkDown);
  EXPECT_EQ(r->faults[2].action, FaultAction::kControllerKill);
  EXPECT_EQ(r->smoke.maxEvents, 16u);
}

TEST(ScenarioParse, RichFixtureValidates) {
  auto s = parseOk(kRichScenario);
  ASSERT_TRUE(s.has_value());
  std::string error;
  EXPECT_TRUE(s->validate(&error)) << error;
}

TEST(ScenarioParse, SyntaxErrorReportsLine) {
  const std::string error = parseError(
      "{\n"
      "  \"schema\": \"pleroma-scenario-v1\",\n"
      "  \"name\": oops\n"
      "}\n");
  EXPECT_NE(error.find("(line 3)"), std::string::npos) << error;
}

// The parser recurses once per nesting level; a hostile document must be
// rejected at the 257th open container, not overflow the stack.
TEST(ScenarioParse, DeepNestingReportsOffset) {
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const auto& [text, offset] :
       {std::pair{std::string(100000, '['), std::size_t{256}},
        std::pair{objects, std::size_t{256 * 5}}}) {
    const std::string error = parseError(text);
    EXPECT_NE(error.find("nesting deeper than 256 levels at offset " +
                         std::to_string(offset)),
              std::string::npos)
        << error;
  }
}

TEST(ScenarioParse, UnknownTopLevelKeyNamed) {
  const std::string error = parseError(minimalWith("  \"topolgy2\": 1,\n"));
  EXPECT_NE(error.find("topolgy2"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown field"), std::string::npos) << error;
}

TEST(ScenarioParse, UnknownNestedKeyReportsPath) {
  const std::string error = parseError(minimalWith(
      "  \"workload\": { \"selectivty\": 0.1 },\n"));
  EXPECT_NE(error.find("workload.selectivty"), std::string::npos) << error;
}

TEST(ScenarioParse, BadFamilyReportsPhasePath) {
  const std::string error = parseError(R"({
    "schema": "pleroma-scenario-v1",
    "name": "x",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [
      { "name": "a", "family": "uniform", "advertisements": 1, "events": 1 },
      { "name": "b", "family": "bogus" }
    ]
  })");
  EXPECT_NE(error.find("phases[1].family"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(ScenarioParse, WrongSchemaRejected) {
  const std::string error = parseError(R"({
    "schema": "pleroma-scenario-v2",
    "name": "x",
    "phases": []
  })");
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(ScenarioParse, TypeMismatchReportsPath) {
  const std::string error = parseError(minimalWith("  \"seed\": \"many\",\n"));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_NE(error.find("expected an integer"), std::string::npos) << error;
}

// Integers beyond the destination type are rejected by path instead of
// narrowing: 4294967308 would otherwise wrap to a 12-switch topology.
TEST(ScenarioParse, IntFieldOverflowReportsPath) {
  for (const char* value : {"4294967308", "2147483648"}) {
    SCOPED_TRACE(value);
    const std::string error = parseError(R"({
      "schema": "pleroma-scenario-v1",
      "name": "x",
      "topology": { "kind": "random", "switches": )" + std::string(value) + R"( },
      "phases": [ { "name": "p", "family": "uniform", "events": 1 } ]
    })");
    EXPECT_NE(error.find("topology.switches"), std::string::npos) << error;
    EXPECT_NE(error.find("expected an integer <= 2147483647"), std::string::npos)
        << error;
  }
}

TEST(ScenarioParse, MicrosecondFieldOverflowReportsPath) {
  const std::string error = parseError(R"({
    "schema": "pleroma-scenario-v1",
    "name": "x",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [ { "name": "p", "family": "uniform", "events": 1,
                  "event_interval_us": 9223372036854775807 } ]
  })");
  EXPECT_NE(error.find("phases[0].event_interval_us"), std::string::npos) << error;
  EXPECT_NE(error.find("expected an integer <="), std::string::npos) << error;
}

TEST(ScenarioParse, LargestMicrosecondFieldAccepted) {
  // INT64_MAX / 1000 us is the largest interval whose nanosecond value fits.
  auto s = parseOk(R"({
    "schema": "pleroma-scenario-v1",
    "name": "x",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [ { "name": "p", "family": "uniform", "events": 1,
                  "event_interval_us": 9223372036854775 } ]
  })");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->phases[0].eventInterval, 9223372036854775 * net::kMicrosecond);
}

TEST(ScenarioParse, MillisecondFieldOverflowReportsPath) {
  // 9.3e12 ms is 9.3e18 ns, just past INT64_MAX; 1e300 is far past it.
  for (const char* at : {"9.3e12", "1e300"}) {
    const std::string error = parseError(minimalWith(
        std::string("  \"faults\": [ { \"at_ms\": ") + at +
        ", \"action\": \"link-down\", \"target\": 0 } ],\n"));
    EXPECT_NE(error.find("faults[0].at_ms"), std::string::npos) << error;
    EXPECT_NE(error.find("expected a number <"), std::string::npos) << error;
  }
  const std::string error = parseError(
      minimalWith("  \"failover\": { \"heartbeat_ms\": 1e300 },\n"));
  EXPECT_NE(error.find("failover.heartbeat_ms"), std::string::npos) << error;
  EXPECT_NE(error.find("expected a number <"), std::string::npos) << error;
}

TEST(ScenarioParse, HeartbeatRoundingToZeroNanosecondsRejected) {
  const std::string error = parseError(
      minimalWith("  \"failover\": { \"heartbeat_ms\": 1e-7 },\n"));
  EXPECT_NE(error.find("failover.heartbeat_ms"), std::string::npos) << error;
}

TEST(ScenarioParse, LargestMillisecondFieldAccepted) {
  // The double nearest 9223372036854.774 ms times 10^6 stays below 2^63;
  // 9223372036854.775 rounds to exactly 2^63 ns and is rejected above.
  auto s = parseOk(minimalWith(
      "  \"faults\": [ { \"at_ms\": 9223372036854.774,"
      " \"action\": \"link-down\", \"target\": 0 } ],\n"
      "  \"failover\": { \"heartbeat_ms\": 0.000001 },\n"));
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->faults.size(), 1u);
  EXPECT_EQ(s->faults[0].at, 9223372036854773760);
  EXPECT_EQ(s->failover.heartbeatInterval, 1);
}

TEST(ScenarioValidate, FaultTargetOutOfRange) {
  auto s = parseOk(minimalWith(
      "  \"faults\": [ { \"at_ms\": 1.0, \"action\": \"link-down\","
      " \"target\": 9999 } ],\n"));
  ASSERT_TRUE(s.has_value());
  std::string error;
  EXPECT_FALSE(s->validate(&error));
  EXPECT_NE(error.find("faults[0].target"), std::string::npos) << error;
}

TEST(ScenarioValidate, MultiPartitionRejectsFaults) {
  auto s = parseOk(minimalWith(
      "  \"partitions\": 2,\n"
      "  \"faults\": [ { \"at_ms\": 1.0, \"action\": \"link-down\","
      " \"target\": 0 } ],\n"));
  ASSERT_TRUE(s.has_value());
  std::string error;
  EXPECT_FALSE(s->validate(&error));
  EXPECT_NE(error.find("faults"), std::string::npos) << error;
}

TEST(ScenarioValidate, EventsRequirePriorAdvertisement) {
  auto s = parseOk(R"({
    "schema": "pleroma-scenario-v1",
    "name": "x",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [ { "name": "p", "family": "uniform", "events": 10 } ]
  })");
  ASSERT_TRUE(s.has_value());
  std::string error;
  EXPECT_FALSE(s->validate(&error));
  EXPECT_NE(error.find("phases[0]"), std::string::npos) << error;
}

TEST(ScenarioValidate, ChurnRequiresPriorSubscriptions) {
  auto s = parseOk(R"({
    "schema": "pleroma-scenario-v1",
    "name": "x",
    "topology": { "kind": "ring", "switches": 4 },
    "phases": [ { "name": "p", "family": "churn", "advertisements": 1,
                  "churn_moves": 4 } ]
  })");
  ASSERT_TRUE(s.has_value());
  std::string error;
  EXPECT_FALSE(s->validate(&error));
  EXPECT_NE(error.find("churn"), std::string::npos) << error;
}

TEST(ScenarioValidate, LoadFilePrefixesPath) {
  const std::string path = ::testing::TempDir() + "/broken_scenario.json";
  {
    std::ofstream out(path);
    out << "{ not json\n";
  }
  std::string error;
  auto s = Scenario::loadFile(path, &error);
  EXPECT_FALSE(s.has_value());
  EXPECT_NE(error.find(path), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ScenarioPlan, SmokeCapsApply) {
  auto s = parseOk(kRichScenario);
  ASSERT_TRUE(s.has_value());
  const PhasePlan full = buildPhasePlan(*s, 0, 8, 0, /*smoke=*/false);
  const PhasePlan smoke = buildPhasePlan(*s, 0, 8, 0, /*smoke=*/true);
  EXPECT_EQ(full.advertisements.size(), 4u);
  EXPECT_EQ(full.subscriptions.size(), 20u);
  EXPECT_EQ(full.events.size(), 30u);
  EXPECT_EQ(smoke.advertisements.size(), 2u);
  EXPECT_EQ(smoke.subscriptions.size(), 8u);
  EXPECT_EQ(smoke.events.size(), 16u);
}

TEST(ScenarioPlan, PhaseSeedsDeriveFromScenarioSeed) {
  auto s = parseOk(kRichScenario);
  ASSERT_TRUE(s.has_value());
  const auto c0 = phaseWorkloadConfig(*s, 0);
  const auto c1 = phaseWorkloadConfig(*s, 1);
  EXPECT_EQ(c0.seed, workload::derivePhaseSeed(s->seed, 0));
  EXPECT_NE(c0.seed, c1.seed);
  EXPECT_NE(c0.seed, s->seed);
}

TEST(ScenarioPlan, HostSlotsRoundRobin) {
  auto s = parseOk(kRichScenario);
  ASSERT_TRUE(s.has_value());
  const PhasePlan plan = buildPhasePlan(*s, 0, 3, 0, /*smoke=*/false);
  for (std::size_t i = 0; i < plan.subscriptions.size(); ++i) {
    EXPECT_EQ(plan.subscriptions[i].first, i % 3);
  }
}

TEST(ScenarioLabels, TopologyAndWorkload) {
  auto s = parseOk(kRichScenario);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->topologyLabel(), "testbed_fat_tree");
  EXPECT_EQ(s->workloadLabel(),
            "uniform+zipfian+flash-crowd+churn+wide-event-space");
  EXPECT_TRUE(s->needsFailover());
}

}  // namespace
}  // namespace pleroma::scenario
