#include "openflow/control_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace pleroma::openflow {
namespace {

dz::DzExpression dz(std::string_view s) { return *dz::DzExpression::fromString(s); }

net::FlowEntry entry(std::string_view dzStr, net::PortId port) {
  net::FlowEntry e;
  const auto d = dz(dzStr);
  e.match = dz::dzToPrefix(d);
  e.priority = d.length();
  e.actions.push_back(net::FlowAction{port, std::nullopt});
  return e;
}

/// A 2 ms channel to the switches of a two-switch line.
struct ChannelRig {
  explicit ChannelRig(bool batched)
      : topo(net::Topology::line(2)),
        net_(topo, sim, {}),
        channel(net_, 2 * net::kMillisecond),
        sw(topo.switches()[0]) {
    channel.enableBatching(batched);
  }
  net::Topology topo;
  net::Simulator sim;
  net::Network net_;
  ControlChannel channel;
  net::NodeId sw;
};

struct ChannelFixture : ::testing::Test, ChannelRig {
  ChannelFixture() : ChannelRig(/*batched=*/false) {}
};

/// Runs `body` on a fresh rig with batching off, then on. A message of one
/// must behave alike either way, apart from counting as a batch.
template <typename Body>
void withBatchingOffAndOn(Body body) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batching on" : "batching off");
    ChannelRig rig(batched);
    body(rig, batched);
  }
}

/// Every counter of `s` but the two batch counters.
auto countersBesideBatches(const ControlPlaneStats& s) {
  return std::tie(s.flowModsSent, s.flowAdds, s.flowModifies, s.flowDeletes,
                  s.flowModsDropped, s.flowModsDuplicated, s.flowModsRetried,
                  s.flowModsAcked, s.flowModsAbandoned, s.asyncApplyFailures,
                  s.flowStatsRequests, s.flowStatsReplies, s.flowStatsBatches,
                  s.roleRequests, s.roleReplies);
}

/// The table's entries in a canonical order (FlowTable's is unspecified).
std::vector<std::string> tableOf(const net::FlowTable& table) {
  std::vector<std::string> out;
  for (const net::FlowEntry& e : table.entries()) out.push_back(e.toString());
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(ChannelFixture, AddInstallsFlow) {
  EXPECT_TRUE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  EXPECT_EQ(net_.flowTable(sw).size(), 1u);
  EXPECT_EQ(channel.stats().flowAdds, 1u);
  EXPECT_EQ(channel.stats().flowModsSent, 1u);
}

TEST_F(ChannelFixture, ModifyRequiresExisting) {
  EXPECT_FALSE(channel.send({FlowModType::kModify, sw, entry("10", 2)}));
  EXPECT_TRUE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  net::FlowEntry updated = entry("10", 2);
  updated.addOutPort(3);
  EXPECT_TRUE(channel.send({FlowModType::kModify, sw, updated}));
  EXPECT_EQ(net_.flowTable(sw).find(updated.match)->outPorts(),
            (std::vector<net::PortId>{2, 3}));
}

TEST_F(ChannelFixture, DeleteRemoves) {
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  EXPECT_TRUE(channel.send({FlowModType::kDelete, sw, entry("10", 2)}));
  EXPECT_FALSE(channel.send({FlowModType::kDelete, sw, entry("10", 2)}));
  EXPECT_TRUE(net_.flowTable(sw).empty());
  EXPECT_EQ(channel.stats().flowDeletes, 2u);
}

TEST_F(ChannelFixture, ModeledInstallTimeAccumulates) {
  channel.send({FlowModType::kAdd, sw, entry("0", 1)});
  channel.send({FlowModType::kAdd, sw, entry("1", 1)});
  EXPECT_EQ(channel.modeledInstallTime(), 4 * net::kMillisecond);
  channel.resetModeledInstallTime();
  EXPECT_EQ(channel.modeledInstallTime(), 0);
}

TEST_F(ChannelFixture, FlowsOfReadsSwitchTable) {
  channel.send({FlowModType::kAdd, sw, entry("0", 1)});
  EXPECT_EQ(channel.flowsOf(sw).size(), 1u);
}

TEST_F(ChannelFixture, AsyncInstallAppliesAfterLatency) {
  channel.enableAsyncInstall();
  EXPECT_TRUE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  // Not yet applied.
  EXPECT_TRUE(net_.flowTable(sw).empty());
  sim.runUntil(1 * net::kMillisecond);
  EXPECT_TRUE(net_.flowTable(sw).empty());
  sim.runUntil(2 * net::kMillisecond);  // flowModLatency is 2 ms here
  EXPECT_EQ(net_.flowTable(sw).size(), 1u);
}

TEST_F(ChannelFixture, AsyncInstallPreservesSendOrder) {
  channel.enableAsyncInstall();
  // Add then delete the same entry in one burst: after settling the entry
  // must be gone (delete applied last), taking 2 x latency sequentially.
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  channel.send({FlowModType::kDelete, sw, entry("10", 2)});
  sim.runUntil(3 * net::kMillisecond);
  EXPECT_EQ(net_.flowTable(sw).size(), 1u);  // add applied, delete pending
  sim.run();
  EXPECT_TRUE(net_.flowTable(sw).empty());
}

TEST_F(ChannelFixture, AsyncBurstsSerialise) {
  channel.enableAsyncInstall();
  for (int i = 0; i < 5; ++i) {
    channel.send({FlowModType::kAdd, sw,
                  entry(std::string(static_cast<std::size_t>(i + 1), '1'), 2)});
  }
  // Mods apply one per 2 ms, back to back.
  sim.runUntil(6 * net::kMillisecond);
  EXPECT_EQ(net_.flowTable(sw).size(), 3u);
  sim.run();
  EXPECT_EQ(net_.flowTable(sw).size(), 5u);
}

// ---- fault model / reliability layer -----------------------------------

TEST_F(ChannelFixture, SyncDropLosesModAndCounts) {
  ControlFaultModel faults;
  faults.dropProbability = 1.0;
  channel.setFaultModel(faults);
  EXPECT_FALSE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  EXPECT_TRUE(net_.flowTable(sw).empty());
  EXPECT_EQ(channel.stats().flowModsDropped, 1u);
  EXPECT_EQ(channel.stats().flowModsAbandoned, 1u);
  EXPECT_EQ(channel.stats().flowModsSent, 1u);  // attempts still accounted
}

TEST_F(ChannelFixture, AsyncDropWithoutRetryIsAbandoned) {
  channel.enableAsyncInstall();
  ControlFaultModel faults;
  faults.dropProbability = 1.0;
  channel.setFaultModel(faults);
  EXPECT_TRUE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  sim.run();
  EXPECT_TRUE(net_.flowTable(sw).empty());
  EXPECT_EQ(channel.stats().flowModsAbandoned, 1u);
  EXPECT_EQ(channel.outstandingMods(sw), 0u);  // resolved, not leaked
}

TEST_F(ChannelFixture, RetryRecoversFromLossyChannel) {
  channel.enableAsyncInstall();
  ControlFaultModel faults;
  faults.dropProbability = 0.5;
  channel.setFaultModel(faults);
  RetryPolicy retry;
  retry.maxRetries = 16;
  channel.setRetryPolicy(retry);
  channel.reseedFaults(42);
  for (int i = 0; i < 8; ++i) {
    channel.send({FlowModType::kAdd, sw,
                  entry(std::string(static_cast<std::size_t>(i + 1), '1'), 2)});
  }
  sim.run();
  EXPECT_EQ(net_.flowTable(sw).size(), 8u) << "retries must deliver every mod";
  EXPECT_GT(channel.stats().flowModsDropped, 0u) << "channel was not lossy";
  EXPECT_GT(channel.stats().flowModsRetried, 0u);
  EXPECT_EQ(channel.stats().flowModsAbandoned, 0u);
  EXPECT_EQ(channel.outstandingMods(), 0u);
}

TEST_F(ChannelFixture, DuplicateDeliveryIsIdempotent) {
  withBatchingOffAndOn([](ChannelRig& r, bool batched) {
    r.channel.enableAsyncInstall();
    ControlFaultModel faults;
    faults.duplicateProbability = 1.0;
    r.channel.setFaultModel(faults);
    r.channel.send({FlowModType::kAdd, r.sw, entry("10", 2)});
    r.channel.send({FlowModType::kDelete, r.sw, entry("10", 2)});
    r.sim.run();
    EXPECT_TRUE(r.net_.flowTable(r.sw).empty());
    EXPECT_EQ(r.channel.stats().flowModsDuplicated, 2u);
    EXPECT_EQ(r.channel.stats().flowModBatches, batched ? 2u : 0u);
    // Re-applying an identical add / already-done delete is not a failure.
    EXPECT_EQ(r.channel.asyncApplyFailures(), 0u);
  });
}

TEST_F(ChannelFixture, AsyncApplyFailureIsCounted) {
  withBatchingOffAndOn([](ChannelRig& r, bool) {
    r.channel.enableAsyncInstall();
    // Modify of a missing entry fails at the switch; the seed silently
    // discarded the deferred result.
    r.channel.send({FlowModType::kModify, r.sw, entry("10", 2)});
    r.sim.run();
    EXPECT_EQ(r.channel.asyncApplyFailures(), 1u);
  });
}

TEST_F(ChannelFixture, AsyncModsStayOutstandingUntilTheyLand) {
  channel.enableAsyncInstall();
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  channel.send({FlowModType::kAdd, sw, entry("11", 2)});
  EXPECT_EQ(channel.outstandingMods(sw), 2u);
  EXPECT_FALSE(channel.quiescent(sw));
  sim.run();
  EXPECT_TRUE(channel.quiescent(sw));
  EXPECT_EQ(channel.stats().flowModsAcked, 2u);
}

TEST_F(ChannelFixture, RetryBudgetExhaustionAbandonsMod) {
  withBatchingOffAndOn([](ChannelRig& r, bool) {
    r.channel.enableAsyncInstall();
    ControlFaultModel faults;
    faults.dropProbability = 1.0;
    r.channel.setFaultModel(faults);
    RetryPolicy retry;
    retry.maxRetries = 2;
    retry.initialTimeout = net::kMillisecond;
    r.channel.setRetryPolicy(retry);
    r.channel.send({FlowModType::kAdd, r.sw, entry("10", 2)});
    r.sim.run();
    EXPECT_EQ(r.channel.stats().flowModsAbandoned, 1u);
    EXPECT_EQ(r.channel.stats().flowModsRetried, 2u);
    EXPECT_EQ(r.channel.stats().flowModsAcked, 0u);
    EXPECT_TRUE(r.channel.quiescent(r.sw));
    EXPECT_TRUE(r.net_.flowTable(r.sw).empty());
  });
}

TEST_F(ChannelFixture, DisconnectedSwitchDropsEverything) {
  withBatchingOffAndOn([](ChannelRig& r, bool) {
    r.channel.setSwitchConnected(r.sw, false);
    EXPECT_FALSE(r.channel.switchConnected(r.sw));
    EXPECT_FALSE(r.channel.send({FlowModType::kAdd, r.sw, entry("10", 2)}));
    EXPECT_EQ(r.channel.stats().flowModsDropped, 1u);
    r.channel.setSwitchConnected(r.sw, true);
    EXPECT_TRUE(r.channel.send({FlowModType::kAdd, r.sw, entry("10", 2)}));
    EXPECT_EQ(r.net_.flowTable(r.sw).size(), 1u);
  });
}

TEST_F(ChannelFixture, ExtraDelayDefersAsyncApply) {
  channel.enableAsyncInstall();
  ControlFaultModel faults;
  faults.maxExtraDelay = 10 * net::kMillisecond;
  channel.setFaultModel(faults);
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  sim.run();
  EXPECT_EQ(net_.flowTable(sw).size(), 1u);
  EXPECT_GE(sim.now(), 2 * net::kMillisecond);  // at least the base latency
}

TEST_F(ChannelFixture, FlowStatsReadSurfacesMatchedPackets) {
  channel.send({FlowModType::kAdd, sw, entry("0", 2)});
  channel.send({FlowModType::kAdd, sw, entry("1", 2)});
  net_.flowTable(sw).lookup(dz::dzToAddress(dz("00")));
  net_.flowTable(sw).lookup(dz::dzToAddress(dz("01")));
  net_.flowTable(sw).lookup(dz::dzToAddress(dz("10")));

  const FlowStatsReply reply = channel.requestFlowStats(sw);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.switchNode, sw);
  ASSERT_EQ(reply.entries.size(), 2u);
  std::uint64_t matched = 0;
  for (const net::FlowEntry& e : reply.entries) matched += e.matchedPackets;
  EXPECT_EQ(matched, 3u);
  EXPECT_EQ(channel.stats().flowStatsRequests, 1u);
  EXPECT_EQ(channel.stats().flowStatsReplies, 1u);
}

TEST_F(ChannelFixture, FlowStatsFromDisconnectedSwitchFails) {
  channel.send({FlowModType::kAdd, sw, entry("0", 2)});
  channel.setSwitchConnected(sw, false);

  const FlowStatsReply reply = channel.requestFlowStats(sw);
  EXPECT_FALSE(reply.ok);
  EXPECT_TRUE(reply.entries.empty());
  // The attempt is counted but no reply arrives.
  EXPECT_EQ(channel.stats().flowStatsRequests, 1u);
  EXPECT_EQ(channel.stats().flowStatsReplies, 0u);
}

TEST_F(ChannelFixture, AddRejectedWhenTableFull) {
  net::NetworkConfig cfg;
  cfg.flowTableCapacity = 1;
  net::Simulator sim2;
  net::Network small(topo, sim2, cfg);
  ControlChannel ch(small);
  EXPECT_TRUE(ch.send({FlowModType::kAdd, sw, entry("0", 1)}));
  EXPECT_FALSE(ch.send({FlowModType::kAdd, sw, entry("1", 1)}));
}


// ---- flow-mod batching ----------------------------------------------------

TEST_F(ChannelFixture, SendBatchDisabledDegeneratesToSingles) {
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  EXPECT_EQ(channel.sendBatch(mods), 2u);
  EXPECT_EQ(channel.stats().flowModsSent, 2u);
  EXPECT_EQ(channel.stats().flowModBatches, 0u);
  EXPECT_EQ(channel.stats().batchedMods, 0u);
  EXPECT_EQ(channel.stats().flowModMessages(), 2u);
  EXPECT_EQ(net_.flowTable(sw).size(), 2u);
}

TEST_F(ChannelFixture, SendBatchCoalescesIntoOneMessage) {
  channel.enableBatching();
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)},
                                     {FlowModType::kAdd, sw, entry("10", 2)}};
  EXPECT_EQ(channel.sendBatch(mods), 3u);
  EXPECT_EQ(channel.stats().flowModsSent, 3u);
  EXPECT_EQ(channel.stats().flowModBatches, 1u);
  EXPECT_EQ(channel.stats().batchedMods, 3u);
  EXPECT_EQ(channel.stats().flowModMessages(), 1u);
  EXPECT_EQ(net_.flowTable(sw).size(), 3u);
}

TEST_F(ChannelFixture, SendBatchGroupsBySwitch) {
  channel.enableBatching();
  const net::NodeId sw2 = topo.switches()[1];
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw2, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  EXPECT_EQ(channel.sendBatch(mods), 3u);
  EXPECT_EQ(channel.stats().flowModBatches, 2u);
  EXPECT_EQ(channel.stats().flowModMessages(), 2u);
  EXPECT_EQ(net_.flowTable(sw).size(), 2u);
  EXPECT_EQ(net_.flowTable(sw2).size(), 1u);
}

TEST_F(ChannelFixture, SendBatchPreservesOrderWithinSwitch) {
  channel.enableBatching();
  // Add then modify the same match inside one batch: order matters.
  net::FlowEntry updated = entry("10", 2);
  updated.addOutPort(3);
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("10", 2)},
                                     {FlowModType::kModify, sw, updated}};
  EXPECT_EQ(channel.sendBatch(mods), 2u);
  EXPECT_EQ(net_.flowTable(sw).find(updated.match)->outPorts(),
            (std::vector<net::PortId>{2, 3}));
}

TEST_F(ChannelFixture, AsyncBatchUsesOneXidAndAcksOnce) {
  channel.enableBatching();
  channel.enableAsyncInstall();
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  EXPECT_EQ(channel.sendBatch(mods), 2u);
  // One xid tracks the whole batch.
  EXPECT_EQ(channel.outstandingMods(sw), 1u);
  sim.run();
  EXPECT_EQ(channel.stats().flowModsAcked, 1u);
  EXPECT_EQ(channel.outstandingMods(sw), 0u);
  EXPECT_EQ(net_.flowTable(sw).size(), 2u);
}

TEST_F(ChannelFixture, AsyncBatchInstallTimeIsPerMod) {
  channel.enableBatching();
  channel.enableAsyncInstall();
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  channel.sendBatch(mods);
  // The batch saves messages, not TCAM writes: it completes after
  // 2 * flowModLatency (2ms each).
  sim.runUntil(3 * net::kMillisecond);
  EXPECT_EQ(net_.flowTable(sw).size(), 0u);
  sim.runUntil(4 * net::kMillisecond);
  EXPECT_EQ(net_.flowTable(sw).size(), 2u);
}

TEST_F(ChannelFixture, AsyncBatchRetriesAsAUnit) {
  channel.enableBatching();
  channel.enableAsyncInstall();
  RetryPolicy retry;
  retry.maxRetries = 8;
  channel.setRetryPolicy(retry);
  ControlFaultModel faults;
  faults.dropProbability = 0.5;
  channel.setFaultModel(faults);
  channel.reseedFaults(42);
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  channel.sendBatch(mods);
  sim.run();
  // Either the batch got through on the first try or was retransmitted as
  // one unit; both mods always land together.
  EXPECT_EQ(net_.flowTable(sw).size(), 2u);
  EXPECT_EQ(channel.stats().flowModsAbandoned, 0u);
  EXPECT_EQ(channel.outstandingMods(sw), 0u);
}

TEST_F(ChannelFixture, SyncBatchDropLosesWholeMessage) {
  channel.enableBatching();
  ControlFaultModel faults;
  faults.dropProbability = 1.0;
  channel.setFaultModel(faults);
  const std::vector<FlowMod> mods = {{FlowModType::kAdd, sw, entry("0", 1)},
                                     {FlowModType::kAdd, sw, entry("1", 2)}};
  EXPECT_EQ(channel.sendBatch(mods), 0u);
  EXPECT_TRUE(net_.flowTable(sw).empty());
  EXPECT_EQ(channel.stats().flowModsDropped, 2u);
  EXPECT_EQ(channel.stats().flowModsAbandoned, 2u);
}

// Seeded random mod sequences under random fault models: send(mod) on a
// channel that does not batch and sendBatch({mod}) on one that does take
// the same message path, so tables and stats agree (the batch counters
// aside), synchronous and asynchronous alike.
TEST(ChannelEquivalence, MessageOfOneMatchesWithAndWithoutBatching) {
  util::Rng rng(0xBA7C4ULL);
  const std::vector<std::string> dzs = {"0", "1", "01", "10", "110", "0110"};
  ControlPlaneStats total;  // the faults the rounds reached, summed
  for (int round = 0; round < 24; ++round) {
    const bool async = round % 2 == 1;
    SCOPED_TRACE(testing::Message() << "round " << round);
    ControlFaultModel faults;
    faults.dropProbability = rng.uniformReal(0.0, 0.5);
    faults.duplicateProbability = rng.uniformReal(0.0, 0.5);
    if (async) {
      faults.maxExtraDelay =
          static_cast<net::SimTime>(rng.uniformInt(0, 3)) * net::kMillisecond;
    }
    RetryPolicy retry;
    retry.maxRetries = static_cast<int>(rng.uniformInt(0, 3));
    ChannelRig plain(/*batched=*/false);
    ChannelRig batching(/*batched=*/true);
    for (ChannelRig* r : {&plain, &batching}) {
      if (async) r->channel.enableAsyncInstall();
      r->channel.setFaultModel(faults);
      r->channel.setRetryPolicy(retry);
      r->channel.reseedFaults(static_cast<std::uint64_t>(round) + 1);
    }
    const std::vector<net::NodeId> switches = plain.topo.switches();
    for (int i = 0; i < 60; ++i) {
      const net::NodeId sw = switches[rng.uniformInt(0, switches.size() - 1)];
      if (rng.chance(0.05)) {
        const bool up = !plain.channel.switchConnected(sw);
        plain.channel.setSwitchConnected(sw, up);
        batching.channel.setSwitchConnected(sw, up);
      }
      const FlowMod mod{static_cast<FlowModType>(rng.uniformInt(0, 2)), sw,
                        entry(dzs[rng.uniformInt(0, dzs.size() - 1)],
                              static_cast<net::PortId>(rng.uniformInt(1, 3)))};
      EXPECT_EQ(plain.channel.send(mod) ? 1u : 0u,
                batching.channel.sendBatch({&mod, 1}));
      if (async && rng.chance(0.3)) {
        const net::SimTime until =
            plain.sim.now() +
            static_cast<net::SimTime>(rng.uniformInt(0, 4)) * net::kMillisecond;
        plain.sim.runUntil(until);
        batching.sim.runUntil(until);
      }
    }
    plain.sim.run();
    batching.sim.run();
    for (const net::NodeId sw : switches) {
      EXPECT_EQ(tableOf(plain.net_.flowTable(sw)),
                tableOf(batching.net_.flowTable(sw)));
    }
    const ControlPlaneStats& a = plain.channel.stats();
    const ControlPlaneStats& b = batching.channel.stats();
    EXPECT_EQ(countersBesideBatches(a), countersBesideBatches(b));
    EXPECT_EQ(a.flowModBatches, 0u);
    EXPECT_EQ(b.flowModBatches, a.flowModsSent);
    EXPECT_EQ(b.batchedMods, a.flowModsSent);
    EXPECT_EQ(plain.channel.modeledInstallTime(),
              batching.channel.modeledInstallTime());
    total.flowModsDropped += a.flowModsDropped;
    total.flowModsDuplicated += a.flowModsDuplicated;
    total.flowModsRetried += a.flowModsRetried;
    total.asyncApplyFailures += a.asyncApplyFailures;
  }
  EXPECT_GT(total.flowModsDropped, 0u);
  EXPECT_GT(total.flowModsDuplicated, 0u);
  EXPECT_GT(total.flowModsRetried, 0u);
  EXPECT_GT(total.asyncApplyFailures, 0u);
}

}  // namespace
}  // namespace pleroma::openflow
