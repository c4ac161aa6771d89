#include "openflow/control_channel.hpp"

#include <gtest/gtest.h>


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

struct ChannelFixture : ::testing::Test {
  ChannelFixture()
      : topo(net::Topology::line(2)),
        net_(topo, sim, {}),
        channel(net_, 2 * net::kMillisecond) {
    sw = topo.switches()[0];
  }
  net::Topology topo;
  net::Simulator sim;
  net::Network net_;
  ControlChannel channel;
  net::NodeId sw;
};

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
  channel.enableAsyncInstall();
  ControlFaultModel faults;
  faults.duplicateProbability = 1.0;
  channel.setFaultModel(faults);
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  channel.send({FlowModType::kDelete, sw, entry("10", 2)});
  sim.run();
  EXPECT_TRUE(net_.flowTable(sw).empty());
  EXPECT_EQ(channel.stats().flowModsDuplicated, 2u);
  // Re-applying an identical add / already-done delete is not a failure.
  EXPECT_EQ(channel.asyncApplyFailures(), 0u);
}

TEST_F(ChannelFixture, AsyncApplyFailureIsCounted) {
  channel.enableAsyncInstall();
  // Modify of a missing entry fails at the switch; the seed silently
  // discarded the deferred result.
  channel.send({FlowModType::kModify, sw, entry("10", 2)});
  sim.run();
  EXPECT_EQ(channel.asyncApplyFailures(), 1u);
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
  channel.enableAsyncInstall();
  ControlFaultModel faults;
  faults.dropProbability = 1.0;
  channel.setFaultModel(faults);
  RetryPolicy retry;
  retry.maxRetries = 2;
  retry.initialTimeout = net::kMillisecond;
  channel.setRetryPolicy(retry);
  channel.send({FlowModType::kAdd, sw, entry("10", 2)});
  sim.run();
  EXPECT_EQ(channel.stats().flowModsAbandoned, 1u);
  EXPECT_EQ(channel.stats().flowModsRetried, 2u);
  EXPECT_EQ(channel.stats().flowModsAcked, 0u);
  EXPECT_TRUE(channel.quiescent(sw));
  EXPECT_TRUE(net_.flowTable(sw).empty());
}

TEST_F(ChannelFixture, DisconnectedSwitchDropsEverything) {
  channel.setSwitchConnected(sw, false);
  EXPECT_FALSE(channel.switchConnected(sw));
  EXPECT_FALSE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  EXPECT_EQ(channel.stats().flowModsDropped, 1u);
  channel.setSwitchConnected(sw, true);
  EXPECT_TRUE(channel.send({FlowModType::kAdd, sw, entry("10", 2)}));
  EXPECT_EQ(net_.flowTable(sw).size(), 1u);
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

}  // namespace
}  // namespace pleroma::openflow
