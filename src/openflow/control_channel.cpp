#include "openflow/control_channel.hpp"

#include <algorithm>
#include <vector>

namespace pleroma::openflow {

namespace {
const char* modTraceName(FlowModType type) {
  switch (type) {
    case FlowModType::kAdd: return "flow_mod.add";
    case FlowModType::kModify: return "flow_mod.modify";
    case FlowModType::kDelete: return "flow_mod.delete";
  }
  return "flow_mod";
}
}  // namespace

bool ControlChannel::applyNow(const FlowMod& mod) {
  net::FlowTable& table = network_.flowTable(mod.switchNode);
  switch (mod.type) {
    case FlowModType::kAdd:
      return table.insert(mod.entry);
    case FlowModType::kModify:
      if (table.find(mod.entry.match) == nullptr) return false;
      return table.insertOrReplace(mod.entry);
    case FlowModType::kDelete:
      return table.remove(mod.entry.match);
  }
  return false;
}

bool ControlChannel::applyIdempotent(const FlowMod& mod) {
  net::FlowTable& table = network_.flowTable(mod.switchNode);
  switch (mod.type) {
    case FlowModType::kAdd: {
      // A re-delivered add finds its own entry already installed: success.
      const net::FlowEntry* existing = table.find(mod.entry.match);
      if (existing != nullptr) return *existing == mod.entry;
      return table.insert(mod.entry);
    }
    case FlowModType::kModify: {
      const net::FlowEntry* existing = table.find(mod.entry.match);
      if (existing == nullptr) return false;
      if (*existing == mod.entry) return true;
      return table.insertOrReplace(mod.entry);
    }
    case FlowModType::kDelete:
      // Absent means already deleted (earlier duplicate delivery): success.
      table.remove(mod.entry.match);
      return true;
  }
  return false;
}

void ControlChannel::setSwitchConnected(net::NodeId switchNode, bool connected) {
  if (connected) {
    disconnected_.erase(switchNode);
  } else {
    disconnected_.insert(switchNode);
  }
}

void ControlChannel::countSent(const FlowMod& mod) {
  ++stats_.flowModsSent;
  modeledInstallTime_ += flowModLatency_;
  switch (mod.type) {
    case FlowModType::kAdd:
      ++stats_.flowAdds;
      break;
    case FlowModType::kModify:
      ++stats_.flowModifies;
      break;
    case FlowModType::kDelete:
      ++stats_.flowDeletes;
      break;
  }
}

std::size_t ControlChannel::sendBatch(std::span<const FlowMod> mods) {
  std::size_t sent = 0;
  if (!batching_) {
    for (std::size_t i = 0; i < mods.size(); ++i) {
      sent += sendMessage(mods.subspan(i, 1));
    }
    return sent;
  }
  // One message per destination switch, in first-appearance order; the
  // stable partition keeps the send order within each message.
  std::vector<FlowMod> grouped(mods.begin(), mods.end());
  for (auto first = grouped.begin(); first != grouped.end();) {
    const net::NodeId sw = first->switchNode;
    const auto last = std::stable_partition(
        first, grouped.end(), [sw](const FlowMod& m) { return m.switchNode == sw; });
    sent += sendMessage({first, last});
    first = last;
  }
  return sent;
}

std::size_t ControlChannel::sendMessage(std::span<const FlowMod> mods) {
  if (muted_) return mods.size();  // promotion replay: intent only, no wire traffic
  if (batching_) {
    ++stats_.flowModBatches;
    stats_.batchedMods += mods.size();
  }
  for (const FlowMod& mod : mods) countSent(mod);
  const net::NodeId sw = mods.front().switchNode;
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const char* name = batching_ ? "flow_mod.batch" : modTraceName(mods.front().type);

  if (!async_) {
    // Synchronous channel: a dropped message is lost for good (no retry
    // timer can fire without the simulator running); the mirror/switch
    // divergence is the reconciler's to repair.
    const bool lost = !switchConnected(sw) || rng_.chance(faults_.dropProbability);
    std::size_t applied = 0;
    if (lost) {
      stats_.flowModsDropped += mods.size();
      stats_.flowModsAbandoned += mods.size();
    } else {
      for (const FlowMod& mod : mods) applied += applyNow(mod) ? 1 : 0;
      stats_.flowModsAcked += applied;
      if (faults_.duplicateProbability > 0.0 &&
          rng_.chance(faults_.duplicateProbability)) {
        ++stats_.flowModsDuplicated;
        for (const FlowMod& mod : mods) applyIdempotent(mod);
      }
    }
    if (tracing) {
      const obs::SpanId ctx = tracer_->currentContext();
      const obs::SpanId span = tracer_->instant(tracer_->traceIdOf(ctx), ctx, name,
                                                network_.simulator().now(), sw);
      tracer_->annotate(span, "result",
                        lost ? "dropped"
                             : (applied == mods.size() ? "applied" : "failed"));
      if (batching_) tracer_->annotate(span, "mods", std::to_string(mods.size()));
    }
    return applied;
  }

  const std::uint64_t xid = nextXid_++;
  auto owned = std::make_shared<std::vector<FlowMod>>(mods.begin(), mods.end());
  for (FlowMod& mod : *owned) mod.xid = xid;
  Pending p{std::move(owned)};
  p.timeout = retry_.initialTimeout;
  if (tracing) {
    const obs::SpanId ctx = tracer_->currentContext();
    p.span = tracer_->begin(tracer_->traceIdOf(ctx), ctx, name,
                            network_.simulator().now(), sw);
    tracer_->annotate(p.span, "xid", std::to_string(xid));
    if (batching_) tracer_->annotate(p.span, "mods", std::to_string(mods.size()));
  }
  pending_.emplace(xid, std::move(p));
  outstanding_[sw].insert(xid);
  transmitAttempt(xid, /*isRetransmit=*/false);
  return mods.size();
}

void ControlChannel::transmitAttempt(std::uint64_t xid, bool isRetransmit) {
  const auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  const std::vector<FlowMod>& mods = *it->second.mods;
  const net::NodeId sw = mods.front().switchNode;

  const bool lost = !switchConnected(sw) || rng_.chance(faults_.dropProbability);
  net::SimTime deliveryBasis = network_.simulator().now();
  if (lost) {
    stats_.flowModsDropped += mods.size();
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(tracer_->traceIdOf(it->second.span), it->second.span,
                       "flow_mod.drop", deliveryBasis, sw);
    }
  } else {
    deliveryBasis = scheduleDelivery(xid, it->second, /*chained=*/!isRetransmit);
  }

  if (retry_.maxRetries > 0) {
    armRetryTimer(xid, deliveryBasis);
  } else if (lost) {
    // Fire-and-forget: a lost message is abandoned immediately.
    stats_.flowModsAbandoned += mods.size();
    resolve(xid, false);
  }
}

net::SimTime ControlChannel::scheduleDelivery(std::uint64_t xid,
                                              const Pending& p, bool chained) {
  net::Simulator& sim = network_.simulator();
  // A batch still pays the switch-side TCAM write per mod; what it saves
  // is per-message channel overhead (and fault exposure).
  const net::SimTime installTime =
      flowModLatency_ * static_cast<net::SimTime>(p.mods->size());
  net::SimTime when;
  if (chained) {
    // FIFO application: each message completes its installs after the
    // later of "now" and the previous message's completion.
    lastScheduled_ = std::max(lastScheduled_, sim.now()) + installTime;
    when = lastScheduled_;
  } else {
    when = sim.now() + installTime;
  }
  if (faults_.maxExtraDelay > 0) {
    when += static_cast<net::SimTime>(rng_.uniformInt(
        0, static_cast<std::uint64_t>(faults_.maxExtraDelay)));
  }
  sim.scheduleAt(when, [this, xid, mods = p.mods] { deliver(xid, *mods); });
  if (faults_.duplicateProbability > 0.0 &&
      rng_.chance(faults_.duplicateProbability)) {
    ++stats_.flowModsDuplicated;
    sim.scheduleAt(when + installTime,
                   [this, xid, mods = p.mods] { deliver(xid, *mods); });
  }
  return when;
}

void ControlChannel::deliver(std::uint64_t xid, const std::vector<FlowMod>& mods) {
  // A switch that lost its control session while the message was in
  // flight never receives it. With a retry budget the retransmit timer
  // keeps the message pending; fire-and-forget ones are abandoned here.
  if (!switchConnected(mods.front().switchNode)) {
    stats_.flowModsDropped += mods.size();
    if (pending_.contains(xid) && retry_.maxRetries == 0) {
      stats_.flowModsAbandoned += mods.size();
      resolve(xid, false);
    }
    return;
  }
  bool ok = true;
  for (const FlowMod& mod : mods) {
    if (!applyIdempotent(mod)) {
      ++stats_.asyncApplyFailures;
      ok = false;
    }
  }
  // Ack back to the controller side (late or duplicate deliveries of an
  // already-resolved xid still applied above, but carry no ack).
  resolve(xid, ok);
}

void ControlChannel::armRetryTimer(std::uint64_t xid, net::SimTime basis) {
  const auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  network_.simulator().scheduleAt(basis + it->second.timeout, [this, xid] {
    const auto p = pending_.find(xid);
    if (p == pending_.end()) return;
    if (p->second.attempts > retry_.maxRetries) {
      stats_.flowModsAbandoned += p->second.mods->size();
      resolve(xid, false);
      return;
    }
    ++stats_.flowModsRetried;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(tracer_->traceIdOf(p->second.span), p->second.span,
                       "flow_mod.retry", network_.simulator().now(),
                       p->second.mods->front().switchNode);
    }
    ++p->second.attempts;
    constexpr net::SimTime kMaxRetryTimeout = 32 * net::kMillisecond;
    p->second.timeout = std::min(p->second.timeout * 2, kMaxRetryTimeout);
    transmitAttempt(xid, /*isRetransmit=*/true);
  });
}

void ControlChannel::resolve(std::uint64_t xid, bool ok) {
  const auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  if (ok) ++stats_.flowModsAcked;
  if (it->second.span != obs::kNoSpan && tracer_ != nullptr) {
    tracer_->annotate(it->second.span, "ok", ok ? "true" : "false");
    tracer_->end(it->second.span, network_.simulator().now());
  }

  const net::NodeId sw = it->second.mods->front().switchNode;
  const auto out = outstanding_.find(sw);
  if (out != outstanding_.end()) {
    out->second.erase(xid);
    if (out->second.empty()) outstanding_.erase(out);
  }

  pending_.erase(it);
}

std::size_t ControlChannel::outstandingMods(net::NodeId switchNode) const {
  const auto it = outstanding_.find(switchNode);
  return it == outstanding_.end() ? 0 : it->second.size();
}

std::size_t ControlChannel::outstandingMods() const {
  std::size_t total = 0;
  for (const auto& [sw, xids] : outstanding_) total += xids.size();
  return total;
}

FlowStatsReply ControlChannel::readFlowStats(net::NodeId switchNode) {
  FlowStatsReply reply;
  reply.switchNode = switchNode;
  reply.xid = nextXid_++;
  if (!switchConnected(switchNode)) return reply;  // ok stays false
  reply.ok = true;
  const net::FlowTable& table = network_.flowTable(switchNode);
  reply.entries.reserve(table.size());
  // Template forEach: the lambda is called directly during the bucket scan,
  // with no std::function type-erasure per entry.
  table.forEach([&reply](const net::FlowEntry& e) { reply.entries.push_back(e); });
  ++stats_.flowStatsReplies;
  return reply;
}

FlowStatsReply ControlChannel::requestFlowStats(net::NodeId switchNode) {
  ++stats_.flowStatsRequests;
  return readFlowStats(switchNode);
}

std::vector<FlowStatsReply> ControlChannel::requestFlowStatsBatch(
    std::span<const net::NodeId> switches) {
  ++stats_.flowStatsBatches;
  std::vector<FlowStatsReply> replies;
  replies.reserve(switches.size());
  for (const net::NodeId sw : switches) replies.push_back(readFlowStats(sw));
  return replies;
}

bool ControlChannel::sendRoleRequest(net::NodeId switchNode,
                                     ControllerRole role) {
  ++stats_.roleRequests;
  if (!switchConnected(switchNode)) return false;
  roles_[switchNode] = role;
  ++stats_.roleReplies;
  return true;
}

}  // namespace pleroma::openflow
