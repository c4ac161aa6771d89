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

bool ControlChannel::send(const FlowMod& mod) {
  if (muted_) return true;  // promotion replay: intent only, no wire traffic
  countSent(mod);
  const bool tracing = tracer_ != nullptr && tracer_->enabled();

  if (!async_) {
    // Synchronous channel: a dropped mod is lost for good (no retry timer
    // can fire without the simulator running); the mirror/switch divergence
    // is the reconciler's to repair.
    const char* result;
    bool ok = false;
    if (!switchConnected(mod.switchNode) || rng_.chance(faults_.dropProbability)) {
      ++stats_.flowModsDropped;
      ++stats_.flowModsAbandoned;
      result = "dropped";
    } else {
      ok = applyNow(mod);
      if (ok) ++stats_.flowModsAcked;
      if (faults_.duplicateProbability > 0.0 &&
          rng_.chance(faults_.duplicateProbability)) {
        ++stats_.flowModsDuplicated;
        applyIdempotent(mod);
      }
      result = ok ? "applied" : "failed";
    }
    if (tracing) {
      const obs::SpanId ctx = tracer_->currentContext();
      const obs::SpanId span =
          tracer_->instant(tracer_->traceIdOf(ctx), ctx, modTraceName(mod.type),
                           network_.simulator().now(), mod.switchNode);
      tracer_->annotate(span, "result", result);
    }
    return ok;
  }

  FlowMod tracked = mod;
  tracked.xid = nextXid_++;
  Pending p;
  p.mod = tracked;
  p.timeout = retry_.initialTimeout;
  if (tracing) {
    const obs::SpanId ctx = tracer_->currentContext();
    p.span = tracer_->begin(tracer_->traceIdOf(ctx), ctx, modTraceName(mod.type),
                            network_.simulator().now(), mod.switchNode);
    tracer_->annotate(p.span, "xid", std::to_string(tracked.xid));
  }
  pending_.emplace(tracked.xid, std::move(p));
  outstanding_[tracked.switchNode].insert(tracked.xid);
  transmitAttempt(tracked.xid, /*isRetransmit=*/false);
  return true;
}

std::size_t ControlChannel::sendBatch(std::span<const FlowMod> mods) {
  if (mods.empty()) return 0;
  if (!batching_) {
    // Degenerate to the single-mod path: same message count, same fault
    // draws, same stats — callers can always route through sendBatch and
    // let this flag decide.
    std::size_t ok = 0;
    for (const FlowMod& mod : mods) ok += send(mod) ? 1 : 0;
    return ok;
  }
  // One batch message per destination switch, in first-appearance order;
  // mod order within a switch's batch is the send order.
  std::vector<net::NodeId> switches;
  std::size_t ok = 0;
  for (const FlowMod& mod : mods) {
    if (std::find(switches.begin(), switches.end(), mod.switchNode) ==
        switches.end()) {
      switches.push_back(mod.switchNode);
    }
  }
  for (const net::NodeId sw : switches) {
    std::vector<FlowMod> group;
    for (const FlowMod& mod : mods) {
      if (mod.switchNode == sw) group.push_back(mod);
    }
    ok += sendBatchToSwitch(sw, std::move(group));
  }
  return ok;
}

std::size_t ControlChannel::sendBatchToSwitch(net::NodeId sw,
                                              std::vector<FlowMod> mods) {
  if (muted_) return mods.size();
  ++stats_.flowModBatches;
  stats_.batchedMods += mods.size();
  for (const FlowMod& mod : mods) countSent(mod);
  const bool tracing = tracer_ != nullptr && tracer_->enabled();

  if (!async_) {
    // One fault draw for the whole message: the batch is delivered or lost
    // as a unit.
    std::size_t ok = 0;
    if (!switchConnected(sw) || rng_.chance(faults_.dropProbability)) {
      stats_.flowModsDropped += mods.size();
      stats_.flowModsAbandoned += mods.size();
    } else {
      for (const FlowMod& mod : mods) ok += applyNow(mod) ? 1 : 0;
      stats_.flowModsAcked += ok;
      if (faults_.duplicateProbability > 0.0 &&
          rng_.chance(faults_.duplicateProbability)) {
        ++stats_.flowModsDuplicated;
        for (const FlowMod& mod : mods) applyIdempotent(mod);
      }
    }
    if (tracing) {
      const obs::SpanId ctx = tracer_->currentContext();
      const obs::SpanId span =
          tracer_->instant(tracer_->traceIdOf(ctx), ctx, "flow_mod.batch",
                           network_.simulator().now(), sw);
      tracer_->annotate(span, "mods", std::to_string(mods.size()));
      tracer_->annotate(span, "applied", std::to_string(ok));
    }
    return ok;
  }

  const std::size_t queued = mods.size();
  Pending p;
  p.mod = std::move(mods.front());
  p.rest.assign(std::make_move_iterator(mods.begin() + 1),
                std::make_move_iterator(mods.end()));
  p.mod.xid = nextXid_++;
  p.timeout = retry_.initialTimeout;
  if (tracing) {
    const obs::SpanId ctx = tracer_->currentContext();
    p.span = tracer_->begin(tracer_->traceIdOf(ctx), ctx, "flow_mod.batch",
                            network_.simulator().now(), sw);
    tracer_->annotate(p.span, "xid", std::to_string(p.mod.xid));
    tracer_->annotate(p.span, "mods", std::to_string(queued));
  }
  const std::uint64_t xid = p.mod.xid;
  pending_.emplace(xid, std::move(p));
  outstanding_[sw].insert(xid);
  transmitAttempt(xid, /*isRetransmit=*/false);
  return queued;
}

void ControlChannel::transmitAttempt(std::uint64_t xid, bool isRetransmit) {
  const auto it = pending_.find(xid);
  if (it == pending_.end() || it->second.resolved) return;
  const FlowMod& mod = it->second.mod;
  // The whole message — one mod or a batch — is lost with one draw.
  const std::size_t modCount = 1 + it->second.rest.size();

  const bool lost =
      !switchConnected(mod.switchNode) || rng_.chance(faults_.dropProbability);
  net::SimTime deliveryBasis = network_.simulator().now();
  if (lost) {
    stats_.flowModsDropped += modCount;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(tracer_->traceIdOf(it->second.span), it->second.span,
                       "flow_mod.drop", deliveryBasis, mod.switchNode);
    }
  } else {
    deliveryBasis = scheduleDelivery(xid, it->second, /*chained=*/!isRetransmit);
  }

  if (retry_.maxRetries > 0) {
    armRetryTimer(xid, deliveryBasis);
  } else if (lost) {
    // Fire-and-forget: a lost mod is abandoned immediately.
    stats_.flowModsAbandoned += modCount;
    resolve(xid, false);
  }
}

net::SimTime ControlChannel::scheduleDelivery(std::uint64_t xid,
                                              const Pending& p, bool chained) {
  net::Simulator& sim = network_.simulator();
  // A batch still pays the switch-side TCAM write per mod; what it saves
  // is per-message channel overhead (and fault exposure).
  const net::SimTime installTime =
      flowModLatency_ * static_cast<net::SimTime>(1 + p.rest.size());
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
  if (p.rest.empty()) {
    const FlowMod mod = p.mod;
    sim.scheduleAt(when, [this, xid, mod] { deliver(xid, mod); });
    if (faults_.duplicateProbability > 0.0 &&
        rng_.chance(faults_.duplicateProbability)) {
      ++stats_.flowModsDuplicated;
      sim.scheduleAt(when + flowModLatency_,
                     [this, xid, mod] { deliver(xid, mod); });
    }
    return when;
  }
  std::vector<FlowMod> mods;
  mods.reserve(1 + p.rest.size());
  mods.push_back(p.mod);
  mods.insert(mods.end(), p.rest.begin(), p.rest.end());
  sim.scheduleAt(when, [this, xid, mods] { deliverBatch(xid, mods); });
  if (faults_.duplicateProbability > 0.0 &&
      rng_.chance(faults_.duplicateProbability)) {
    ++stats_.flowModsDuplicated;
    sim.scheduleAt(when + installTime,
                   [this, xid, mods] { deliverBatch(xid, mods); });
  }
  return when;
}

void ControlChannel::deliverBatch(std::uint64_t xid,
                                  const std::vector<FlowMod>& mods) {
  // Mirrors deliver(): a disconnected switch never receives the message;
  // otherwise every mod applies (at-least-once) and the batch acks once.
  const net::NodeId sw = mods.front().switchNode;
  if (!switchConnected(sw)) {
    stats_.flowModsDropped += mods.size();
    const auto lost = pending_.find(xid);
    if (lost != pending_.end() && !lost->second.resolved &&
        retry_.maxRetries == 0) {
      stats_.flowModsAbandoned += mods.size();
      resolve(xid, false);
    }
    return;
  }
  bool ok = true;
  for (const FlowMod& mod : mods) {
    const bool applied = applyIdempotent(mod);
    if (!applied) ++stats_.asyncApplyFailures;
    ok = ok && applied;
  }
  const auto it = pending_.find(xid);
  if (it != pending_.end() && !it->second.resolved) resolve(xid, ok);
}

void ControlChannel::deliver(std::uint64_t xid, const FlowMod& mod) {
  // A switch that lost its control session while the mod was in flight
  // never receives it. With a retry budget the retransmit timer keeps the
  // mod pending; fire-and-forget mods are abandoned here.
  if (!switchConnected(mod.switchNode)) {
    ++stats_.flowModsDropped;
    const auto lost = pending_.find(xid);
    if (lost != pending_.end() && !lost->second.resolved &&
        retry_.maxRetries == 0) {
      ++stats_.flowModsAbandoned;
      resolve(xid, false);
    }
    return;
  }
  const bool ok = applyIdempotent(mod);
  if (!ok) ++stats_.asyncApplyFailures;
  // Ack back to the controller side: resolves the pending entry (late or
  // duplicate deliveries of an already-resolved xid still applied above,
  // but carry no ack).
  const auto it = pending_.find(xid);
  if (it != pending_.end() && !it->second.resolved) resolve(xid, ok);
}

void ControlChannel::armRetryTimer(std::uint64_t xid, net::SimTime basis) {
  const auto it = pending_.find(xid);
  if (it == pending_.end() || it->second.resolved) return;
  network_.simulator().scheduleAt(basis + it->second.timeout, [this, xid] {
    const auto p = pending_.find(xid);
    if (p == pending_.end() || p->second.resolved) return;
    if (p->second.attempts > retry_.maxRetries) {
      const std::size_t modCount = 1 + p->second.rest.size();
      stats_.flowModsAbandoned += modCount;
      resolve(xid, false);
      return;
    }
    ++stats_.flowModsRetried;
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(tracer_->traceIdOf(p->second.span), p->second.span,
                       "flow_mod.retry", network_.simulator().now(),
                       p->second.mod.switchNode);
    }
    ++p->second.attempts;
    constexpr net::SimTime kMaxRetryTimeout = 32 * net::kMillisecond;
    p->second.timeout = std::min(p->second.timeout * 2, kMaxRetryTimeout);
    transmitAttempt(xid, /*isRetransmit=*/true);
  });
}

void ControlChannel::resolve(std::uint64_t xid, bool ok) {
  const auto it = pending_.find(xid);
  if (it == pending_.end() || it->second.resolved) return;
  it->second.resolved = true;
  it->second.ok = ok;
  const net::NodeId sw = it->second.mod.switchNode;
  if (ok) ++stats_.flowModsAcked;
  if (it->second.span != obs::kNoSpan && tracer_ != nullptr) {
    tracer_->annotate(it->second.span, "ok", ok ? "true" : "false");
    tracer_->end(it->second.span, network_.simulator().now());
  }

  const auto out = outstanding_.find(sw);
  if (out != outstanding_.end()) {
    out->second.erase(xid);
    if (out->second.empty()) outstanding_.erase(out);
  }

  pending_.erase(xid);
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
