#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pleroma::net {

namespace {
/// Per-switch miss-buffer budget (packets) while fail-soft mode is engaged;
/// misses beyond the budget fall back to counted drops.
constexpr std::size_t kMissBufferCapacity = 128;
/// First retry delay after a full-queue backpressure park; doubles per idle
/// retry up to kBackpressureBackoffCap.
constexpr SimTime kBackpressureBackoff = 10 * kMicrosecond;
constexpr SimTime kBackpressureBackoffCap = 160 * kMicrosecond;
}  // namespace

const char* dropReasonName(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kNoMatch: return "no_match";
    case DropReason::kHopLimit: return "hop_limit";
    case DropReason::kLinkDown: return "link_down";
    case DropReason::kNodeDown: return "node_down";
    case DropReason::kHostQueue: return "host_queue";
    case DropReason::kMissBuffer: return "miss_buffer";
    case DropReason::kLinkQueue: return "link_queue";
    case DropReason::kBackpressure: return "backpressure";
    case DropReason::kNoEgress: return "no_egress";
  }
  return "unknown";
}

Network::Network(Topology topology, Simulator& sim, NetworkConfig config)
    : topo_(std::move(topology)), sim_(sim), config_(config) {
  tables_.reserve(static_cast<std::size_t>(topo_.nodeCount()));
  for (NodeId id = 0; id < topo_.nodeCount(); ++id) {
    tables_.emplace_back(topo_.isSwitch(id) ? config_.flowTableCapacity : 0);
  }
  hostState_.resize(static_cast<std::size_t>(topo_.nodeCount()));
  missBuffers_.resize(static_cast<std::size_t>(topo_.nodeCount()));
  linkCounters_.resize(static_cast<std::size_t>(topo_.linkCount()));
  linkDirs_.resize(2 * static_cast<std::size_t>(topo_.linkCount()));
  linkQueueCap_.assign(static_cast<std::size_t>(topo_.linkCount()),
                       config_.linkQueueCapacity);
  linkUp_.assign(static_cast<std::size_t>(topo_.linkCount()), true);
  nodeUp_.assign(static_cast<std::size_t>(topo_.nodeCount()), true);
}

FlowTable& Network::flowTable(NodeId switchNode) {
  assert(topo_.isSwitch(switchNode));
  return tables_[static_cast<std::size_t>(switchNode)];
}

const FlowTable& Network::flowTable(NodeId switchNode) const {
  assert(topo_.isSwitch(switchNode));
  return tables_[static_cast<std::size_t>(switchNode)];
}

std::size_t Network::totalFlowEntries() const noexcept {
  std::size_t total = 0;
  for (const FlowTable& t : tables_) total += t.size();
  return total;
}

std::size_t Network::peakFlowEntries() const noexcept {
  std::size_t total = 0;
  for (const FlowTable& t : tables_) total += t.peakSize();
  return total;
}

void Network::sendFromHost(NodeId host, Packet packet) {
  assert(topo_.isHost(host));
  ++counters_.packetsSentFromHosts;
  // Stamp the departure time while the payload is (normally) still owned by
  // this packet alone; mutablePayload clones first if it is already shared.
  if (packet.payload) packet.mutablePayload().sentAt = sim_.now();
  const auto attachment = topo_.hostAttachment(host);
  transmit(host, attachment.hostPort, std::move(packet));
}

void Network::injectAtSwitch(NodeId switchNode, PortId inPort, Packet packet) {
  assert(topo_.isSwitch(switchNode));
  ++counters_.packetsInjectedByController;
  arriveAtNode(switchNode, inPort, std::move(packet));
}

void Network::sendOutPort(NodeId switchNode, PortId outPort, Packet packet) {
  assert(topo_.isSwitch(switchNode));
  ++counters_.packetsInjectedByController;
  transmit(switchNode, outPort, std::move(packet));
}

void Network::arriveAtNode(NodeId node, PortId inPort, Packet&& packet) {
  if (!nodeUp_[static_cast<std::size_t>(node)]) {
    drop(DropReason::kNodeDown, node, packet);
    return;
  }
  if (topo_.isHost(node)) {
    receiveAtHost(node, std::move(packet));
  } else {
    processAtSwitch(node, inPort, std::move(packet));
  }
}

void Network::onPacketEvent(PacketEventKind kind, NodeId node, PortId port,
                            Packet&& packet) {
  switch (kind) {
    case PacketEventKind::kArrive:
      arriveAtNode(node, port, std::move(packet));
      break;
    case PacketEventKind::kSwitchPipeline:
      switchPipeline(node, port, std::move(packet));
      break;
    case PacketEventKind::kHostService:
      hostServiceDone(node, std::move(packet));
      break;
    case PacketEventKind::kLinkRetry:
      linkRetry(node, port);
      break;
  }
}

void Network::processAtSwitch(NodeId switchNode, PortId inPort,
                              Packet&& packet) {
  sim_.schedulePacket(config_.switchProcessingDelay, *this,
                      PacketEventKind::kSwitchPipeline, switchNode, inPort,
                      std::move(packet));
}

void Network::switchPipeline(NodeId switchNode, PortId inPort,
                             Packet&& packet) {
  // The switch may have failed while the packet sat in its pipeline.
  if (!nodeUp_[static_cast<std::size_t>(switchNode)]) {
    drop(DropReason::kNodeDown, switchNode, packet);
    return;
  }
  // Permanent punt rule for the reserved control address (Sec 2): such
  // packets go to the controller over the control network, never through
  // the flow table.
  if (packet.dst == dz::kControlAddress) {
    ++counters_.packetsPuntedToController;
    if (packetIn_) packetIn_(switchNode, inPort, std::move(packet));
    return;
  }
  if (--packet.hopLimit < 0) {
    drop(DropReason::kHopLimit, switchNode, packet);
    return;
  }
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const FlowEntry* entry =
      tables_[static_cast<std::size_t>(switchNode)].lookup(packet.dst);
  if (entry == nullptr) {
    if (failSoft_) {
      // Fail-soft: park the miss for replay after the failover repair
      // instead of dropping.
      auto& buffer = missBuffers_[static_cast<std::size_t>(switchNode)];
      if (buffer.size() < kMissBufferCapacity) {
        ++counters_.packetsBufferedOnMiss;
        if (tracing) {
          tracer_->instant(packet.eventId(), packet.traceSpan,
                           "tcam_miss_buffered", sim_.now(), switchNode);
        }
        buffer.push_back(ParkedMiss{inPort, std::move(packet)});
      } else {
        drop(DropReason::kMissBuffer, switchNode, packet);
      }
      return;
    }
    drop(DropReason::kNoMatch, switchNode, packet);
    return;
  }
  if (tracing) {
    const obs::SpanId hop =
        tracer_->instant(packet.eventId(), packet.traceSpan, "tcam_match",
                         sim_.now(), switchNode);
    tracer_->annotate(hop, "entry", entry->match.toString());
    tracer_->annotate(hop, "priority", std::to_string(entry->priority));
    tracer_->annotate(hop, "fanout", std::to_string(entry->actions.size()));
    packet.traceSpan = hop;  // forwarded copies chain off this hop
  }
  // Fan-out copies share the payload: only the small header is duplicated.
  // The incoming packet itself is moved into the last eligible action, so a
  // unicast hop never touches the payload refcount at all.
  const FlowAction* lastAction = nullptr;
  for (const FlowAction& action : entry->actions) {
    if (action.port != inPort) lastAction = &action;
  }
  if (lastAction == nullptr) {
    // Matched, but every action reflects out the ingress port: the packet
    // has nowhere to go. Counted so the conservation invariant closes.
    drop(DropReason::kNoEgress, switchNode, packet);
    return;
  }
  ++counters_.packetsConsumedAtSwitch;
  for (const FlowAction& action : entry->actions) {
    if (action.port == inPort) continue;  // never reflect out the ingress
    ++counters_.packetsForwarded;
    if (&action == lastAction) {
      if (action.setDestination) packet.dst = *action.setDestination;
      transmit(switchNode, action.port, std::move(packet));
      break;
    }
    Packet out = packet;
    if (action.setDestination) out.dst = *action.setDestination;
    transmit(switchNode, action.port, std::move(out));
  }
}

void Network::receiveAtHost(NodeId host, Packet&& packet) {
  HostState& state = hostState_[static_cast<std::size_t>(host)];
  if (tracer_ != nullptr && tracer_->enabled()) {
    packet.traceSpan = tracer_->instant(packet.eventId(), packet.traceSpan,
                                        "host_deliver", sim_.now(), host);
  }
  if (config_.hostServiceTime == 0) {
    ++counters_.packetsDeliveredToHosts;
    if (deliver_) deliver_(host, packet);
    return;
  }
  if (state.queued >= config_.hostQueueCapacity) {
    drop(DropReason::kHostQueue, host, packet);
    return;
  }
  ++state.queued;
  const SimTime start = std::max(sim_.now(), state.busyUntil);
  state.busyUntil = start + config_.hostServiceTime;
  sim_.schedulePacketAt(state.busyUntil, *this, PacketEventKind::kHostService,
                        host, kInvalidPort, std::move(packet));
}

void Network::hostServiceDone(NodeId host, Packet&& packet) {
  --hostState_[static_cast<std::size_t>(host)].queued;
  ++counters_.packetsDeliveredToHosts;
  if (deliver_) deliver_(host, packet);
}

void Network::drop(DropReason reason, NodeId node, const Packet& packet) {
  ++counters_.drop(reason);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->instant(packet.eventId(), packet.traceSpan,
                     std::string("drop.") + dropReasonName(reason), sim_.now(),
                     node);
  }
}

void Network::dropParked(DropReason reason, NodeId node, LinkDirState& dir) {
  for (std::size_t i = dir.parkedHead; i < dir.parked.size(); ++i) {
    drop(reason, node, dir.parked[i]);
  }
  dir.parked.clear();
  dir.parkedHead = 0;
}

void Network::setLinkUp(LinkId link, bool up) {
  linkUp_[static_cast<std::size_t>(link)] = up;
}

void Network::setNodeUp(NodeId node, bool up) {
  nodeUp_[static_cast<std::size_t>(node)] = up;
  if (up) return;
  // A failed switch loses its TCAM contents; it reboots empty. Packets it
  // had parked in fail-soft mode die with it.
  if (topo_.isSwitch(node)) {
    tables_[static_cast<std::size_t>(node)].clear();
    auto& buffer = missBuffers_[static_cast<std::size_t>(node)];
    for (const ParkedMiss& miss : buffer) {
      drop(DropReason::kNodeDown, node, miss.packet);
    }
    buffer.clear();
  }
  // Backpressure buffers of the node's outbound link directions die too
  // (any node kind: hosts park on their access link as well). A pending
  // retry timer still fires but finds the buffer empty and disarms.
  for (const LinkId lid : topo_.node(node).portLinks) {
    if (lid == kInvalidLink) continue;
    dropParked(DropReason::kNodeDown, node, dirState(lid, node));
  }
}

std::size_t Network::releaseMissBuffers() {
  std::size_t replayed = 0;
  for (NodeId node = 0; node < topo_.nodeCount(); ++node) {
    auto& buffer = missBuffers_[static_cast<std::size_t>(node)];
    if (buffer.empty()) continue;
    // Move the buffer out first: if the flow is *still* missing and
    // fail-soft is still on, the replayed packet re-parks into a fresh
    // buffer instead of extending the one being drained.
    std::vector<ParkedMiss> parked;
    parked.swap(buffer);
    for (ParkedMiss& miss : parked) {
      ++replayed;
      ++counters_.packetsReplayedFromMissBuffer;
      processAtSwitch(node, miss.inPort, std::move(miss.packet));
    }
  }
  return replayed;
}

std::size_t Network::missBufferedPackets() const {
  std::size_t total = 0;
  for (const auto& buffer : missBuffers_) total += buffer.size();
  return total;
}

// ---- link queues / backpressure (DESIGN.md §15) ----------------------------

void Network::setLinkQueueCapacity(LinkId link, std::size_t capacity) {
  linkQueueCap_[static_cast<std::size_t>(link)] = capacity;
}

std::size_t Network::drainQueue(LinkDirState& dir, SimTime now) {
  while (dir.txHead < dir.txEnds.size() && dir.txEnds[dir.txHead] <= now) {
    ++dir.txHead;
  }
  if (dir.txHead == dir.txEnds.size()) {
    dir.txEnds.clear();
    dir.txHead = 0;
  }
  return dir.txEnds.size() - dir.txHead;
}

void Network::enqueueOnLink(LinkId link, LinkDirState& dir, NodeId fromNode,
                            Packet&& packet) {
  const Link& l = topo_.link(link);
  LinkCounters& lc = linkCounters_[static_cast<std::size_t>(link)];
  ++lc.packets;
  lc.bytes += static_cast<std::uint64_t>(packet.sizeBytes);
  SimTime serialization = 0;
  if (l.bandwidthBps > 0.0) {
    serialization = static_cast<SimTime>(
        std::llround(static_cast<double>(packet.sizeBytes) * 8.0 /
                     l.bandwidthBps * static_cast<double>(kSecond)));
  }
  const SimTime now = sim_.now();
  const SimTime txStart = std::max(now, dir.busyUntil);
  const SimTime txEnd = txStart + serialization;
  dir.busyUntil = txEnd;
  dir.txEnds.push_back(txEnd);
  const std::size_t depth = dir.txEnds.size() - dir.txHead;
  if (depth > dir.peakDepth) dir.peakDepth = depth;
  const LinkEnd to = l.peerOf(fromNode);
  sim_.schedulePacketAt(txEnd + l.latency, *this, PacketEventKind::kArrive,
                        to.node, to.port, std::move(packet));
}

void Network::armRetry(LinkDirState& dir, NodeId fromNode, PortId outPort) {
  if (dir.retryPending) return;
  dir.retryPending = true;
  if (dir.backoff == 0) {
    dir.backoff = kBackpressureBackoff;
  } else {
    dir.backoff = std::min(dir.backoff * 2, kBackpressureBackoffCap);
  }
  // The timer event carries an empty Packet; its (node, port) names the
  // direction.
  sim_.schedulePacket(dir.backoff, *this, PacketEventKind::kLinkRetry,
                      fromNode, outPort, Packet{});
}

void Network::linkRetry(NodeId fromNode, PortId outPort) {
  const LinkId lid = topo_.linkAt(fromNode, outPort);
  assert(lid != kInvalidLink);
  LinkDirState& dir = dirState(lid, fromNode);
  dir.retryPending = false;
  ++counters_.backpressureRetries;
  if (dir.parkedCount() == 0) {
    dir.backoff = 0;
    return;
  }
  // The node or link may have failed while packets sat parked: dispose of
  // the buffer so no packet is stranded forever.
  const bool nodeDown = !nodeUp_[static_cast<std::size_t>(fromNode)];
  if (nodeDown || !linkUp_[static_cast<std::size_t>(lid)]) {
    dropParked(nodeDown ? DropReason::kNodeDown : DropReason::kLinkDown,
               fromNode, dir);
    dir.backoff = 0;
    return;
  }
  const std::size_t capacity = linkQueueCap_[static_cast<std::size_t>(lid)];
  std::size_t depth = drainQueue(dir, sim_.now());
  while (dir.parkedCount() > 0 && (capacity == 0 || depth < capacity)) {
    ++counters_.packetsResumedFromBackpressure;
    enqueueOnLink(lid, dir, fromNode, std::move(dir.parked[dir.parkedHead]));
    ++dir.parkedHead;
    ++depth;
  }
  if (dir.parkedCount() == 0) {
    dir.parked.clear();
    dir.parkedHead = 0;
    dir.backoff = 0;
  } else {
    armRetry(dir, fromNode, outPort);
  }
}

void Network::transmit(NodeId fromNode, PortId outPort, Packet&& packet) {
  if (!nodeUp_[static_cast<std::size_t>(fromNode)]) {
    drop(DropReason::kNodeDown, fromNode, packet);
    return;
  }
  const LinkId lid = topo_.linkAt(fromNode, outPort);
  if (lid == kInvalidLink) {
    // Dangling port: nothing is attached, the packet has no egress.
    drop(DropReason::kNoEgress, fromNode, packet);
    return;
  }
  if (!linkUp_[static_cast<std::size_t>(lid)]) {
    drop(DropReason::kLinkDown, fromNode, packet);
    return;
  }
  const std::size_t capacity = linkQueueCap_[static_cast<std::size_t>(lid)];
  if (capacity == 0) {
    // Legacy contention-free link: transmissions propagate independently
    // (serialization delay without occupancy), nothing queues or drops.
    const Link& link = topo_.link(lid);
    LinkCounters& lc = linkCounters_[static_cast<std::size_t>(lid)];
    ++lc.packets;
    lc.bytes += static_cast<std::uint64_t>(packet.sizeBytes);
    SimTime delay = link.latency;
    if (link.bandwidthBps > 0.0) {
      delay += static_cast<SimTime>(
          std::llround(static_cast<double>(packet.sizeBytes) * 8.0 /
                       link.bandwidthBps * static_cast<double>(kSecond)));
    }
    const LinkEnd to = link.peerOf(fromNode);
    sim_.schedulePacket(delay, *this, PacketEventKind::kArrive, to.node,
                        to.port, std::move(packet));
    return;
  }
  LinkDirState& dir = dirState(lid, fromNode);
  const std::size_t depth = drainQueue(dir, sim_.now());
  // FIFO: while packets are parked, new arrivals must line up behind them
  // even if the queue momentarily has room.
  if (depth >= capacity || dir.parkedCount() > 0) {
    if (config_.backpressure) {
      if (dir.parkedCount() < config_.backpressureBufferCapacity) {
        ++counters_.packetsParkedOnBackpressure;
        dir.parked.push_back(std::move(packet));
        armRetry(dir, fromNode, outPort);
        return;
      }
      drop(DropReason::kBackpressure, fromNode, packet);
      ++linkCounters_[static_cast<std::size_t>(lid)].queueDrops;
      return;
    }
    drop(DropReason::kLinkQueue, fromNode, packet);
    ++linkCounters_[static_cast<std::size_t>(lid)].queueDrops;
    return;
  }
  enqueueOnLink(lid, dir, fromNode, std::move(packet));
}

std::size_t Network::linkQueueDepth(LinkId link) const {
  const auto base = 2 * static_cast<std::size_t>(link);
  const SimTime now = sim_.now();
  return linkDirs_[base].depth(now) + linkDirs_[base + 1].depth(now);
}

std::size_t Network::peakLinkQueueDepth(LinkId link) const {
  const auto base = 2 * static_cast<std::size_t>(link);
  return std::max(linkDirs_[base].peakDepth, linkDirs_[base + 1].peakDepth);
}

std::size_t Network::backpressureParkedPackets() const {
  std::size_t total = 0;
  for (const LinkDirState& dir : linkDirs_) total += dir.parkedCount();
  return total;
}

Network::Stats Network::stats() const {
  Stats s;
  for (const HostState& h : hostState_) s.hostQueued += h.queued;
  const SimTime now = sim_.now();
  for (const LinkDirState& dir : linkDirs_) {
    s.linkQueued += dir.depth(now);
    s.backpressureParked += dir.parkedCount();
    if (dir.peakDepth > s.peakLinkQueueDepth) {
      s.peakLinkQueueDepth = dir.peakDepth;
    }
  }
  s.missBuffered = missBufferedPackets();
  return s;
}

std::uint64_t Network::totalLinkBytes() const {
  std::uint64_t total = 0;
  for (const auto& lc : linkCounters_) total += lc.bytes;
  return total;
}

}  // namespace pleroma::net
