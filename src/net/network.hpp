// The data-plane runtime: instantiates a Topology into live switches (each
// with a TCAM FlowTable) and hosts, and moves packets hop by hop under the
// discrete-event clock.
//
// Semantics modelled after the testbed (Sec 6.1-6.3):
//  * Switch: per-packet processing delay independent of flow-table size
//    (the TCAM property Fig 7a demonstrates), then the instruction set of
//    the highest-priority matching flow is applied. Packets are never sent
//    back out their ingress port (OpenFlow output semantics), which keeps
//    forwarding loop-free on the controller's tree-shaped flow sets.
//  * Packets addressed to the reserved IP_mid are always punted to the
//    controller (a permanent highest-priority punt rule; "no switch will
//    install a flow with respect to IP_mid", Sec 2).
//  * Host: a single-server queue with configurable service time and finite
//    buffer. This is the end-host processing limitation responsible for the
//    throughput saturation of Fig 7c.
//  * Link (opt-in, DESIGN.md §15): a finite FIFO transmit queue per link
//    direction. With NetworkConfig::linkQueueCapacity > 0 each direction
//    serializes packets onto the wire at the link's bandwidth; packets
//    beyond the queue capacity are dropped (DropReason::kLinkQueue) or —
//    with backpressure enabled — parked at the upstream node in a bounded
//    buffer and re-admitted after a capped exponential backoff.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"

namespace pleroma::net {

/// Every way the data plane disposes of a packet without delivering it.
/// One taxonomy for all layers (switch pipeline, links, hosts, buffers), so
/// benches and the conservation property test count drops consistently.
enum class DropReason : std::uint8_t {
  kNoMatch = 0,   ///< TCAM miss outside fail-soft mode
  kHopLimit,      ///< TTL expired in the switch pipeline
  kLinkDown,      ///< transmitted onto a failed link
  kNodeDown,      ///< node down at arrival/transmit, or buffers died with it
  kHostQueue,     ///< host receive buffer full
  kMissBuffer,    ///< fail-soft miss buffer over budget
  kLinkQueue,     ///< finite link queue full (no backpressure)
  kBackpressure,  ///< backpressure park buffer over budget
  kNoEgress,      ///< matched entry with no usable output (or dangling port)
};
inline constexpr std::size_t kDropReasonCount = 9;

/// Stable snake_case name, used for metrics ("net.drops_<name>"), trace
/// leaves ("drop.<name>"), the CLI `stats` command and bench report columns.
const char* dropReasonName(DropReason reason) noexcept;

struct NetworkConfig {
  /// Fixed per-packet forwarding latency inside a switch.
  SimTime switchProcessingDelay = 10 * kMicrosecond;
  /// Per-packet processing time at a receiving host; 0 = infinitely fast.
  SimTime hostServiceTime = 0;
  /// Receive buffer (packets) per host; arrivals beyond it are dropped.
  std::size_t hostQueueCapacity = 1024;
  /// TCAM capacity per switch; 0 = unlimited.
  std::size_t flowTableCapacity = 0;
  // ---- congestion model (DESIGN.md §15) --------------------------------
  /// Finite FIFO transmit queue per link *direction* (packets, including
  /// the one on the wire). 0 = legacy contention-free links: every
  /// transmission propagates independently and nothing ever queues.
  /// Overridable per link via Network::setLinkQueueCapacity.
  std::size_t linkQueueCapacity = 0;
  /// When a link queue is full, park the packet at the upstream node and
  /// retry after a backoff instead of dropping it.
  bool backpressure = false;
  /// Bounded park buffer per link direction while backpressure is on;
  /// packets beyond it are dropped (DropReason::kBackpressure).
  std::size_t backpressureBufferCapacity = 64;
};

/// Network-wide counters.
///
/// Conservation contract (CongestionConservation test): packet instances
/// are born by host sends, controller injections and switch fan-out
/// copies, and each instance reaches exactly one terminal — delivery,
/// punt, consumption at a switch (its continuations are the fan-out
/// copies), a counted drop, or residence in a park buffer. At simulator
/// quiescence:
///   sentFromHosts + injectedByController + packetsForwarded ==
///   delivered + punted + consumedAtSwitch + totalDropped()
///   + missBufferedPackets() + backpressureParkedPackets().
struct NetworkCounters {
  std::uint64_t packetsForwarded = 0;  ///< switch output actions executed
  std::uint64_t packetsPuntedToController = 0;
  std::uint64_t packetsDeliveredToHosts = 0;
  /// Admissions: packets entering the data plane at hosts / from the
  /// controller (injectAtSwitch + sendOutPort).
  std::uint64_t packetsSentFromHosts = 0;
  std::uint64_t packetsInjectedByController = 0;
  /// Packets that matched a flow entry and were consumed by fan-out
  /// (i.e. re-emitted as >= 1 forwarded copies).
  std::uint64_t packetsConsumedAtSwitch = 0;
  // ---- fail-soft (controller failover window) --------------------------
  std::uint64_t packetsBufferedOnMiss = 0;
  std::uint64_t packetsReplayedFromMissBuffer = 0;
  // ---- backpressure ----------------------------------------------------
  std::uint64_t packetsParkedOnBackpressure = 0;  ///< parks (cumulative)
  std::uint64_t packetsResumedFromBackpressure = 0;
  std::uint64_t backpressureRetries = 0;  ///< retry timer firings
  // ---- unified drop taxonomy -------------------------------------------
  std::array<std::uint64_t, kDropReasonCount> drops{};

  std::uint64_t& drop(DropReason reason) noexcept {
    return drops[static_cast<std::size_t>(reason)];
  }
  std::uint64_t dropped(DropReason reason) const noexcept {
    return drops[static_cast<std::size_t>(reason)];
  }
  std::uint64_t totalDropped() const noexcept {
    std::uint64_t total = 0;
    for (const auto& d : drops) total += d;
    return total;
  }
};

/// Per-link counters, summed over both directions.
struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  /// Packets lost to this link's full queue (both directions, cumulative;
  /// includes backpressure park-buffer overflow).
  std::uint64_t queueDrops = 0;
};

class Network : public PacketSink {
 public:
  /// (switch, ingress port, packet): invoked when a switch punts a packet
  /// to its controller over the control network. The packet is moved in
  /// (the switch's copy dies at the punt); handlers taking `const Packet&`
  /// bind as well.
  using PacketInHandler = std::function<void(NodeId, PortId, Packet&&)>;
  /// (host, packet): invoked when a host finishes processing a received
  /// packet (i.e. after its service delay).
  using DeliverHandler = std::function<void(NodeId, const Packet&)>;

  Network(Topology topology, Simulator& sim, NetworkConfig config = {});

  const Topology& topology() const noexcept { return topo_; }
  Simulator& simulator() noexcept { return sim_; }

  FlowTable& flowTable(NodeId switchNode);
  const FlowTable& flowTable(NodeId switchNode) const;

  /// Budget accounting across the whole data plane: entries currently
  /// installed / peak ever installed, summed over all switch TCAMs. These
  /// are the ground-truth series the TCAM-budget benchmarks report
  /// (installed entries as seen by the switches, not controller intent).
  std::size_t totalFlowEntries() const noexcept;
  std::size_t peakFlowEntries() const noexcept;

  void setPacketInHandler(PacketInHandler handler) { packetIn_ = std::move(handler); }
  void setDeliverHandler(DeliverHandler handler) { deliver_ = std::move(handler); }

  /// Sends a packet from a host onto its access link.
  void sendFromHost(NodeId host, Packet packet);

  /// Controller-initiated packet-out: injects a packet at a switch that
  /// behaves as if received on `inPort` (kInvalidPort = none, so it may be
  /// forwarded out any port). Used for inter-controller messages (Sec 4.1).
  void injectAtSwitch(NodeId switchNode, PortId inPort, Packet packet);

  /// Controller-initiated direct output: pushes the packet out of a
  /// specific switch port, bypassing the flow table (OpenFlow PacketOut
  /// with an explicit output action).
  void sendOutPort(NodeId switchNode, PortId outPort, Packet packet);

  /// Fails / restores a link (fault injection). Packets transmitted onto a
  /// failed link are dropped; in-flight packets already past the link are
  /// unaffected. The controller reacts via Controller::onLinkDown/Up.
  void setLinkUp(LinkId link, bool up);
  bool linkUp(LinkId link) const {
    return linkUp_[static_cast<std::size_t>(link)];
  }

  /// Fails / restores a node (switch or host failure). Packets arriving at
  /// or originated by a down node are dropped. Taking a *switch* down
  /// clears its flow table: a rebooted/reconnected switch comes back with
  /// an empty TCAM and must be resynced by the controller
  /// (Controller::onSwitchUp). Packets the node had parked (fail-soft miss
  /// buffers, backpressure buffers) die with it as kNodeDown drops.
  void setNodeUp(NodeId node, bool up);
  bool nodeUp(NodeId node) const {
    return nodeUp_[static_cast<std::size_t>(node)];
  }

  /// Fail-soft mode (controller failover): while enabled, a switch keeps
  /// forwarding on its existing TCAM entries but a miss no longer drops
  /// the packet — it is parked in the switch's finite miss buffer (128
  /// packets per switch) for replay once the promoted controller has
  /// repaired the tables; misses beyond the budget are dropped and counted.
  /// This replaces the implicit fail-open behaviour (drop every miss) for
  /// the duration of a failover window.
  void setFailSoft(bool on) noexcept { failSoft_ = on; }
  bool failSoft() const noexcept { return failSoft_; }

  /// Replays every parked packet through its switch's pipeline, in the
  /// order the switches buffered them (switch id, then arrival). Call
  /// after the repair converged — replayed packets re-run the full lookup
  /// and pay the processing delay again. Returns the number replayed.
  std::size_t releaseMissBuffers();
  /// Packets currently parked across all miss buffers.
  std::size_t missBufferedPackets() const;

  // ---- link queues / backpressure (DESIGN.md §15) -----------------------

  /// Overrides one link's queue capacity (both directions); 0 restores the
  /// legacy contention-free model for that link.
  void setLinkQueueCapacity(LinkId link, std::size_t capacity);
  std::size_t linkQueueCapacity(LinkId link) const {
    return linkQueueCap_[static_cast<std::size_t>(link)];
  }

  /// Packets currently occupying the link's transmit queues (sum of both
  /// directions, excluding parked packets) at the current virtual time.
  std::size_t linkQueueDepth(LinkId link) const;
  /// Deepest the link's queues have ever been (max over directions).
  std::size_t peakLinkQueueDepth(LinkId link) const;
  /// Packets parked across all backpressure buffers right now.
  std::size_t backpressureParkedPackets() const;

  /// Point-in-time occupancy gauges of the whole data plane, the
  /// bench-report "queued" series (DESIGN.md §15).
  struct Stats {
    std::size_t hostQueued = 0;     ///< packets in host receive queues
    std::size_t linkQueued = 0;     ///< packets in link transmit queues
    std::size_t backpressureParked = 0;
    std::size_t missBuffered = 0;
    std::size_t peakLinkQueueDepth = 0;  ///< max over all links, ever
  };
  Stats stats() const;

  /// Traces the data plane into `tracer` (nullptr detaches): per-switch
  /// TCAM matches, host deliveries and every drop, chained through
  /// Packet::traceSpan so each event's span tree ends in a delivery or a
  /// "drop.<reason>" leaf.
  void setTracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  const NetworkCounters& counters() const noexcept { return counters_; }
  const LinkCounters& linkCounters(LinkId link) const {
    return linkCounters_[static_cast<std::size_t>(link)];
  }
  std::uint64_t totalLinkBytes() const;

  /// Fast-lane dispatch target: link propagation, switch pipeline, and
  /// host service completions all arrive here from the Simulator.
  void onPacketEvent(PacketEventKind kind, NodeId node, PortId port,
                     Packet&& packet) override;

 private:
  void arriveAtNode(NodeId node, PortId inPort, Packet&& packet);
  void processAtSwitch(NodeId switchNode, PortId inPort, Packet&& packet);
  void switchPipeline(NodeId switchNode, PortId inPort, Packet&& packet);
  void receiveAtHost(NodeId host, Packet&& packet);
  void hostServiceDone(NodeId host, Packet&& packet);
  void transmit(NodeId fromNode, PortId outPort, Packet&& packet);
  void linkRetry(NodeId fromNode, PortId outPort);

  struct HostState {
    SimTime busyUntil = 0;
    std::size_t queued = 0;
  };
  /// One parked TCAM miss awaiting replay (fail-soft mode).
  struct ParkedMiss {
    PortId inPort = kInvalidPort;
    Packet packet;
  };

  /// One direction of a link's finite transmit queue plus its backpressure
  /// buffer, owned by the *sending* node. Both FIFOs are flat vectors with
  /// a drained-head index, compacted when empty, so steady state recycles
  /// their capacity.
  struct LinkDirState {
    /// When the direction's serialized line frees up.
    SimTime busyUntil = 0;
    /// Serialization-completion times of queued packets; entries <= now
    /// have left the queue (drained lazily).
    std::vector<SimTime> txEnds;
    std::size_t txHead = 0;
    /// Backpressure park buffer, FIFO.
    std::vector<Packet> parked;
    std::size_t parkedHead = 0;
    /// A kLinkRetry event for this direction is already in flight.
    bool retryPending = false;
    /// Next retry delay (doubling, capped); reset when the parked buffer
    /// fully drains.
    SimTime backoff = 0;
    std::size_t peakDepth = 0;

    std::size_t depth(SimTime now) const noexcept {
      std::size_t d = 0;
      for (std::size_t i = txHead; i < txEnds.size(); ++i) {
        if (txEnds[i] > now) ++d;
      }
      return d;
    }
    std::size_t parkedCount() const noexcept {
      return parked.size() - parkedHead;
    }
  };

  /// The sending-side direction state of (fromNode, link).
  LinkDirState& dirState(LinkId link, NodeId fromNode) {
    const auto base = 2 * static_cast<std::size_t>(link);
    return linkDirs_[base + (topo_.link(link).a.node == fromNode ? 0 : 1)];
  }
  /// Drops stale txEnds entries; returns the live queue depth.
  std::size_t drainQueue(LinkDirState& dir, SimTime now);
  /// Serializes the packet onto the direction's line and schedules its
  /// arrival. Precondition: the queue has room.
  void enqueueOnLink(LinkId link, LinkDirState& dir, NodeId fromNode,
                     Packet&& packet);
  /// Schedules the direction's retry timer if none is pending.
  void armRetry(LinkDirState& dir, NodeId fromNode, PortId outPort);
  /// The one way a packet is lost: counts it under `reason` and, when
  /// tracing, ends its span in a "drop.<reason>" leaf at `node`.
  void drop(DropReason reason, NodeId node, const Packet& packet);
  /// drop() for every packet of the direction's park buffer, which is
  /// then emptied.
  void dropParked(DropReason reason, NodeId node, LinkDirState& dir);

  Topology topo_;
  Simulator& sim_;
  NetworkConfig config_;
  std::vector<FlowTable> tables_;   // indexed by NodeId; hosts have empty tables
  std::vector<HostState> hostState_;
  std::vector<bool> linkUp_;
  std::vector<bool> nodeUp_;
  bool failSoft_ = false;
  /// Per-node miss buffers (only switch slots are ever used).
  std::vector<std::vector<ParkedMiss>> missBuffers_;
  std::vector<LinkCounters> linkCounters_;
  /// 2 entries per link: [2*l] is the a->b direction, [2*l+1] b->a.
  std::vector<LinkDirState> linkDirs_;
  /// Effective queue capacity per link (config default or override).
  std::vector<std::size_t> linkQueueCap_;
  NetworkCounters counters_;
  PacketInHandler packetIn_;
  DeliverHandler deliver_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pleroma::net
