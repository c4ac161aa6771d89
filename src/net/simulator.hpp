// A minimal discrete-event simulation kernel: a virtual clock and an
// ordered queue of (time, action) events. Deterministic: ties in time are
// broken by scheduling order, with one sequence counter shared by both
// event lanes.
//
// Two lanes share the queue:
//  * Slow lane — std::function<void()>, for timers: the control plane's
//    (channel deliveries and retries, monitor and reconciler ticks, the
//    failover heartbeat) and benches' publish schedules. None of them is
//    on the per-hop path.
//  * Fast lane — PacketEvent, a typed "packet arrives somewhere" record
//    dispatched through a PacketSink interface. Data-plane hops are all
//    shaped like this.
//
// Layout: the priority queue holds one small trivially-copyable record per
// *run* — a burst of consecutively-scheduled events sharing one timestamp —
// rather than per event. Fan-out bursts (N copies of a packet all due at
// now + delay) coalesce into a single heap entry with a FIFO of slot ids,
// so the heap stays shallow even with thousands of events in flight. FIFO
// order within a run is exactly sequence order, so the pop sequence — and
// simulation determinism — is identical to a plain (when, seq) heap. The
// bulky lane payloads live in per-lane slabs whose slots are recycled
// through a free list. At steady state a packet hop therefore costs zero
// heap allocations: the queue vector, the run and slab slots, and the free
// lists are all warm, and the packet's payload is shared rather than
// copied.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/types.hpp"

namespace pleroma::net {

/// What a scheduled packet event means to its sink.
enum class PacketEventKind : std::uint8_t {
  kArrive,          ///< link propagation done; packet reaches (node, port)
  kSwitchPipeline,  ///< switch processing delay elapsed; run the flow table
  kHostService,     ///< host service time elapsed; deliver to the app
  kLinkRetry,       ///< backpressure backoff elapsed; drain (node, port)'s
                    ///< park buffer (timer only — carries an empty Packet)
};

/// Receiver of fast-lane packet events. Stored per event (not per
/// simulator), so multiple Networks may share one Simulator.
class PacketSink {
 public:
  virtual void onPacketEvent(PacketEventKind kind, NodeId node, PortId port,
                             Packet&& packet) = 0;

 protected:
  ~PacketSink() = default;  // sinks are never owned through this interface
};

/// A packet due at `node`/`port` once its current delay elapses.
struct PacketEvent {
  PacketSink* sink = nullptr;
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  PacketEventKind kind = PacketEventKind::kArrive;
  Packet packet;
};

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` from now (delay >= 0).
  void schedule(SimTime delay, std::function<void()> action) {
    scheduleAt(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `when` (>= now).
  void scheduleAt(SimTime when, std::function<void()> action);

  /// Fast lane: schedules a packet event `delay` from now.
  void schedulePacket(SimTime delay, PacketSink& sink, PacketEventKind kind,
                      NodeId node, PortId port, Packet packet) {
    schedulePacketAt(now_ + delay, sink, kind, node, port, std::move(packet));
  }

  /// Fast lane: schedules a packet event at absolute time `when` (>= now).
  /// The packet is emplaced directly into its (usually recycled) slab slot.
  void schedulePacketAt(SimTime when, PacketSink& sink, PacketEventKind kind,
                        NodeId node, PortId port, Packet packet);

  /// Runs until the queue is empty. Returns the number of events processed.
  std::size_t run();

  /// Runs events with time <= until (advancing the clock to `until` even if
  /// the queue drains earlier). Returns the number of events processed.
  std::size_t runUntil(SimTime until);

  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pendingEvents() const noexcept { return pendingCount_; }
  std::uint64_t processedEvents() const noexcept { return processed_; }

  /// Wall-clock nanoseconds spent inside run()/runUntil() so far; with
  /// now() this gives the virtual/wall time ratio benches report.
  std::uint64_t wallTimeNanos() const noexcept { return wallNanos_; }

 private:
  /// Lane tag folded into the slot index (top bit), so a run's FIFO can
  /// hold both lanes' events in one flat vector of 32-bit ids.
  static constexpr std::uint32_t kPacketLane = 0x8000'0000u;

  /// One heap entry per run. `seq` is the sequence number of the run's
  /// first event; later events appended to the run carry larger sequence
  /// numbers by construction, so (when, seq) ordering of runs plus FIFO
  /// order inside each run reproduces the global (when, seq) event order.
  struct Item {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t run;  // index into runs_
  };

  /// A burst of events sharing one timestamp. The first slot is stored
  /// inline (most runs are singletons); overflow goes to `extra`, whose
  /// capacity is retained when the run is recycled.
  struct Run {
    std::uint32_t first = 0;
    std::uint32_t head = 0;  // 0: first unconsumed; else 1 + drained extras
    std::vector<std::uint32_t> extra;
  };

  static bool earlier(const Item& a, const Item& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Min-heap over (when, seq) with arity 8 instead of 2: a burst of N
  /// in-flight events sifts through log8(N) levels rather than log2(N),
  /// which matters because at high fan-out the heap array outgrows L1 and
  /// every level touched is a cache miss. (when, seq) is a *total* order —
  /// seq is unique — so the pop sequence, and therefore simulation
  /// determinism, is independent of the heap's internal arity.
  class EventHeap {
   public:
    bool empty() const noexcept { return items_.empty(); }
    std::size_t size() const noexcept { return items_.size(); }
    const Item& top() const noexcept { return items_[0]; }

    void push(const Item& item) {
      items_.push_back(item);
      siftUp(items_.size() - 1);
    }

    void pop() {
      const Item last = items_.back();
      items_.pop_back();
      if (!items_.empty()) {
        std::size_t hole = siftDown(last);
        items_[hole] = last;
      }
    }

   private:
    static constexpr std::size_t kArity = 8;

    void siftUp(std::size_t i) {
      const Item item = items_[i];
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!earlier(item, items_[parent])) break;
        items_[i] = items_[parent];
        i = parent;
      }
      items_[i] = item;
    }

    /// Walks `item` down from the root, pulling the smallest child up at
    /// each level; returns the hole index where `item` belongs.
    std::size_t siftDown(const Item& item) {
      const std::size_t n = items_.size();
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = hole * kArity + 1;
        if (first >= n) break;
        const std::size_t last = first + kArity < n ? first + kArity : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (earlier(items_[c], items_[best])) best = c;
        }
        if (!earlier(items_[best], item)) break;
        items_[hole] = items_[best];
        hole = best;
      }
      return hole;
    }

    std::vector<Item> items_;
  };

  /// Fixed-slot storage with a recycling LIFO free list: freed slots are
  /// reused most-recently-freed-first (they are still cache-hot), and the
  /// slot vector never shrinks, so a steady-state workload stops
  /// allocating.
  template <typename T>
  struct Slab {
    std::vector<T> slots;
    std::vector<std::uint32_t> freeList;

    std::uint32_t put(T&& value) {
      if (!freeList.empty()) {
        const std::uint32_t idx = freeList.back();
        freeList.pop_back();
        slots[idx] = std::move(value);
        return idx;
      }
      slots.push_back(std::move(value));
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
  };

  /// Appends the (lane-tagged) slot to the current run if `when` matches
  /// it, else opens a fresh run and pushes its heap entry.
  void enqueue(SimTime when, std::uint32_t taggedSlot);

  /// Takes the next slot out of the top run, popping and recycling the run
  /// once exhausted.
  std::uint32_t takeNext();

  void dispatch(std::uint32_t taggedSlot);

  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t wallNanos_ = 0;
  std::size_t pendingCount_ = 0;
  EventHeap queue_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> freeRuns_;
  // Append cache: the most recently opened run. A push whose `when`
  // matches goes straight into that run's FIFO without touching the heap.
  bool cacheValid_ = false;
  SimTime cacheWhen_ = 0;
  std::uint32_t cacheRun_ = 0;
  Slab<std::function<void()>> tasks_;
  Slab<PacketEvent> packets_;
};

}  // namespace pleroma::net
