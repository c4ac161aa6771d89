// The unit of data-plane traffic. An event publication is a small UDP-like
// packet whose destination address carries the event's dz (Sec 3.3.2);
// control traffic (the interop layer's controller-to-controller messages)
// is addressed to the reserved IP_mid and punted by switches.
//
// Fast-path layout: a Packet is a small by-value header (addresses, size,
// hop limit, trace span) plus an immutable, reference-counted EventPayload
// (event id, publisher, attribute values, dz, publish time). Every fan-out
// copy of a multicast and every hop of a path shares the same payload
// object — an N-way fan-out copies 0 payloads instead of N — and pooled
// payload allocation (PayloadPool) makes steady-state publishing free of
// per-hop heap allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dz/event_space.hpp"
#include "dz/ip_encoding.hpp"
#include "net/types.hpp"

namespace pleroma::net {

/// Identifies a published event end-to-end for delivery accounting.
using EventId = std::uint64_t;

/// The per-publication data shared by every copy of the packet. Immutable
/// once the packet enters the network (all fan-out copies alias it).
struct EventPayload {
  EventId eventId = 0;
  NodeId publisherHost = kInvalidNode;
  /// Full attribute values of the event, so receivers can evaluate their
  /// exact subscription semantics and count false positives.
  dz::Event event;
  /// The dz stamped by the publisher (also encoded in the packet dst).
  dz::DzExpression eventDz;
  /// Simulated time the packet left the publisher (stamped by
  /// Network::sendFromHost while the payload is still exclusively owned).
  SimTime sentAt = 0;
};

/// Recycles the combined (control block + EventPayload) allocations that
/// std::allocate_shared produces, so steady-state publishing reuses a slab
/// of warm blocks instead of hitting the allocator per event. The free
/// list is shared-ptr-owned by every outstanding payload's control block,
/// so payloads may outlive the pool object itself.
class PayloadPool {
 public:
  PayloadPool() : state_(std::make_shared<State>()) {}

  /// A fresh payload to fill in before sending; convert to
  /// std::shared_ptr<const EventPayload> by assignment into Packet.
  std::shared_ptr<EventPayload> acquire() {
    return std::allocate_shared<EventPayload>(Alloc<EventPayload>{state_});
  }

  /// Warm blocks currently parked in the free list (for tests).
  std::size_t freeBlocks() const noexcept { return state_->free.size(); }

 private:
  struct State {
    /// All blocks a pool hands out have one size: the allocate_shared
    /// combined allocation. Recorded on first use; other sizes (rebound
    /// allocator internals, if any) pass through to the global heap.
    std::size_t slotBytes = 0;
    std::vector<void*> free;
    /// Bounds the parked memory; beyond this, blocks return to the heap.
    static constexpr std::size_t kMaxFree = 4096;

    ~State() {
      for (void* p : free) ::operator delete(p);
    }

    void* allocate(std::size_t bytes) {
      if (bytes == slotBytes && !free.empty()) {
        void* p = free.back();
        free.pop_back();
        return p;
      }
      if (slotBytes == 0) {
        slotBytes = bytes;
        free.reserve(kMaxFree);
      }
      return ::operator new(bytes);
    }

    void deallocate(void* p, std::size_t bytes) noexcept {
      if (bytes == slotBytes && free.size() < kMaxFree) {
        free.push_back(p);
        return;
      }
      ::operator delete(p);
    }
  };

  template <typename T>
  struct Alloc {
    using value_type = T;
    std::shared_ptr<State> state;

    explicit Alloc(std::shared_ptr<State> s) : state(std::move(s)) {}
    template <typename U>
    Alloc(const Alloc<U>& o) : state(o.state) {}  // NOLINT: rebind

    T* allocate(std::size_t n) {
      return static_cast<T*>(state->allocate(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
      state->deallocate(p, n * sizeof(T));
    }
    friend bool operator==(const Alloc& a, const Alloc& b) {
      return a.state == b.state;
    }
  };

  std::shared_ptr<State> state_;
};

struct Packet {
  dz::Ipv6Address src{};
  dz::Ipv6Address dst{};
  /// Wire size in bytes ("up to 64 bytes depending on the length of dz",
  /// Sec 6.2); used for transmission-delay and bandwidth accounting.
  int sizeBytes = 64;
  /// IPv6 hop limit, decremented per switch; expired packets are dropped.
  /// Guards against forwarding cycles that flow sets on cyclic
  /// inter-partition graphs can form (the paper's interop design never
  /// exercises data traffic on a cyclic partition graph).
  int hopLimit = 64;
  /// Parent span for hop-by-hop tracing (obs::kNoSpan when tracing is off).
  /// Each switch hop parents its record here and restamps the forwarded
  /// copy, so multicast fan-out forms a branching span tree.
  std::uint64_t traceSpan = 0;

  /// The publication this packet carries; null for pure control packets.
  std::shared_ptr<const EventPayload> payload;

  /// Opaque control payload (present only for control-plane messages).
  std::shared_ptr<const void> control;
  int controlKind = 0;

  // --- payload accessors (tolerate payload-less control packets) --------

  EventId eventId() const noexcept { return payload ? payload->eventId : 0; }
  NodeId publisherHost() const noexcept {
    return payload ? payload->publisherHost : kInvalidNode;
  }
  const dz::Event& event() const noexcept {
    static const dz::Event kNoEvent;
    return payload ? payload->event : kNoEvent;
  }
  dz::DzExpression eventDz() const noexcept {
    return payload ? payload->eventDz : dz::DzExpression{};
  }
  SimTime sentAt() const noexcept { return payload ? payload->sentAt : 0; }

  /// Copy-on-write handle for construction sites (tests, benches, the
  /// controller's packet factory): clones the payload iff it is currently
  /// shared, so filling in a fresh packet never copies and re-stamping a
  /// forwarded packet never corrupts other in-flight copies.
  EventPayload& mutablePayload() {
    if (!payload) {
      payload = std::make_shared<EventPayload>();
    } else if (payload.use_count() > 1) {
      payload = std::make_shared<EventPayload>(*payload);
    }
    // The only owner is this packet; dropping const is sound.
    return const_cast<EventPayload&>(*payload);
  }
};

/// Unicast address assigned to host h: fd00::(h+1).
inline dz::Ipv6Address hostAddress(NodeId host) noexcept {
  return dz::Ipv6Address{
      dz::U128{0xfd00000000000000ULL, static_cast<std::uint64_t>(host) + 1}};
}

}  // namespace pleroma::net
