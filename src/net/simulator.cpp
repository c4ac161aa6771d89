#include "net/simulator.hpp"

#include <cassert>
#include <chrono>
#include <utility>

namespace pleroma::net {

namespace {
/// Accumulates the wall-clock duration of a run loop into `sink`.
class WallClockScope {
 public:
  explicit WallClockScope(std::uint64_t& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~WallClockScope() {
    sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::uint64_t& sink_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

void Simulator::enqueue(SimTime when, std::uint32_t taggedSlot) {
  assert(when >= now_);
  if (cacheValid_ && when == cacheWhen_) {
    // Same timestamp as the most recently opened run: append to its FIFO.
    // The run's heap entry is untouched — it keeps the first event's
    // sequence number, and every event appended here is newer than the
    // first event of any other same-time run, so ordering is preserved.
    runs_[cacheRun_].extra.push_back(taggedSlot);
  } else {
    std::uint32_t r;
    if (!freeRuns_.empty()) {
      r = freeRuns_.back();
      freeRuns_.pop_back();
      Run& run = runs_[r];
      run.first = taggedSlot;
      run.head = 0;
      run.extra.clear();  // capacity retained
    } else {
      runs_.push_back(Run{taggedSlot, 0, {}});
      r = static_cast<std::uint32_t>(runs_.size() - 1);
    }
    queue_.push(Item{when, nextSeq_, r});
    cacheValid_ = true;
    cacheWhen_ = when;
    cacheRun_ = r;
  }
  ++nextSeq_;
  ++pendingCount_;
}

void Simulator::scheduleAt(SimTime when, std::function<void()> action) {
  const std::uint32_t slot = tasks_.put(std::move(action));
  assert((slot & kPacketLane) == 0);
  enqueue(when, slot);
}

void Simulator::schedulePacketAt(SimTime when, PacketSink& sink,
                                 PacketEventKind kind, NodeId node,
                                 PortId port, Packet packet) {
  std::uint32_t slot;
  if (!packets_.freeList.empty()) {
    slot = packets_.freeList.back();
    packets_.freeList.pop_back();
    PacketEvent& ev = packets_.slots[slot];
    ev.sink = &sink;
    ev.node = node;
    ev.port = port;
    ev.kind = kind;
    ev.packet = std::move(packet);
  } else {
    packets_.slots.push_back(
        PacketEvent{&sink, node, port, kind, std::move(packet)});
    slot = static_cast<std::uint32_t>(packets_.slots.size() - 1);
  }
  assert((slot & kPacketLane) == 0);
  enqueue(when, slot | kPacketLane);
}

std::uint32_t Simulator::takeNext() {
  const Item top = queue_.top();
  Run& run = runs_[top.run];
  std::uint32_t slot;
  if (run.head == 0) {
    slot = run.first;
    run.head = 1;
  } else {
    slot = run.extra[run.head - 1];
    ++run.head;
  }
  if (run.head - 1 == run.extra.size()) {
    // Exhausted: recycle the run before dispatching, so a handler that
    // schedules reuses it while it is still cache-hot. A delay-0 event
    // scheduled by the dispatched handler simply opens a fresh run.
    queue_.pop();
    freeRuns_.push_back(top.run);
    if (cacheValid_ && cacheRun_ == top.run) cacheValid_ = false;
  }
  --pendingCount_;
  return slot;
}

void Simulator::dispatch(std::uint32_t taggedSlot) {
  // Copy the event out of its slot and free the slot *before* invoking:
  // the handler may schedule (growing the slab, invalidating references)
  // and benefits from immediately reusing this still-hot slot.
  if (taggedSlot & kPacketLane) {
    const std::uint32_t slot = taggedSlot & ~kPacketLane;
    PacketEvent& ev = packets_.slots[slot];
    PacketSink* const sink = ev.sink;
    const PacketEventKind kind = ev.kind;
    const NodeId node = ev.node;
    const PortId port = ev.port;
    Packet packet = std::move(ev.packet);
    packets_.freeList.push_back(slot);
    sink->onPacketEvent(kind, node, port, std::move(packet));
  } else {
    std::function<void()> task = std::move(tasks_.slots[taggedSlot]);
    tasks_.freeList.push_back(taggedSlot);
    task();
  }
}

std::size_t Simulator::run() {
  const WallClockScope wall(wallNanos_);
  std::size_t count = 0;
  while (!queue_.empty()) {
    now_ = queue_.top().when;
    dispatch(takeNext());
    ++count;
    ++processed_;
  }
  return count;
}

std::size_t Simulator::runUntil(SimTime until) {
  const WallClockScope wall(wallNanos_);
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    now_ = queue_.top().when;
    dispatch(takeNext());
    ++count;
    ++processed_;
  }
  if (now_ < until) now_ = until;
  return count;
}

}  // namespace pleroma::net
