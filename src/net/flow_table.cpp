#include "net/flow_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "dz/u128.hpp"

namespace pleroma::net {

void FlowEntry::addOutPort(PortId port, std::optional<dz::Ipv6Address> rewrite) {
  std::size_t i = 0;
  while (i < actions.size() && actions[i].port < port) ++i;
  if (i < actions.size() && actions[i].port == port) {
    if (rewrite) actions[i].setDestination = rewrite;
    return;
  }
  actions.push_back(FlowAction{port, rewrite});
  // Shift the new action down to its place in port order.
  for (std::size_t j = actions.size() - 1; j > i; --j) {
    std::swap(actions[j], actions[j - 1]);
  }
}

std::vector<PortId> FlowEntry::outPorts() const {
  std::vector<PortId> out;
  out.reserve(actions.size());
  for (const auto& a : actions) out.push_back(a.port);
  return out;
}

std::string FlowEntry::toString() const {
  std::string out = match.toString() + " prio=" + std::to_string(priority) + " ->";
  for (const auto& a : actions) {
    out += " " + std::to_string(a.port);
    if (a.setDestination) out += "(set-dst)";
  }
  return out;
}

// ---- bucket maintenance ---------------------------------------------------

std::size_t FlowTable::bucketForInsert(int length) {
  std::int16_t& bi = lengthBucket_[static_cast<std::size_t>(length)];
  if (bi >= 0) return static_cast<std::size_t>(bi);
  bi = static_cast<std::int16_t>(buckets_.size());
  Bucket b;
  b.length = length;
  b.mask = dz::U128::topMask(length);
  fileStep(ProbeStep{b.priorityBound, static_cast<std::int16_t>(length), bi});
  buckets_.push_back(std::move(b));
  return buckets_.size() - 1;
}

void FlowTable::raiseBound(std::size_t bi, std::int32_t priority) {
  Bucket& b = buckets_[bi];
  if (priority <= b.priorityBound) return;
  b.priorityBound = priority;
  const auto bucket = static_cast<std::int16_t>(bi);
  std::erase_if(probeOrder_, [bucket](const ProbeStep& s) { return s.bucket == bucket; });
  fileStep(ProbeStep{priority, static_cast<std::int16_t>(b.length), bucket});
}

void FlowTable::fileStep(const ProbeStep& step) {
  probeOrder_.insert(std::upper_bound(probeOrder_.begin(), probeOrder_.end(),
                                      step, probesBefore),
                     step);
}

void FlowTable::dropBucketIfEmpty(Bucket& b) {
  if (b.size != 0) return;
  const auto idx = static_cast<std::int16_t>(&b - buckets_.data());
  lengthBucket_[static_cast<std::size_t>(b.length)] = -1;
  buckets_.erase(buckets_.begin() + idx);
  std::erase_if(probeOrder_, [idx](const ProbeStep& s) { return s.bucket == idx; });
  // Buckets after the erased one shifted down by one.
  for (auto& slot : lengthBucket_) {
    if (slot > idx) --slot;
  }
  for (ProbeStep& s : probeOrder_) {
    if (s.bucket > idx) --s.bucket;
  }
}

void FlowTable::insertRecord(Bucket& b, dz::U128 key, std::int32_t priority,
                             std::uint32_t slot) {
  if (!b.flat) {
    if (b.size + 1 <= kSortedMax) {
      const auto it = std::lower_bound(
          b.recs.begin(), b.recs.end(), key,
          [](const ProbeRecord& r, dz::U128 k) { return dz::u128Less(r.key, k); });
      b.recs.insert(it, ProbeRecord{key, slot, priority});
      ++b.size;
      return;
    }
    rebuildFlat(b, b.size + 1);
  } else if (b.recs.size() < 2 * (b.size + 1)) {
    rebuildFlat(b, b.size + 1);
  }
  const std::size_t mask = b.recs.size() - 1;
  std::size_t i = dz::u128Hash(key) & mask;
  while (b.recs[i].slot != kEmptySlot) i = (i + 1) & mask;
  b.recs[i] = ProbeRecord{key, slot, priority};
  ++b.size;
}

void FlowTable::eraseRecord(Bucket& b, std::size_t idx) {
  if (!b.flat) {
    b.recs.erase(b.recs.begin() + static_cast<std::ptrdiff_t>(idx));
    --b.size;
    return;
  }
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back any record whose home position does not lie cyclically inside
  // (hole, j], so chains stay dense and tombstone-free.
  const std::size_t mask = b.recs.size() - 1;
  std::size_t hole = idx;
  std::size_t j = idx;
  for (;;) {
    j = (j + 1) & mask;
    if (b.recs[j].slot == kEmptySlot) break;
    const std::size_t home = dz::u128Hash(b.recs[j].key) & mask;
    const bool movable = (j > hole) ? (home <= hole || home > j)
                                    : (home <= hole && home > j);
    if (movable) {
      b.recs[hole] = b.recs[j];
      hole = j;
    }
  }
  b.recs[hole] = ProbeRecord{};
  --b.size;
  if (b.size < kSortedMin) rebuildSorted(b);
}

void FlowTable::rebuildFlat(Bucket& b, std::size_t forSize) {
  std::vector<ProbeRecord> live;
  live.reserve(b.size);
  if (b.flat) {
    for (const ProbeRecord& r : b.recs) {
      if (r.slot != kEmptySlot) live.push_back(r);
    }
  } else {
    live.assign(b.recs.begin(), b.recs.begin() + static_cast<std::ptrdiff_t>(b.size));
  }
  std::size_t cap = 64;
  while (cap < 2 * forSize) cap <<= 1;
  b.recs.assign(cap, ProbeRecord{});
  b.flat = true;
  const std::size_t mask = cap - 1;
  for (const ProbeRecord& r : live) {
    std::size_t i = dz::u128Hash(r.key) & mask;
    while (b.recs[i].slot != kEmptySlot) i = (i + 1) & mask;
    b.recs[i] = r;
  }
}

void FlowTable::rebuildSorted(Bucket& b) {
  std::vector<ProbeRecord> live;
  live.reserve(b.size);
  for (const ProbeRecord& r : b.recs) {
    if (r.slot != kEmptySlot) live.push_back(r);
  }
  std::sort(live.begin(), live.end(),
            [](const ProbeRecord& x, const ProbeRecord& y) {
              return dz::u128Less(x.key, y.key);
            });
  b.recs = std::move(live);
  b.flat = false;
}

// ---- entry arena ----------------------------------------------------------

std::uint32_t FlowTable::allocateSlot(FlowEntry&& entry) {
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = slotHighWater_++;
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<FlowEntry[]>(kChunkSize));
    }
    matched_.resize(slotHighWater_, 0);
  }
  slotRef(slot) = std::move(entry);
  matched_[slot] = slotRef(slot).matchedPackets;
  return slot;
}

void FlowTable::freeSlot(std::uint32_t slot) {
  // Reset releases any spilled action storage now rather than at table
  // destruction; the slot is recycled by the next insert.
  slotRef(slot) = FlowEntry{};
  freeSlots_.push_back(slot);
}

// ---- public API -----------------------------------------------------------

bool FlowTable::insert(FlowEntry entry) {
  if (capacity_ != 0 && size_ >= capacity_) {
    ++stats_.rejectedCapacity;
    return false;
  }
  const dz::U128 key = keyOf(entry.match);
  const std::size_t bi = bucketForInsert(entry.match.length);
  Bucket& b = buckets_[bi];
  if (findIn(b, key) != kNpos) {
    ++stats_.rejectedDuplicate;
    return false;
  }
  const auto priority = static_cast<std::int32_t>(entry.priority);
  const std::uint32_t slot = allocateSlot(std::move(entry));
  insertRecord(b, key, priority, slot);
  raiseBound(bi, priority);
  ++size_;
  if (size_ > peakSize_) peakSize_ = size_;
  ++stats_.inserts;
  memoStale_ = true;
  return true;
}

bool FlowTable::insertOrReplace(FlowEntry entry) {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(entry.match.length)];
  if (bi >= 0) {
    Bucket& b = buckets_[static_cast<std::size_t>(bi)];
    const std::size_t idx = findIn(b, keyOf(entry.match));
    if (idx != kNpos) {
      const std::uint32_t slot = b.recs[idx].slot;
      // OpenFlow modify preserves the per-flow counters (the column stays).
      entry.matchedPackets = matched_[slot];
      const auto priority = static_cast<std::int32_t>(entry.priority);
      b.recs[idx].priority = priority;
      slotRef(slot) = std::move(entry);
      raiseBound(static_cast<std::size_t>(bi), priority);
      ++stats_.modifies;
      memoStale_ = true;
      return true;
    }
  }
  return insert(std::move(entry));
}

bool FlowTable::remove(const dz::Ipv6Prefix& match) {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(match.length)];
  if (bi < 0) return false;
  Bucket& b = buckets_[static_cast<std::size_t>(bi)];
  const std::size_t idx = findIn(b, keyOf(match));
  if (idx == kNpos) return false;
  freeSlot(b.recs[idx].slot);
  eraseRecord(b, idx);
  --size_;
  ++stats_.removes;
  dropBucketIfEmpty(b);
  memoStale_ = true;
  return true;
}

const FlowEntry* FlowTable::find(const dz::Ipv6Prefix& match) const noexcept {
  const std::int16_t bi = lengthBucket_[static_cast<std::size_t>(match.length)];
  if (bi < 0) return nullptr;
  const Bucket& b = buckets_[static_cast<std::size_t>(bi)];
  const std::size_t idx = findIn(b, keyOf(match));
  return idx == kNpos ? nullptr : &syncedSlot(b.recs[idx].slot);
}

inline std::uint32_t FlowTable::walk(dz::Ipv6Address dst) const noexcept {
  const ProbeRecord* best = nullptr;
  int bestLength = -1;
  std::uint64_t probes = 0;
  for (const ProbeStep& step : probeOrder_) {
    // Every record in this bucket and in the ones after it ranks at most
    // (step.bound, step.length); once that ranks below the best hit, none
    // of them can win.
    if (best != nullptr &&
        (step.bound < best->priority ||
         (step.bound == best->priority && step.length < bestLength))) {
      break;
    }
    const Bucket& b = buckets_[static_cast<std::size_t>(step.bucket)];
    ++probes;
    const std::size_t idx = findIn(b, dst.value & b.mask);
    if (idx == kNpos) continue;
    const ProbeRecord& r = b.recs[idx];
    if (best == nullptr || r.priority > best->priority ||
        (r.priority == best->priority && b.length > bestLength)) {
      best = &r;
      bestLength = b.length;
    }
  }
  stats_.probes += probes;
  return best == nullptr ? kMissCell : best->slot;
}

void FlowTable::resetMemo() const {
  memoStale_ = false;
  memo_.clear();
  // At most 2^(P-C+1) - 1 distinct prefixes share their top C bits and are
  // at most P long, so a table this large is too wide for the memo.
  if (buckets_.empty() || size_ >= (std::size_t{2} << kMemoMaxBits)) return;
  int shortest = 128;
  int longest = 0;
  for (const Bucket& b : buckets_) {
    shortest = std::min(shortest, b.length);
    longest = std::max(longest, b.length);
  }
  if (longest - shortest > kMemoMaxBits) return;  // C is at most shortest
  // Bits set in some key but not in all of them.
  dz::U128 any{};
  dz::U128 all = ~dz::U128{};
  for (const Bucket& b : buckets_) {
    // A sorted bucket's records are all live; a flat one's free cells hold
    // kEmptySlot.
    for (const ProbeRecord& r : b.recs) {
      if (r.slot == kEmptySlot) continue;
      any = any | r.key;
      all = all & r.key;
    }
  }
  const dz::U128 differ = any ^ all;
  const int agreed = differ.hi != 0 ? std::countl_zero(differ.hi)
                                    : 64 + std::countl_zero(differ.lo);
  const int common = std::min(shortest, agreed);
  const int bits = longest - common;
  if (bits > kMemoMaxBits) return;
  memoMask_ = dz::U128::topMask(common);
  memoTop_ = all & memoMask_;
  memoShift_ = 128 - longest;
  memo_.assign(std::size_t{1} << bits, kUnknownCell);
}

const FlowEntry* FlowTable::lookup(dz::Ipv6Address dst) const {
  ++stats_.lookups;
  if (memoStale_) resetMemo();
  std::uint32_t slot = kUnknownCell;
  std::uint32_t* cell = nullptr;
  if (!memo_.empty()) {
    if (((dst.value ^ memoTop_) & memoMask_).isZero()) {
      // Every address of one cell matches the same entries, so the walk's
      // answer for the first one is everyone's.
      cell = &memo_[(dst.value >> memoShift_).lo & (memo_.size() - 1)];
      slot = *cell;
    } else {
      slot = kMissCell;  // outside the prefix every installed key shares
    }
  }
  if (slot == kUnknownCell) {
    slot = walk(dst);
    if (cell != nullptr) *cell = slot;
  }
  if (slot == kMissCell) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  ++matched_[slot];
  return &slotRef(slot);
}

void FlowTable::clear() noexcept {
  buckets_.clear();
  probeOrder_.clear();
  lengthBucket_.fill(-1);
  size_ = 0;
  chunks_.clear();
  freeSlots_.clear();
  slotHighWater_ = 0;
  matched_.clear();
  memoStale_ = true;
}

std::vector<FlowEntry> FlowTable::entries() const {
  std::vector<FlowEntry> out;
  out.reserve(size_);
  forEach([&](const FlowEntry& e) { out.push_back(e); });
  return out;
}

}  // namespace pleroma::net
