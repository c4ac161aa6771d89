// A TCAM-style flow table (Sec 3.3.2). Each entry matches the destination
// IP against a CIDR prefix (the dz embedding) at a priority; the instruction
// set is a list of output actions, optionally rewriting the destination
// address before output (used on terminal switches to readdress events to
// the subscriber host). Lookup selects the matching entry with the highest
// priority (ties: longer prefix), mirroring OpenFlow semantics. Match
// prefixes are unique within a table, as the controller maintains one flow
// per dz per switch.
//
// Storage (DESIGN.md §13) is length-partitioned SoA: per installed prefix
// length, one contiguous array of 24-byte probe records (masked dz::U128
// key, priority, arena slot) — kept sorted and binary-searched with
// branchless 128-bit compares while the bucket is small, switched to flat
// open-addressing linear probing once it grows past kSortedMax. Either way
// a lookup probe is a scan of a cache-line-packed key array; the full
// FlowEntry (whose 1–2-action list is stored inline, spill-free) lives in a
// pointer-stable per-table arena and is touched only on the winning hit.
// Per-entry matchedPackets counters sit in their own SoA column so lookup's
// counter bump never dirties an entry cache line. Lookup probes the
// installed prefix lengths in descending (priority bound, length) order and
// stops at the first bucket that can no longer beat the best hit — at most
// one probe per distinct installed length, constant-time in table size,
// which is also the hardware-TCAM property Fig 7a demonstrates. In front of
// that walk sits a memo: the winner depends only on the destination bits
// between the installed keys' common prefix and the longest installed
// length, so while that window is at most kMemoMaxBits wide, a dense array
// over it answers every repeated lookup with one load; mutators only mark
// it stale, and the next lookup rebuilds it.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "dz/ip_encoding.hpp"
#include "net/types.hpp"

namespace pleroma::net {

/// One output action: emit on `port`, optionally rewriting the destination
/// address first (OpenFlow set-field + output).
struct FlowAction {
  PortId port = kInvalidPort;
  std::optional<dz::Ipv6Address> setDestination;

  friend bool operator==(const FlowAction&, const FlowAction&) = default;
};

/// Small-buffer action list: the dominant 1–2-action case (unicast forward,
/// forward+rewrite) is stored inline in the FlowEntry — no heap pointer to
/// chase on the forwarding path — and only wider fan-out entries spill to a
/// heap block. Vector-compatible surface for the operations the codebase
/// uses: push_back, iteration, indexing, assignment from
/// vector/initializer_list, equality.
class ActionList {
 public:
  using value_type = FlowAction;
  using iterator = FlowAction*;
  using const_iterator = const FlowAction*;

  static constexpr std::uint32_t kInlineCapacity = 2;

  ActionList() noexcept = default;
  ActionList(std::initializer_list<FlowAction> il) { assign(il.begin(), il.size()); }
  ActionList(const ActionList& o) { assign(o.data(), o.size_); }
  ActionList(ActionList&& o) noexcept { moveFrom(o); }
  explicit ActionList(const std::vector<FlowAction>& v) { assign(v.data(), v.size()); }
  ~ActionList() { release(); }

  ActionList& operator=(const ActionList& o) {
    if (this != &o) {
      clear();
      assign(o.data(), o.size_);
    }
    return *this;
  }
  ActionList& operator=(ActionList&& o) noexcept {
    if (this != &o) {
      release();
      moveFrom(o);
    }
    return *this;
  }
  ActionList& operator=(std::initializer_list<FlowAction> il) {
    clear();
    assign(il.begin(), il.size());
    return *this;
  }
  ActionList& operator=(const std::vector<FlowAction>& v) {
    clear();
    assign(v.data(), v.size());
    return *this;
  }
  ActionList& operator=(std::vector<FlowAction>&& v) {
    clear();
    assign(v.data(), v.size());
    return *this;
  }

  FlowAction* data() noexcept {
    return cap_ == kInlineCapacity ? reinterpret_cast<FlowAction*>(store_.raw)
                                   : store_.heap;
  }
  const FlowAction* data() const noexcept {
    return cap_ == kInlineCapacity
               ? reinterpret_cast<const FlowAction*>(store_.raw)
               : store_.heap;
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  FlowAction& operator[](std::size_t i) noexcept { return data()[i]; }
  const FlowAction& operator[](std::size_t i) const noexcept { return data()[i]; }
  FlowAction& back() noexcept { return data()[size_ - 1]; }
  const FlowAction& back() const noexcept { return data()[size_ - 1]; }

  void push_back(const FlowAction& a) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = a;
  }

  void clear() noexcept { size_ = 0; }

  friend bool operator==(const ActionList& a, const ActionList& b) {
    if (a.size_ != b.size_) return false;
    for (std::uint32_t i = 0; i < a.size_; ++i) {
      if (!(a.data()[i] == b.data()[i])) return false;
    }
    return true;
  }

 private:
  void assign(const FlowAction* src, std::size_t n) {
    if (n > cap_) grow(static_cast<std::uint32_t>(n));
    std::memcpy(data(), src, n * sizeof(FlowAction));
    size_ = static_cast<std::uint32_t>(n);
  }
  void grow(std::uint32_t newCap) {
    FlowAction* block = new FlowAction[newCap];
    std::memcpy(block, data(), size_ * sizeof(FlowAction));
    release();
    store_.heap = block;
    cap_ = newCap;
  }
  void release() noexcept {
    if (cap_ != kInlineCapacity) delete[] store_.heap;
  }
  /// Steals o's storage (heap block or inline copy); leaves o empty.
  void moveFrom(ActionList& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.cap_ == kInlineCapacity) {
      std::memcpy(store_.raw, o.store_.raw, o.size_ * sizeof(FlowAction));
    } else {
      store_.heap = o.store_.heap;
      o.cap_ = kInlineCapacity;
    }
    o.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineCapacity;
  /// Inline storage is raw bytes, not FlowAction objects — the type is
  /// trivially copyable (asserted below) and managed purely via memcpy, so
  /// the union keeps a trivial default constructor.
  union Store {
    alignas(FlowAction) std::byte raw[sizeof(FlowAction) * kInlineCapacity];
    FlowAction* heap;
  };
  Store store_{};
};

// The inline buffer is managed with memcpy/memmove (no per-element
// construction), which is only sound for a trivially copyable action type.
static_assert(std::is_trivially_copyable_v<FlowAction>);
static_assert(std::is_trivially_destructible_v<FlowAction>);

struct FlowEntry {
  dz::Ipv6Prefix match;
  int priority = 0;
  ActionList actions;
  /// Packets that matched this entry (OpenFlow per-flow counter; not part
  /// of entry identity/equality). The live counter is the table's SoA
  /// column; this field is synchronised whenever the entry is handed out
  /// through find()/entries()/forEach() — the OpenFlow stats-read paths.
  mutable std::uint64_t matchedPackets = 0;

  /// Adds `port` to the action list if absent; when present and `rewrite`
  /// is set, updates the rewrite. A port-ordered list stays port-ordered,
  /// the order the controller's required-flow computation emits, so
  /// merging the same actions in any order gives the same entry.
  void addOutPort(PortId port, std::optional<dz::Ipv6Address> rewrite = std::nullopt);
  std::vector<PortId> outPorts() const;

  std::string toString() const;

  /// Identity excludes the statistics counter.
  friend bool operator==(const FlowEntry& a, const FlowEntry& b) {
    return a.match == b.match && a.priority == b.priority && a.actions == b.actions;
  }
};

/// Table statistics observable by benches and tests; the only place a
/// lookup is counted (the metrics snapshot sums them over switches).
struct FlowTableStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Bucket probes lookup() actually issued: it walks the installed prefix
  /// lengths by descending (priority bound, length) and stops once no
  /// later bucket can beat its best hit, so a walk probes between one and
  /// all installed lengths. A lookup the memo answers issues no probe;
  /// probes/lookups is the effective TCAM scan width.
  std::uint64_t probes = 0;
  std::uint64_t inserts = 0;
  std::uint64_t modifies = 0;
  std::uint64_t removes = 0;
  std::uint64_t rejectedCapacity = 0;
  std::uint64_t rejectedDuplicate = 0;
};

class FlowTable {
 public:
  /// Widest lookup-memo index (bits): 2^13 four-byte cells, 32 KB per
  /// table. A table whose window is wider walks every lookup.
  static constexpr int kMemoMaxBits = 13;

  /// `capacity` models the switch's TCAM size (40k-180k entries in 2014
  /// hardware, Sec 1 requirement 3); 0 means unlimited.
  explicit FlowTable(std::size_t capacity = 0) : capacity_(capacity) {
    lengthBucket_.fill(-1);
  }

  FlowTable(FlowTable&&) = default;
  FlowTable& operator=(FlowTable&&) = default;

  /// Inserts an entry. Fails when the table is full or an entry with the
  /// same match prefix already exists.
  bool insert(FlowEntry entry);

  /// Replaces the entry with the same match prefix; inserts when absent.
  bool insertOrReplace(FlowEntry entry);

  /// Removes the entry with exactly this match prefix. Returns whether an
  /// entry was removed.
  bool remove(const dz::Ipv6Prefix& match);

  /// Finds the entry with exactly this match prefix (nullptr when absent).
  const FlowEntry* find(const dz::Ipv6Prefix& match) const noexcept;

  /// TCAM lookup: the matching entry with the highest priority (ties broken
  /// by longer prefix). nullptr on miss. Counted in stats, with the bucket
  /// probes it issued (none when the memo answers). The returned entry's
  /// matchedPackets field is NOT refreshed here (the bump goes to the SoA
  /// counter column); read per-flow counters via find()/entries().
  const FlowEntry* lookup(dz::Ipv6Address dst) const;

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// High-water mark of size(): budget accounting for the TCAM series
  /// (peak entries a switch ever held, even after later removals).
  std::size_t peakSize() const noexcept { return peakSize_; }
  /// Entries still installable before the hard capacity rejects inserts;
  /// SIZE_MAX when the table is unlimited.
  std::size_t headroom() const noexcept {
    if (capacity_ == 0) return static_cast<std::size_t>(-1);
    return capacity_ > size_ ? capacity_ - size_ : 0;
  }
  bool empty() const noexcept { return size_ == 0; }
  const FlowTableStats& stats() const noexcept { return stats_; }
  void clear() noexcept;

  /// Materialises all entries (unspecified order); for tests/inspection.
  std::vector<FlowEntry> entries() const;

  /// Visits every entry (controller-mirror consistency checks, stats
  /// reads). Template: the callable is invoked directly, with no
  /// std::function type-erasure on the per-entry scan.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      if (b.flat) {
        for (const ProbeRecord& r : b.recs) {
          if (r.slot != kEmptySlot) fn(syncedSlot(r.slot));
        }
      } else {
        for (std::size_t i = 0; i < b.size; ++i) {
          fn(syncedSlot(b.recs[i].slot));
        }
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  /// Bucket representation switch-over points (entries). Sorted arrays are
  /// denser and skip the hash for the common few-flows-per-length shape;
  /// flat probing wins once the binary search depth outgrows one or two
  /// cache lines. The gap is hysteresis so churn at the boundary does not
  /// rebuild the bucket every op.
  static constexpr std::size_t kSortedMax = 24;
  static constexpr std::size_t kSortedMin = 12;
  /// Arena chunk size (entries); chunks are allocated lazily so the many
  /// empty host tables cost nothing.
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  /// Memo cells hold an arena slot, or one of these two markers.
  static constexpr std::uint32_t kUnknownCell = kEmptySlot;
  static constexpr std::uint32_t kMissCell = kEmptySlot - 1;

  /// One probe cell: 24 bytes, so a 64-byte cache line covers 2-3 probe
  /// candidates. The key is the match address masked to the bucket's
  /// length; `slot` indexes the entry arena (kEmptySlot marks a free cell
  /// in flat buckets).
  struct ProbeRecord {
    dz::U128 key{};
    std::uint32_t slot = kEmptySlot;
    std::int32_t priority = 0;
  };
  static_assert(sizeof(ProbeRecord) == 24);

  struct Bucket {
    int length = 0;
    /// Highest priority installed in this bucket since it was created:
    /// raised by insert and modify, never lowered by remove, so it bounds
    /// every live record's priority.
    std::int32_t priorityBound = std::numeric_limits<std::int32_t>::min();
    dz::U128 mask{};  ///< topMask(length), precomputed off the lookup path
    std::size_t size = 0;
    bool flat = false;  ///< false: recs[0..size) sorted; true: open addressing
    std::vector<ProbeRecord> recs;
  };

  /// One bucket in lookup's probe order, with its sort key copied in so the
  /// stop test reads no Bucket.
  struct ProbeStep {
    std::int32_t bound;
    std::int16_t length;
    std::int16_t bucket;  ///< index into buckets_
  };
  /// Probe-order comparator: descending (bound, length). Lengths are unique
  /// per table, so no two steps tie.
  static bool probesBefore(const ProbeStep& a, const ProbeStep& b) noexcept {
    return a.bound != b.bound ? a.bound > b.bound : a.length > b.length;
  }

  /// Index of the bucket for `length`, created (and filed in the probe
  /// order) when absent.
  std::size_t bucketForInsert(int length);
  /// Raises bucket `bi`'s priority bound to `priority` if that is higher,
  /// re-filing its probe step.
  void raiseBound(std::size_t bi, std::int32_t priority);
  void fileStep(const ProbeStep& step);
  void dropBucketIfEmpty(Bucket& b);

  // The probe helpers are force-inlined: left out-of-line, GCC keeps the
  // key in an xmm register, spills it across the call, and reloads it in
  // the callee — a store-forward round trip that more than doubles lookup
  // latency (measured 35ns -> 11.5ns at 80k entries when inlined).

  /// recs index of `key` in a sorted bucket, or npos. Branchless binary
  /// search: the loop body is two cmovs, no data-dependent branches.
  [[gnu::always_inline]] static inline std::size_t findSorted(
      const Bucket& b, dz::U128 key) noexcept {
    std::size_t n = b.size;
    if (n == 0) return kNpos;
    const ProbeRecord* base = b.recs.data();
    while (n > 1) {
      const std::size_t half = n >> 1;
      base += dz::u128Less(base[half - 1].key, key) ? half : 0;
      n -= half;
    }
    return base->key == key ? static_cast<std::size_t>(base - b.recs.data())
                            : kNpos;
  }
  /// recs index of `key` in a flat bucket, or npos. Linear probe over the
  /// contiguous record array.
  [[gnu::always_inline]] static inline std::size_t findFlat(
      const Bucket& b, dz::U128 key) noexcept {
    const std::size_t mask = b.recs.size() - 1;
    std::size_t i = dz::u128Hash(key) & mask;
    // Load factor is kept <= 50%, so an empty cell terminates every probe
    // chain (backward-shift deletion leaves no tombstones).
    while (b.recs[i].slot != kEmptySlot) {
      if (b.recs[i].key == key) return i;
      i = (i + 1) & mask;
    }
    return kNpos;
  }
  static std::size_t findIn(const Bucket& b, dz::U128 key) noexcept {
    return b.flat ? findFlat(b, key) : findSorted(b, key);
  }

  /// The probe walk, the one source of truth for lookup's answer: the
  /// winner's arena slot, or kMissCell. Counts the probes it issues.
  /// Defined in flow_table.cpp, lookup's file, and force-inlined there
  /// like the probe helpers, so a table the memo does not cover runs the
  /// walk inside lookup as it did before the memo.
  [[gnu::always_inline]] inline std::uint32_t walk(dz::Ipv6Address dst) const noexcept;
  /// Recomputes the memo window from the installed keys and marks every
  /// cell unknown, or leaves memo_ empty (no memo) for an empty or
  /// too-wide table.
  void resetMemo() const;

  void insertRecord(Bucket& b, dz::U128 key, std::int32_t priority,
                    std::uint32_t slot);
  void eraseRecord(Bucket& b, std::size_t idx);
  /// Rebuilds `b` as flat with capacity for `forSize` entries (pow2, <=50%
  /// load) or as a sorted array, from whichever representation it has.
  void rebuildFlat(Bucket& b, std::size_t forSize);
  void rebuildSorted(Bucket& b);

  // ---- entry arena ------------------------------------------------------
  FlowEntry& slotRef(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  /// The arena entry with its matchedPackets field refreshed from the SoA
  /// counter column (the hand-out sync point).
  const FlowEntry& syncedSlot(std::uint32_t slot) const noexcept {
    const FlowEntry& e = slotRef(slot);
    e.matchedPackets = matched_[slot];
    return e;
  }
  std::uint32_t allocateSlot(FlowEntry&& entry);
  void freeSlot(std::uint32_t slot);

  static dz::U128 keyOf(const dz::Ipv6Prefix& p) noexcept {
    return p.address.value & dz::U128::topMask(p.length);
  }

  std::vector<Bucket> buckets_;  ///< one per installed length, install order
  /// The buckets in lookup's probe order (probesBefore).
  std::vector<ProbeStep> probeOrder_;
  /// Bucket index per prefix length (0..128); -1 when absent.
  std::array<std::int16_t, 129> lengthBucket_;
  std::size_t size_ = 0;
  std::size_t peakSize_ = 0;
  std::size_t capacity_;

  std::vector<std::unique_ptr<FlowEntry[]>> chunks_;
  std::vector<std::uint32_t> freeSlots_;
  std::uint32_t slotHighWater_ = 0;
  /// Per-entry matched-packet counters, SoA column parallel to the arena.
  /// Mutable: bumped by const lookup, like the stats counters.
  mutable std::vector<std::uint64_t> matched_;

  // ---- lookup memo (DESIGN.md §13) --------------------------------------
  // Every installed prefix is at most P bits long and shares its top C
  // bits, so an address outside those C bits misses and any other's winner
  // depends only on its bits [C, P). memo_ has 2^(P-C) cells, and cell
  // (dst >> (128 - P)) & (2^(P-C) - 1) caches the walk's answer for every
  // address with those bits. Empty while the table has no memo. Mutable:
  // filled and reset by const lookup.
  mutable std::vector<std::uint32_t> memo_;
  mutable dz::U128 memoMask_{};  ///< topMask(C)
  mutable dz::U128 memoTop_{};   ///< the installed keys' common top C bits
  mutable int memoShift_ = 0;    ///< 128 - P
  /// Set by every mutation; the next lookup calls resetMemo().
  mutable bool memoStale_ = true;

  mutable FlowTableStats stats_;
};

}  // namespace pleroma::net
