// Incremental subscription aggregation (Sec 3 + Towards Scalable
// Subscription Aggregation, Shi et al.): maintains the canonical aggregate
// of a multiset of dz members — the DzSet a naive union of all live members
// would produce — under refcounted add/remove, and reports each change as
// an exact delta of representatives entering/leaving the aggregate.
//
// The point is sublinear flow state: a member already covered by the
// aggregate adds nothing (the common case under skewed workloads), sibling
// members collapse into their parent, and removing a member *uncovers*
// only the subtree of the one representative that covered it — no full
// recompute. Complexity per operation is O(dz length + |delta| + local
// splice), with the member multiset held in a flat-array trie (index-linked
// nodes in one contiguous vector, free-list recycling — no per-node heap
// allocations at steady state).
#pragma once

#include <cstdint>
#include <vector>

#include "dz/dz_set.hpp"

namespace pleroma::dz {

/// The change one add/remove made to the canonical aggregate: exact
/// representatives that entered (`added`) and left (`removed`) it. Both
/// lists are exact members of the previous/next aggregate respectively
/// (never canonicalised across each other), so callers can key per-piece
/// state — spatial indexes, installed paths — by identity.
struct AggregationDelta {
  std::vector<DzExpression> added;
  std::vector<DzExpression> removed;

  bool empty() const noexcept { return added.empty() && removed.empty(); }

  /// Composes a subsequent delta into this one with exact cancellation:
  /// a piece removed after being added in the same composition vanishes
  /// (and vice versa), so the composite maps the aggregate before the
  /// first operation directly to the aggregate after the last.
  void merge(AggregationDelta&& later);
};

class AggregationIndex {
 public:
  AggregationIndex() { clear(); }

  /// Registers one member (refcounted: the same dz may be added by many
  /// subscriptions). Returns the aggregate delta — empty when the member
  /// was already covered, i.e. nothing needs installing.
  AggregationDelta add(const DzExpression& d);
  /// Registers every member of `set`, returning the composed delta.
  AggregationDelta add(const DzSet& set);

  /// Releases one member reference. While other references (or a covering
  /// member) keep its subspace needed the delta is empty; otherwise the
  /// covering representative is *uncovered*: replaced by the canonical
  /// cover of the members remaining beneath it (possibly nothing).
  AggregationDelta remove(const DzExpression& d);
  AggregationDelta remove(const DzSet& set);

  /// The canonical aggregate: spatially equal to the union of all live
  /// members, kept in DzSet canonical form incrementally.
  const DzSet& aggregate() const noexcept { return aggregate_; }

  /// True iff the aggregate covers `d` — a subscription for `d` would
  /// install nothing.
  bool covered(const DzExpression& d) const noexcept {
    return aggregate_.covers(d);
  }

  std::size_t memberCount() const noexcept { return members_; }
  std::size_t representativeCount() const noexcept { return aggregate_.size(); }
  /// Live trie nodes (the arena may hold more capacity than this).
  std::size_t nodeCount() const noexcept { return liveNodes_; }
  /// Deterministic accounting of held state (element counts, not vector
  /// capacities, so it is identical across runs).
  std::size_t stateBytes() const noexcept;

  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// 16-byte trie node, linked by arena index. `self` counts members whose
  /// dz ends exactly here; `subtree` counts members at or below.
  struct Node {
    std::uint32_t child[2] = {kNil, kNil};
    std::uint32_t self = 0;
    std::uint32_t subtree = 0;
  };

  std::uint32_t allocNode();
  void releaseNode(std::uint32_t idx);
  /// The node of `d`, or kNil when no member at/below it exists.
  std::uint32_t findNode(const DzExpression& d) const noexcept;

  /// Appends the canonical cover of the members in `idx`'s subtree (whose
  /// dz is `key`) to `out` in trie order. Returns true when the cover is
  /// the full `key` subspace — the caller then owns collapsing it upward
  /// (the two-full-children case merges into the parent here).
  bool coverUnder(std::uint32_t idx, const DzExpression& key,
                  std::vector<DzExpression>& out) const;

  std::vector<Node> nodes_;        // flat arena; index 0 is the root
  std::vector<std::uint32_t> free_;
  std::size_t liveNodes_ = 0;
  std::size_t members_ = 0;
  DzSet aggregate_;
};

}  // namespace pleroma::dz
