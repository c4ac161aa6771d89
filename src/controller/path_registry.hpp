// The controller's record of every installed (publisher, subscriber, tree)
// path: which subspaces it forwards and through which (switch, out-port)
// hops. From this record the *required* flow set of any switch can be
// derived, which drives unsubscription handling (delete vs. downgrade,
// Sec 3.3.3), tree merging, and the consistency checks in the tests.
//
// Required-flow semantics: a switch needs, for destination address a, to
// forward to exactly the ports
//     ports(a) = U { contrib(dz) : dz contributed at this switch, dz covers a }
// Because TCAM lookup applies only the first (longest-dz) match, the flow
// installed for a dz must carry the union of its own ports and the ports of
// every contributed coarser prefix; and a flow whose own ports are already
// covered by its prefixes' union is unnecessary (that's the "downgrade").
//
// Storage is dense. Records sit in one slot vector (a removed record's
// slot is reused) with a hash index from path id to slot. Each tree keeps
// a list of its records' slots, and each record its position in that
// list, so pathsOfTree, where every tree rebuild, merge and re-index
// starts, reads one list, and a removal swap-removes one entry. The one
// cross-tree index lists, per subscription, the slots of its paths:
// alreadyCovered, on every install, reads those records only.
// pathsOfPublisher, needed only when a publisher leaves, scans the slots.
//
// A route is stored once. The route table interns every distinct hop list
// with a count of the paths along it; a path points at its route, and the
// route is released when its last path leaves (a rebuild mints new hop
// lists on every reroot). Paths are kept at the paper's granularity, one
// per (publisher, subscription, tree): addOrExtend, which Algorithm 1's
// installs use, extends the pair's path on the same route by the new dz
// members instead of registering another, as long as the union merges
// none of them, so the counts below stay what separate paths give.
//
// The per-switch index counts, for each switch, how many registered
// (path hop, dz member) pairs contribute each distinct (dz, out-port,
// rewrite) action — a refcount kept by add, addOrExtend, remove, setDz,
// move and clear with one hashed update per (hop, dz member).
// requiredFlows reads only that switch's contributions, so its cost
// follows the switch's distinct actions, not the number of paths crossing
// it (at a tree root, nearly every path).
//
// Only a contribution whose count crosses zero can change a required flow,
// and only the flows of its dz's subtree: a flow's actions come from its
// own dz and the dz's prefixes. While a removal or rebuild runs, the
// registry records those (switch, dz) pieces (recordChanges / takeChanges),
// and requiredFlows(sw, roots) recomputes just the subtrees under them, so
// the controller reconciles what changed instead of every switch table the
// old paths crossed (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "controller/tree.hpp"
#include "dz/dz_set.hpp"
#include "net/flow_table.hpp"

namespace pleroma::ctrl {

using PathId = std::int64_t;

/// An interned route: its hops, and how many registered paths run along
/// them.
using Route = std::pair<const std::vector<RouteHop>, std::uint32_t>;

/// A registered path: the subspaces one publisher sends one subscription
/// along one tree, and the route they take.
struct InstalledPath {
  PathId id = -1;
  PublisherId publisher = kInvalidPublisher;
  SubscriptionId subscription = kInvalidSubscription;
  /// The subspaces forwarded along this path: the DZ^t(s) ∩ DZ^t(p) pieces.
  dz::DzSet dz;
  int treeId = -1;

  /// The hops, held once for every path along the same route.
  const std::vector<RouteHop>& hops() const noexcept { return route_->first; }

 private:
  friend class PathRegistry;
  std::uint32_t treePos_ = 0;  ///< position in its tree's slot list
  Route* route_ = nullptr;
};

/// What add and addOrExtend register.
struct PathSpec {
  PublisherId publisher = kInvalidPublisher;
  SubscriptionId subscription = kInvalidSubscription;
  int treeId = -1;
  dz::DzSet dz;
  std::vector<RouteHop> hops;
};

class PathRegistry {
 public:
  /// Registers a path; its dz must be non-empty.
  PathId add(PathSpec path);
  /// Registers a path like add, unless a path of the same (publisher,
  /// subscription, tree) runs along the same hops and the union of the two
  /// dz sets merges no members: that path then forwards the union, only
  /// the new members are counted, and its id is returned.
  PathId addOrExtend(PathSpec path);
  void remove(PathId id);
  bool contains(PathId id) const { return slotOf_.contains(id); }
  const InstalledPath& at(PathId id) const { return slots_[slotOf_.at(id)]; }
  std::size_t size() const noexcept { return slotOf_.size(); }
  void clear();

  /// Replaces the (non-empty) dz set a path forwards, re-counting its
  /// contributions at every hop. Used by aggregated-mode uncover to shrink
  /// a path in place instead of remove + re-add.
  void setDz(PathId id, dz::DzSet dz);

  /// Re-files path `id` under tree `treeId` with a fresh id and the given
  /// hops, and returns that id. Only hops that differ from the path's old
  /// ones are recounted, so a tree rebuild that re-derives an unchanged
  /// route costs no contribution update.
  PathId move(PathId id, int treeId, std::vector<RouteHop> hops);

  /// True when some registered path hop already asks `hop.switchNode` to
  /// forward `d` out of `hop.outPort` with `hop.rewrite`.
  bool counts(const dz::DzExpression& d, const RouteHop& hop) const;

  /// Deterministic byte accounting of the registry's resident payload:
  /// each path's record and dz members once, each interned route's hops
  /// once (no container overhead, capacity or per-switch index), for the
  /// bench memory series.
  std::size_t stateBytes() const noexcept;

  /// Ids in ascending order.
  std::vector<PathId> pathsOfSubscription(SubscriptionId s) const;
  std::vector<PathId> pathsOfPublisher(PublisherId p) const;
  std::vector<PathId> pathsOfTree(int treeId) const;

  /// Each distinct route of the tree's paths, with how many of them run
  /// along it, in no particular order.
  std::vector<std::pair<const std::vector<RouteHop>*, std::size_t>>
  routesOfTree(int treeId) const;

  /// True when a path for this (publisher, subscription, tree) already
  /// forwards a superset of `dz` — used to avoid duplicate installs.
  bool alreadyCovered(PublisherId p, SubscriptionId s, int treeId,
                      const dz::DzSet& dz) const;

  /// The canonical flow set switch `sw` must hold so that every registered
  /// path's traffic is forwarded (and nothing more), restricted to the
  /// entries under `roots`: minimal roots (none covers another) in trie
  /// order. The whole-space root, the default, gives every entry.
  /// Priorities are the dz length, matching the controller's installation
  /// discipline. Entries come in trie order, each with its actions in port
  /// order.
  std::vector<net::FlowEntry> requiredFlows(
      net::NodeId sw,
      const std::vector<dz::DzExpression>& roots = {dz::DzExpression{}}) const;

  // ---- change recording ------------------------------------------------

  /// Starts recording the (switch, dz) pieces whose contribution count
  /// crosses zero, in either direction, until takeChanges. Removals and
  /// rebuilds record; Algorithm 1's installs (advertise, subscribe) do not.
  void recordChanges() noexcept { recording_ = true; }

  struct Changes {
    /// Per switch, in ascending id: the minimal roots (trie order, none
    /// covering another) of the recorded pieces. No required flow outside
    /// these subtrees changed while recording.
    std::vector<std::pair<net::NodeId, std::vector<dz::DzExpression>>> roots;
    /// Every switch whose counts changed at all while recording, ascending.
    /// Kept only in builds with assertions, for the check that a delta
    /// reconcile leaves each of them as a full one would.
    std::vector<net::NodeId> touched;
  };
  /// Stops recording and hands over (and forgets) what it recorded.
  Changes takeChanges();

  /// All switches that appear in any registered path.
  std::vector<net::NodeId> allSwitches() const;

 private:
  /// One action a path hop asks of its switch for one dz member. The
  /// defaulted order is (dz in trie order, port, rewrite with none first).
  struct Contribution {
    dz::DzExpression dz;
    net::PortId port = net::kInvalidPort;
    std::optional<dz::Ipv6Address> rewrite;

    friend bool operator==(const Contribution&, const Contribution&) = default;
    friend auto operator<=>(const Contribution&, const Contribution&) = default;
  };
  struct ContributionHash {
    std::size_t operator()(const Contribution& c) const noexcept;
  };
  /// Live contributions of one switch and how many (hop, dz member) pairs
  /// give each; an entry is erased when its count drops to zero.
  using SwitchContributions =
      std::unordered_map<Contribution, std::uint32_t, ContributionHash>;

  /// Adds `delta` (+1 or -1) to the count of every (hop, dz member) pair
  /// of a path.
  void countContributions(const std::vector<RouteHop>& hops,
                          const std::vector<dz::DzExpression>& dz, int delta);
  /// The same for the pairs of one hop; while recording, notes each piece
  /// whose count crosses zero.
  void countHop(const RouteHop& hop, const std::vector<dz::DzExpression>& dz,
                int delta);

  struct RouteHash {
    std::size_t operator()(const std::vector<RouteHop>& hops) const noexcept;
  };
  /// The route with these hops, interned (with no path yet) when new.
  Route& intern(std::vector<RouteHop> hops);
  /// Drops one path from the route's count; the last one erases it.
  void release(Route& route);
  /// Files a path along `route` in a free slot under a fresh id; counting
  /// its contributions is the caller's.
  PathId file(PathSpec& spec, Route& route);
  /// Appends the record in `slot` to its tree's slot list, or takes it out.
  void fileUnderTree(std::uint32_t slot);
  void unfileFromTree(std::uint32_t slot);

  std::vector<InstalledPath> slots_;  ///< a free slot has id -1
  std::vector<std::uint32_t> freeSlots_;
  std::unordered_map<PathId, std::uint32_t> slotOf_;
  std::unordered_map<int, std::vector<std::uint32_t>> slotsOfTree_;
  /// Per subscription, the slots of its paths in no particular order.
  std::unordered_map<SubscriptionId, std::vector<std::uint32_t>>
      slotsOfSubscription_;
  /// Node-based, so a Route stays where it is while others come and go.
  std::unordered_map<std::vector<RouteHop>, std::uint32_t, RouteHash> routes_;
  std::unordered_map<net::NodeId, SwitchContributions> contributions_;
  PathId next_ = 0;

  bool recording_ = false;
  /// Pieces whose count crossed zero while recording, in update order.
  std::vector<std::pair<net::NodeId, dz::DzExpression>> changed_;
  /// Switches whose counts changed while recording (assertion builds only).
  std::vector<net::NodeId> touched_;
};

}  // namespace pleroma::ctrl
