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
// Storage is split by tree id: each tree's paths live in their own map, so
// pathsOfTree — where every tree rebuild, merge and re-index starts — reads
// one map instead of scanning every path. The one cross-tree index lists,
// per subscription, a (path id, publisher, tree) reference to each of its
// paths in one contiguous array: alreadyCovered, on every install, compares
// publisher and tree in place and looks up only the paths that match, and
// remove and move edit one entry. pathsOfPublisher, needed only when a
// publisher leaves, scans the tree maps instead of keeping an index.
//
// The per-switch index counts, for each switch, how many registered
// (path hop, dz member) pairs contribute each distinct (dz, out-port,
// rewrite) action — a refcount kept by add, remove, setDz, move and clear
// with one hashed update per (hop, dz member). requiredFlows reads only that
// switch's contributions, so its cost follows the switch's distinct
// actions, not the number of paths crossing it (at a tree root, nearly
// every path).
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

struct InstalledPath {
  PathId id = -1;
  PublisherId publisher = kInvalidPublisher;
  SubscriptionId subscription = kInvalidSubscription;
  int treeId = -1;
  /// The subspaces forwarded along this path: the DZ^t(s) ∩ DZ^t(p) pieces.
  dz::DzSet dz;
  std::vector<RouteHop> hops;
};

class PathRegistry {
 public:
  /// Registers a path; its dz must be non-empty.
  PathId add(InstalledPath path);
  void remove(PathId id);
  bool contains(PathId id) const { return treeOf_.contains(id); }
  const InstalledPath& at(PathId id) const {
    return byTree_.at(treeOf_.at(id)).at(id);
  }
  std::size_t size() const noexcept { return treeOf_.size(); }
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

  /// Deterministic byte accounting of the registry's element payload
  /// (paths, hops, dz members — no container overhead, capacity or
  /// per-switch index), for the bench memory series.
  std::size_t stateBytes() const noexcept;

  /// Ids in ascending order.
  std::vector<PathId> pathsOfSubscription(SubscriptionId s) const;
  std::vector<PathId> pathsOfPublisher(PublisherId p) const;
  std::vector<PathId> pathsOfTree(int treeId) const;

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

  /// What a subscription's index entry keeps of one of its paths: enough
  /// for alreadyCovered to pick the paths of one (publisher, tree) without
  /// looking any other up.
  struct PathRef {
    PathId id = -1;
    PublisherId publisher = kInvalidPublisher;
    int treeId = -1;
  };
  /// The entry of path `id` among one subscription's references.
  static PathRef& refIn(std::vector<PathRef>& refs, PathId id);

  /// Per-tree path maps (see file comment); treeOf_ routes id lookups.
  std::unordered_map<int, std::unordered_map<PathId, InstalledPath>> byTree_;
  std::unordered_map<PathId, int> treeOf_;
  std::unordered_map<net::NodeId, SwitchContributions> contributions_;
  /// Per subscription, its paths in no particular order.
  std::unordered_map<SubscriptionId, std::vector<PathRef>> bySubscription_;
  PathId next_ = 0;

  bool recording_ = false;
  /// Pieces whose count crossed zero while recording, in update order.
  std::vector<std::pair<net::NodeId, dz::DzExpression>> changed_;
  /// Switches whose counts changed while recording (assertion builds only).
  std::vector<net::NodeId> touched_;
};

}  // namespace pleroma::ctrl
