// Flow-table maintenance (Sec 3.3.2, Algorithm 1 lines 31-51). The
// incremental `installPath` applies the paper's five cover/partial-cover
// cases as flows are added for a new (publisher, subscriber) route; the
// `reconcileSwitch` pass diffs a switch against its required flow set and
// is used for removals — producing exactly the delete/downgrade behaviour
// of Sec 3.3.3 — as well as for tree rebuilds, merges and re-indexing.
//
// Priorities: a flow's priority is its dz length. Longer-dz flows thereby
// always rank above any covering (shorter-dz) flow, which is the invariant
// Algorithm 1's increasePriority() calls establish.
//
// The installer keeps a per-switch *mirror* of installed flows, keyed by dz
// in trie order. Covering flows are found by walking the dz's prefixes;
// covered flows are a contiguous range after the dz — so the five cases
// cost O(log n + answers) instead of a full TCAM scan per install.
//
// The mirror stays canonical: it equals the registry's required flows
// (their length-capped projection on a coarsened switch), entry for entry
// and with actions in port order. Algorithm 1 keeps it so by deleting a
// finer flow left equal to its nearest covering flow, and a reconcile
// therefore needs to diff only the dz subtrees whose contributions changed
// (PathRegistry::takeChanges); the rest already matches.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "controller/tree.hpp"
#include "openflow/control_channel.hpp"

namespace pleroma::ctrl {

class PathRegistry;

class FlowInstaller {
 public:
  explicit FlowInstaller(openflow::ControlChannel& channel) : channel_(channel) {}

  /// Installs flows for forwarding the subspaces of `dzSet` along `hops`
  /// (Algorithm 1's flowAddition, one invocation per dz per hop). With
  /// `counted` (the controller passes its registry on every install), a
  /// (dz, hop) piece whose contribution that registry already counts is
  /// skipped and booked as case 2: the mirror forwards every counted
  /// contribution, so flowAddition would stop at case 2 and send nothing.
  /// Only forgetSwitch breaks that invariant, and only for a down switch,
  /// where no path is ever registered: no new path asks about it, and by
  /// the time it comes back its old paths are gone (DESIGN.md §15). Debug
  /// builds check each skip.
  void installPath(const dz::DzSet& dzSet, const std::vector<RouteHop>& hops,
                   const PathRegistry* counted = nullptr);

  /// True when the mirror's longest entry matching `d` (truncated as
  /// installs to the switch are) carries the hop's action, so that
  /// flowAddition for (d, hop) would stop at case 2.
  bool forwards(const dz::DzExpression& d, const RouteHop& hop) const;

  /// Brings the entries of `sw` under `roots` (minimal, in trie order) to
  /// exactly what `registry` requires there (match-keyed diff: missing
  /// entries are added, differing ones modified, surplus deleted), then
  /// enforces the budget. On a coarsened switch each root first widens to
  /// its truncation. The whole-space root, the default, reconciles the
  /// whole table.
  void reconcileSwitch(net::NodeId sw, const PathRegistry& registry,
                       std::vector<dz::DzExpression> roots = {dz::DzExpression{}});

  /// True when the mirror of `sw` equals the full recompute of what
  /// `registry` requires there (projected on a coarsened switch): the state
  /// every reconcile leaves and that Algorithm 1 keeps.
  bool mirrorsRequired(net::NodeId sw, const PathRegistry& registry) const;

  /// Widens the flush unit from a single installPath / reconcileSwitch
  /// call to a whole controller operation: while a scope is open, mods
  /// keep accumulating, and the outermost scope's destructor hands them to
  /// ControlChannel::sendBatch. On a batching channel an operation whose
  /// routes cross the same switch several times then sends it one message
  /// instead of one per visit. No simulated time passes inside an
  /// operation, so a deferred send keeps its xid, fault draws, FIFO install
  /// time and order. Nestable.
  class BatchScope {
   public:
    explicit BatchScope(FlowInstaller& installer) : installer_(installer) {
      ++installer_.batchDepth_;
    }
    ~BatchScope() {
      if (--installer_.batchDepth_ == 0) installer_.flushBatch();
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    FlowInstaller& installer_;
  };

  // ---- TCAM entry budget (Sec 3 coarsening) -----------------------------
  //
  // When a switch's mirror would exceed the budget, the installer coarsens
  // that switch's flows: the switch gets a sticky truncation length L, and
  // every entry longer than L collapses into its length-L prefix carrying
  // the union of the collapsed actions. Forwarding becomes a spatial
  // superset — false positives, never misses — exactly the shortened-dz
  // degradation of the paper's Sec 3 case logic, instead of a failed
  // install. The length is chosen deterministically (the longest L whose
  // projected entry count fits), so standby promotion replay and
  // Reconciler audits reproduce the identical coarsened mirror.

  /// Entry budget of every switch (0 = unlimited).
  void setTcamBudget(std::size_t entries) { budget_ = entries; }

  /// The switch's current truncation length; -1 while uncoarsened.
  int coarsenLength(net::NodeId sw) const;

  /// How often each of Algorithm 1's five flowAddition cases fired, plus
  /// reconcile passes (exported as "flow_installer.*").
  struct CaseStats {
    std::uint64_t freshAdd = 0;         ///< 1: no related flow, plain add
    std::uint64_t covered = 0;          ///< 2: an existing flow covers it
    std::uint64_t subsumedDelete = 0;   ///< 3: finer flow subsumed, deleted
    std::uint64_t extend = 0;           ///< 4: flow extended with more actions
    std::uint64_t shadowModify = 0;     ///< 5: finer shadowing flow extended
    std::uint64_t reconcilePasses = 0;  ///< reconcileSwitch calls
  };
  const CaseStats& caseStats() const noexcept { return caseStats_; }

  struct CoarsenStats {
    std::uint64_t events = 0;            ///< budget-triggered coarsen passes
    std::uint64_t entriesCollapsed = 0;  ///< mirror entries merged away
    /// Σ per-entry subspace volume gained by truncation — an analytic
    /// proxy for the induced false-positive overhead (Sec 5).
    double addedVolume = 0.0;
  };
  const CoarsenStats& coarsenStats() const noexcept { return coarsenStats_; }

  /// Installed entries across all switch mirrors (the fig7b/7d-class
  /// entry-count series).
  std::size_t totalMirrorEntries() const noexcept;

  /// Deterministic byte accounting of the mirrors' element payload
  /// (entries + their action lists; no container overhead or capacity).
  std::size_t stateBytes() const noexcept;

  /// The controller-side view of a switch's flows, keyed by dz.
  const std::map<dz::DzExpression, net::FlowEntry>& mirror(net::NodeId sw) const;

  /// Drops the mirror of a switch whose state is gone (node failure) or
  /// about to be rebuilt from scratch (reconnect with an empty TCAM).
  /// Subsequent installs/reconciles re-issue every needed flow as an add.
  void forgetSwitch(net::NodeId sw) { mirrors_.erase(sw); }

  openflow::ControlChannel& channel() noexcept { return channel_; }

 private:
  using SwitchMirror = std::map<dz::DzExpression, net::FlowEntry>;

  void installOne(const dz::DzExpression& d, const RouteHop& hop);
  /// Cases 3 and 5 for the flows strictly inside `d`, whose flow now
  /// carries `covering`: a finer flow that `covering` subsumes is deleted;
  /// the others gain `added`'s actions, and one left equal to its nearest
  /// kept covering flow is deleted instead. A flow that already holds
  /// `added`'s actions keeps its entry and is sent nothing. True when any
  /// finer flow changed.
  bool updateFinerFlows(net::NodeId sw, const dz::DzExpression& d,
                        const net::FlowEntry& covering,
                        const net::FlowEntry& added);
  /// The required flows of `sw` under `roots`, keyed by dz, as the switch
  /// holds them: length-capped on a coarsened switch, actions merged per
  /// truncated key.
  std::map<dz::DzExpression, net::FlowEntry> projectRequired(
      net::NodeId sw, const PathRegistry& registry,
      const std::vector<dz::DzExpression>& roots) const;
  void apply(openflow::FlowModType type, net::NodeId sw, const dz::DzExpression& d,
             const net::FlowEntry& entry);
  /// The dz length cap installs to `sw` are truncated to (kMaxDzLength
  /// while the switch is uncoarsened).
  int lengthCapFor(net::NodeId sw) const;
  /// Coarsens `sw` until its mirror fits the budget (no-op within budget).
  void enforceBudget(net::NodeId sw);
  /// Rewrites `sw`'s mirror as the length-`cap` projection and emits the
  /// resulting flow-mod diff.
  void coarsenTo(net::NodeId sw, int cap);
  /// Hands the buffered mods to ControlChannel::sendBatch, which alone
  /// decides how they group into messages.
  void flushBatch();
  /// Flush point at the end of installPath / reconcileSwitch; deferred
  /// while a BatchScope is open.
  void maybeFlush() {
    if (batchDepth_ == 0) flushBatch();
  }

  openflow::ControlChannel& channel_;
  std::unordered_map<net::NodeId, SwitchMirror> mirrors_;
  /// Mods of the current installPath() / reconcileSwitch() call, or of the
  /// enclosing BatchScope, in apply() order. Empty while no scope is open.
  std::vector<openflow::FlowMod> batch_;
  int batchDepth_ = 0;

  std::size_t budget_ = 0;  ///< 0 = unlimited
  /// Sticky per-switch truncation lengths; absent while uncoarsened.
  std::unordered_map<net::NodeId, int> coarsenLen_;
  CaseStats caseStats_;
  CoarsenStats coarsenStats_;
};

}  // namespace pleroma::ctrl
