#include "controller/flow_installer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "controller/path_registry.hpp"

namespace pleroma::ctrl {

namespace {

/// Action-subset half of the flow containment relation (Sec 3.3.2): every
/// action of fl2 appears in fl1 (same port and, for terminal actions, the
/// same rewrite).
bool actionsSubset(const net::FlowEntry& fl2, const net::FlowEntry& fl1) {
  return std::all_of(fl2.actions.begin(), fl2.actions.end(),
                     [&](const net::FlowAction& a2) {
                       return std::any_of(fl1.actions.begin(), fl1.actions.end(),
                                          [&](const net::FlowAction& a1) {
                                            return a1 == a2;
                                          });
                     });
}

void mergeActions(net::FlowEntry& into, const net::FlowEntry& from) {
  for (const net::FlowAction& a : from.actions) {
    into.addOutPort(a.port, a.setDestination);
  }
}

}  // namespace

const std::map<dz::DzExpression, net::FlowEntry>& FlowInstaller::mirror(
    net::NodeId sw) const {
  static const SwitchMirror kEmpty;
  const auto it = mirrors_.find(sw);
  return it == mirrors_.end() ? kEmpty : it->second;
}

void FlowInstaller::apply(openflow::FlowModType type, net::NodeId sw,
                          const dz::DzExpression& d, const net::FlowEntry& entry) {
  // Callers pass references into the mirror itself (e.g. m.at(key) for a
  // delete), so the FlowMod must be built before the mirror mutation below
  // invalidates `entry`.
  batch_.push_back({type, sw, entry});
  SwitchMirror& m = mirrors_[sw];
  switch (type) {
    case openflow::FlowModType::kAdd:
    case openflow::FlowModType::kModify:
      m[d] = entry;
      break;
    case openflow::FlowModType::kDelete:
      m.erase(d);
      break;
  }
}

void FlowInstaller::flushBatch() {
  channel_.sendBatch(batch_);
  batch_.clear();
}

void FlowInstaller::installPath(const dz::DzSet& dzSet,
                                const std::vector<RouteHop>& hops,
                                const PathRegistry* counted) {
  assert(batchDepth_ > 0 || batch_.empty());
  for (const dz::DzExpression& d : dzSet) {
    for (const RouteHop& hop : hops) {
      if (counted != nullptr && counted->counts(d, hop)) {
        assert(forwards(d, hop));
        ++caseStats_.covered;
        continue;
      }
      installOne(d, hop);
    }
  }
  // Within-budget switches exit on a size check; over-budget ones coarsen.
  for (const RouteHop& hop : hops) enforceBudget(hop.switchNode);
  maybeFlush();
}

bool FlowInstaller::forwards(const dz::DzExpression& dRaw,
                             const RouteHop& hop) const {
  const auto mit = mirrors_.find(hop.switchNode);
  if (mit == mirrors_.end()) return false;
  const SwitchMirror& m = mit->second;
  const dz::DzExpression d = dRaw.truncated(lengthCapFor(hop.switchNode));
  const net::FlowAction action{hop.outPort, hop.rewrite};
  for (int len = d.length(); len >= 0; --len) {
    const auto it = m.find(d.prefix(len));
    if (it == m.end()) continue;
    const auto& actions = it->second.actions;
    return std::find(actions.begin(), actions.end(), action) != actions.end();
  }
  return false;
}

void FlowInstaller::installOne(const dz::DzExpression& dRaw, const RouteHop& hop) {
  // A coarsened switch accepts no entry finer than its truncation length:
  // the piece folds into its prefix (actions merge below via case 4).
  const dz::DzExpression d = dRaw.truncated(lengthCapFor(hop.switchNode));
  net::FlowEntry fln;
  fln.match = dz::dzToPrefix(d);
  fln.priority = d.length();
  fln.actions.push_back(net::FlowAction{hop.outPort, hop.rewrite});

  SwitchMirror& m = mirrors_[hop.switchNode];

  // Exact-dz flow already present: extend its instruction set in place.
  // The new actions must also propagate to every finer flow this one
  // covers (case 5): those flows shadow it in the TCAM, so without the
  // propagation events in their subspace would miss the new destination.
  if (const auto exact = m.find(d); exact != m.end()) {
    if (actionsSubset(fln, exact->second)) {
      ++caseStats_.covered;
      return;  // case 2, identical dz
    }
    net::FlowEntry updated = exact->second;
    mergeActions(updated, fln);
    ++caseStats_.extend;
    apply(openflow::FlowModType::kModify, hop.switchNode, d, updated);
    updateFinerFlows(hop.switchNode, d, updated, fln);
    return;
  }

  // Coarser flows: walk the proper prefixes of d present in the mirror.
  std::vector<const net::FlowEntry*> coarser;
  for (int len = 0; len < d.length(); ++len) {
    const auto it = m.find(d.prefix(len));
    if (it != m.end()) coarser.push_back(&it->second);
  }
  // Case 2: some coarser flow fully covers the new one — nothing to do.
  for (const net::FlowEntry* fle : coarser) {
    if (actionsSubset(fln, *fle)) {
      ++caseStats_.covered;
      return;
    }
  }
  // Case 4: coarser flows exist with other ports — the new (finer,
  // higher-priority) flow must forward to their ports too, because only the
  // first match is applied.
  if (!coarser.empty()) ++caseStats_.extend;
  for (const net::FlowEntry* fle : coarser) mergeActions(fln, *fle);

  // Finer flows: the contiguous trie range covered by d.
  const bool finerChanged = updateFinerFlows(hop.switchNode, d, fln, fln);
  // Case 1 (or the add concluding cases 3-5).
  if (coarser.empty() && !finerChanged) ++caseStats_.freshAdd;
  apply(openflow::FlowModType::kAdd, hop.switchNode, d, fln);
}

bool FlowInstaller::updateFinerFlows(net::NodeId sw, const dz::DzExpression& d,
                                     const net::FlowEntry& covering,
                                     const net::FlowEntry& added) {
  const SwitchMirror& m = mirrors_[sw];
  auto it = m.upper_bound(d);
  if (it == m.end() || !d.covers(it->first)) return false;
  std::vector<dz::DzExpression> toDelete;
  std::vector<std::pair<dz::DzExpression, net::FlowEntry>> toModify;
  // The kept flows covering the current one, innermost last, each with the
  // actions it will carry: its mirror entry's or, once modified, those of
  // toModify[modified].
  struct Kept {
    dz::DzExpression d;
    const net::ActionList* unchanged;
    std::size_t modified;
  };
  std::vector<Kept> chain{{d, &covering.actions, 0}};
  const auto keptActions = [&toModify](const Kept& k) -> const net::ActionList& {
    return k.unchanged != nullptr ? *k.unchanged : toModify[k.modified].second.actions;
  };
  for (; it != m.end() && d.covers(it->first); ++it) {
    while (!chain.back().d.covers(it->first)) chain.pop_back();
    // Case 3: the covering flow subsumes this finer flow — delete it.
    if (actionsSubset(it->second, covering)) {
      toDelete.push_back(it->first);
      continue;
    }
    // Case 5: the finer flow shadows the covering one for its subspace, so
    // it must additionally forward to the added actions; one that already
    // does is sent nothing. Left equal to its nearest kept covering flow, it
    // is redundant: that flow forwards its subspace alike, so it is deleted
    // instead.
    if (actionsSubset(added, it->second)) {
      if (it->second.actions == keptActions(chain.back())) {
        toDelete.push_back(it->first);
      } else {
        chain.push_back({it->first, &it->second.actions, 0});
      }
      continue;
    }
    net::FlowEntry merged = it->second;
    mergeActions(merged, added);
    if (merged.actions == keptActions(chain.back())) {
      toDelete.push_back(it->first);
    } else {
      toModify.emplace_back(it->first, std::move(merged));
      chain.push_back({it->first, nullptr, toModify.size() - 1});
    }
  }
  for (const dz::DzExpression& key : toDelete) {
    ++caseStats_.subsumedDelete;
    apply(openflow::FlowModType::kDelete, sw, key, m.at(key));
  }
  for (auto& [key, entry] : toModify) {
    ++caseStats_.shadowModify;
    apply(openflow::FlowModType::kModify, sw, key, entry);
  }
  return !toDelete.empty() || !toModify.empty();
}

void FlowInstaller::reconcileSwitch(net::NodeId sw, const PathRegistry& registry,
                                    std::vector<dz::DzExpression> roots) {
  assert(batchDepth_ > 0 || batch_.empty());
  ++caseStats_.reconcilePasses;
  SwitchMirror& m = mirrors_[sw];
  // A coarsened switch holds the length-capped projection of the required
  // flows, so a root finer than the cap stands for the whole subtree of its
  // truncation. Truncation keeps minimal roots in trie order; it can only
  // make neighbours equal.
  const int cap = lengthCapFor(sw);
  for (dz::DzExpression& root : roots) root = root.truncated(cap);
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  const SwitchMirror wanted = projectRequired(sw, registry, roots);

  std::vector<dz::DzExpression> toDelete;
  std::vector<std::pair<dz::DzExpression, const net::FlowEntry*>> toModify;
  for (const dz::DzExpression& root : roots) {
    for (auto it = m.lower_bound(root); it != m.end() && root.covers(it->first);
         ++it) {
      const auto w = wanted.find(it->first);
      if (w == wanted.end()) {
        toDelete.push_back(it->first);
      } else if (w->second != it->second) {
        toModify.emplace_back(it->first, &w->second);
      }
    }
  }
  for (const dz::DzExpression& d : toDelete) {
    apply(openflow::FlowModType::kDelete, sw, d, m.at(d));
  }
  for (const auto& [d, entry] : toModify) {
    apply(openflow::FlowModType::kModify, sw, d, *entry);
  }
  for (const auto& [d, entry] : wanted) {
    if (!m.contains(d)) apply(openflow::FlowModType::kAdd, sw, d, entry);
  }
  enforceBudget(sw);
  maybeFlush();
}

FlowInstaller::SwitchMirror FlowInstaller::projectRequired(
    net::NodeId sw, const PathRegistry& registry,
    const std::vector<dz::DzExpression>& roots) const {
  // Required flows are exact intent; a coarsened switch holds their
  // length-capped projection instead (actions union per truncated key), so
  // a reconcile pass never resurrects entries past the budget.
  const int cap = lengthCapFor(sw);
  SwitchMirror wanted;
  for (const net::FlowEntry& e : registry.requiredFlows(sw, roots)) {
    const auto dOpt = dz::prefixToDz(e.match);
    assert(dOpt.has_value());
    const dz::DzExpression d = dOpt->truncated(cap);
    const auto [it, fresh] = wanted.try_emplace(d, e);
    if (d.length() != dOpt->length() && fresh) {
      it->second.match = dz::dzToPrefix(d);
      it->second.priority = d.length();
    } else if (!fresh) {
      mergeActions(it->second, e);
    }
  }
  return wanted;
}

bool FlowInstaller::mirrorsRequired(net::NodeId sw,
                                    const PathRegistry& registry) const {
  return mirror(sw) == projectRequired(sw, registry, {dz::DzExpression{}});
}

// ---- TCAM budget / coarsening (Sec 3 + Sec 5) -----------------------------

int FlowInstaller::coarsenLength(net::NodeId sw) const {
  const auto it = coarsenLen_.find(sw);
  return it != coarsenLen_.end() ? it->second : -1;
}

int FlowInstaller::lengthCapFor(net::NodeId sw) const {
  const auto it = coarsenLen_.find(sw);
  return it != coarsenLen_.end() ? it->second : dz::kMaxDzLength;
}

std::size_t FlowInstaller::totalMirrorEntries() const noexcept {
  std::size_t total = 0;
  for (const auto& [sw, m] : mirrors_) total += m.size();
  return total;
}

std::size_t FlowInstaller::stateBytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [sw, m] : mirrors_) {
    for (const auto& [d, entry] : m) {
      bytes += sizeof(dz::DzExpression) + sizeof(net::FlowEntry);
      bytes += entry.actions.size() * sizeof(net::FlowAction);
    }
  }
  return bytes;
}

void FlowInstaller::enforceBudget(net::NodeId sw) {
  if (budget_ == 0) return;
  const auto mit = mirrors_.find(sw);
  if (mit == mirrors_.end() || mit->second.size() <= budget_) return;
  const SwitchMirror& m = mit->second;

  // Entries sharing a length-L prefix are adjacent in trie order, so the
  // projected entry count is the number of truncation-distinct neighbours.
  const auto projectedCount = [&m](int len) {
    std::size_t count = 0;
    std::optional<dz::DzExpression> prev;
    for (const auto& [d, e] : m) {
      dz::DzExpression t = d.truncated(len);
      if (!prev.has_value() || !(*prev == t)) ++count;
      prev = t;
    }
    return count;
  };

  int maxLen = 0;
  for (const auto& [d, e] : m) maxLen = std::max(maxLen, d.length());
  // The longest truncation length that fits: precision degrades no more
  // than the budget demands. projectedCount(0) == 1, so the loop ends.
  int cap = maxLen - 1;
  while (cap > 0 && projectedCount(cap) > budget_) --cap;
  coarsenTo(sw, cap);
}

void FlowInstaller::coarsenTo(net::NodeId sw, int cap) {
  SwitchMirror& m = mirrors_[sw];
  const std::size_t before = m.size();
  double volumeBefore = 0.0;
  std::map<dz::DzExpression, net::FlowEntry> projected;
  for (const auto& [d, e] : m) {
    volumeBefore += std::ldexp(1.0, -d.length());
    const dz::DzExpression t = d.truncated(cap);
    const auto [it, fresh] = projected.try_emplace(t, e);
    if (fresh) {
      it->second.match = dz::dzToPrefix(t);
      it->second.priority = t.length();
    } else {
      mergeActions(it->second, e);
    }
  }
  double volumeAfter = 0.0;
  for (const auto& [d, e] : projected) volumeAfter += std::ldexp(1.0, -d.length());

  std::vector<dz::DzExpression> toDelete;
  for (const auto& [d, e] : m) {
    if (!projected.contains(d)) toDelete.push_back(d);
  }
  for (const dz::DzExpression& d : toDelete) {
    apply(openflow::FlowModType::kDelete, sw, d, m.at(d));
  }
  for (const auto& [d, e] : projected) {
    const auto cur = m.find(d);
    if (cur == m.end()) {
      apply(openflow::FlowModType::kAdd, sw, d, e);
    } else if (cur->second != e) {
      apply(openflow::FlowModType::kModify, sw, d, e);
    }
  }

  coarsenLen_[sw] = cap;
  ++coarsenStats_.events;
  coarsenStats_.entriesCollapsed += before - m.size();
  coarsenStats_.addedVolume += volumeAfter - volumeBefore;
}

}  // namespace pleroma::ctrl
