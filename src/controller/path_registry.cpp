#include "controller/path_registry.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "dz/ip_encoding.hpp"

namespace pleroma::ctrl {

std::size_t PathRegistry::ContributionHash::operator()(
    const Contribution& c) const noexcept {
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(c.dz.length()) << 32) ^
      static_cast<std::uint32_t>(c.port);
  std::size_t h = dz::u128Hash(c.dz.bits(), salt);
  if (c.rewrite) h ^= dz::u128Hash(c.rewrite->value, h);
  return h;
}

void PathRegistry::countContributions(const std::vector<RouteHop>& hops,
                                      const std::vector<dz::DzExpression>& dz,
                                      int delta) {
  for (const RouteHop& hop : hops) countHop(hop, dz, delta);
}

void PathRegistry::countHop(const RouteHop& hop,
                            const std::vector<dz::DzExpression>& dz,
                            int delta) {
  const auto si = delta > 0 ? contributions_.try_emplace(hop.switchNode).first
                            : contributions_.find(hop.switchNode);
  assert(si != contributions_.end());
  SwitchContributions& contribs = si->second;
#ifndef NDEBUG
  if (recording_) touched_.push_back(hop.switchNode);
#endif
  for (const dz::DzExpression& d : dz) {
    const Contribution c{d, hop.outPort, hop.rewrite};
    if (delta > 0) {
      if (++contribs[c] == 1 && recording_) {
        changed_.emplace_back(hop.switchNode, d);
      }
      continue;
    }
    const auto ci = contribs.find(c);
    assert(ci != contribs.end() && ci->second > 0);
    if (--ci->second == 0) {
      contribs.erase(ci);
      if (recording_) changed_.emplace_back(hop.switchNode, d);
    }
  }
  if (contribs.empty()) contributions_.erase(si);
}

bool PathRegistry::counts(const dz::DzExpression& d,
                          const RouteHop& hop) const {
  const auto si = contributions_.find(hop.switchNode);
  return si != contributions_.end() &&
         si->second.contains(Contribution{d, hop.outPort, hop.rewrite});
}

std::size_t PathRegistry::RouteHash::operator()(
    const std::vector<RouteHop>& hops) const noexcept {
  std::uint64_t h = hops.size();
  for (const RouteHop& hop : hops) {
    h = dz::mix64(h ^ (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(hop.switchNode))
                       << 32) ^
                  static_cast<std::uint32_t>(hop.outPort));
    if (hop.rewrite) h = dz::u128Hash(hop.rewrite->value, h);
  }
  return static_cast<std::size_t>(h);
}

Route& PathRegistry::intern(std::vector<RouteHop> hops) {
  return *routes_.try_emplace(std::move(hops), 0).first;
}

void PathRegistry::release(Route& route) {
  assert(route.second > 0);
  if (--route.second == 0) routes_.erase(routes_.find(route.first));
}

void PathRegistry::fileUnderTree(std::uint32_t slot) {
  std::vector<std::uint32_t>& list = slotsOfTree_[slots_[slot].treeId];
  slots_[slot].treePos_ = static_cast<std::uint32_t>(list.size());
  list.push_back(slot);
}

void PathRegistry::unfileFromTree(std::uint32_t slot) {
  const auto it = slotsOfTree_.find(slots_[slot].treeId);
  assert(it != slotsOfTree_.end());
  std::vector<std::uint32_t>& list = it->second;
  const std::uint32_t pos = slots_[slot].treePos_;
  list[pos] = list.back();
  slots_[list[pos]].treePos_ = pos;
  list.pop_back();
  if (list.empty()) slotsOfTree_.erase(it);
}

PathId PathRegistry::file(PathSpec& spec, Route& route) {
  std::uint32_t slot;
  if (freeSlots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  }
  const PathId id = next_++;
  ++route.second;
  InstalledPath& path = slots_[slot];
  path.id = id;
  path.publisher = spec.publisher;
  path.subscription = spec.subscription;
  path.treeId = spec.treeId;
  path.dz = std::move(spec.dz);
  path.route_ = &route;
  fileUnderTree(slot);
  slotsOfSubscription_[path.subscription].push_back(slot);
  slotOf_.emplace(id, slot);
  return id;
}

PathId PathRegistry::add(PathSpec path) {
  assert(!path.dz.empty());
  Route& route = intern(std::move(path.hops));
  countContributions(route.first, path.dz.items(), +1);
  return file(path, route);
}

PathId PathRegistry::addOrExtend(PathSpec path) {
  assert(!path.dz.empty());
  Route& route = intern(std::move(path.hops));
  countContributions(route.first, path.dz.items(), +1);
  if (const auto refs = slotsOfSubscription_.find(path.subscription);
      refs != slotsOfSubscription_.end()) {
    for (const std::uint32_t slot : refs->second) {
      InstalledPath& p = slots_[slot];
      if (p.route_ != &route || p.publisher != path.publisher ||
          p.treeId != path.treeId) {
        continue;
      }
      // Merging siblings or dropping a covered member shrinks the union,
      // so it merges nothing iff it keeps every member of both sets.
      dz::DzSet merged = p.dz;
      merged.unionWith(path.dz);
      if (merged.size() == p.dz.size() + path.dz.size()) {
        p.dz = std::move(merged);
        return p.id;
      }
    }
  }
  return file(path, route);
}

void PathRegistry::remove(PathId id) {
  const auto it = slotOf_.find(id);
  if (it == slotOf_.end()) return;
  const std::uint32_t slot = it->second;
  slotOf_.erase(it);
  InstalledPath& p = slots_[slot];
  countContributions(p.hops(), p.dz.items(), -1);
  const auto refs = slotsOfSubscription_.find(p.subscription);
  assert(refs != slotsOfSubscription_.end());
  std::vector<std::uint32_t>& slots = refs->second;
  *std::find(slots.begin(), slots.end(), slot) = slots.back();
  slots.pop_back();
  if (slots.empty()) slotsOfSubscription_.erase(refs);
  unfileFromTree(slot);
  release(*p.route_);
  p = InstalledPath{};
  freeSlots_.push_back(slot);
}

void PathRegistry::setDz(PathId id, dz::DzSet dz) {
  assert(!dz.empty());
  InstalledPath& path = slots_[slotOf_.at(id)];
  // Members in both sets keep their counts; both member lists are sorted.
  std::vector<dz::DzExpression> gone;
  std::vector<dz::DzExpression> added;
  std::set_difference(path.dz.begin(), path.dz.end(), dz.begin(), dz.end(),
                      std::back_inserter(gone));
  std::set_difference(dz.begin(), dz.end(), path.dz.begin(), path.dz.end(),
                      std::back_inserter(added));
  countContributions(path.hops(), gone, -1);
  countContributions(path.hops(), added, +1);
  path.dz = std::move(dz);
}

PathId PathRegistry::move(PathId id, int treeId, std::vector<RouteHop> hops) {
  const auto it = slotOf_.find(id);
  assert(it != slotOf_.end());
  const std::uint32_t slot = it->second;
  slotOf_.erase(it);
  InstalledPath& path = slots_[slot];

  Route& route = intern(std::move(hops));
  if (&route != path.route_) {
    // Hops in both lists, paired one to one, keep their counts.
    const std::vector<RouteHop>& from = path.hops();
    const std::vector<RouteHop>& to = route.first;
    std::vector<bool> paired(to.size(), false);
    for (const RouteHop& hop : from) {
      std::size_t j = 0;
      while (j < to.size() && (paired[j] || to[j] != hop)) ++j;
      if (j < to.size()) {
        paired[j] = true;
      } else {
        countHop(hop, path.dz.items(), -1);
      }
    }
    for (std::size_t j = 0; j < to.size(); ++j) {
      if (!paired[j]) countHop(to[j], path.dz.items(), +1);
    }
    ++route.second;
    release(*path.route_);
    path.route_ = &route;
  }

  unfileFromTree(slot);
  path.treeId = treeId;
  fileUnderTree(slot);
  path.id = next_++;
  slotOf_.emplace(path.id, slot);
  return path.id;
}

std::size_t PathRegistry::stateBytes() const noexcept {
  std::size_t bytes = 0;
  for (const InstalledPath& path : slots_) {
    if (path.id < 0) continue;
    bytes += sizeof(InstalledPath) + path.dz.size() * sizeof(dz::DzExpression);
  }
  for (const auto& [hops, paths] : routes_) {
    bytes += sizeof(Route) + hops.size() * sizeof(RouteHop);
  }
  return bytes;
}

void PathRegistry::clear() {
  slots_.clear();
  freeSlots_.clear();
  slotOf_.clear();
  slotsOfTree_.clear();
  slotsOfSubscription_.clear();
  routes_.clear();
  contributions_.clear();
  recording_ = false;
  changed_.clear();
  touched_.clear();
}

PathRegistry::Changes PathRegistry::takeChanges() {
  recording_ = false;
  Changes out;
  std::sort(changed_.begin(), changed_.end());
  for (const auto& [sw, d] : changed_) {
    if (out.roots.empty() || out.roots.back().first != sw) {
      out.roots.emplace_back(sw, std::vector<dz::DzExpression>{});
    }
    // In trie order, a kept root covering d is the last one kept: every dz
    // between it and d lies in its subtree too.
    std::vector<dz::DzExpression>& roots = out.roots.back().second;
    if (roots.empty() || !roots.back().covers(d)) roots.push_back(d);
  }
  changed_.clear();
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  out.touched.swap(touched_);
  return out;
}

std::vector<PathId> PathRegistry::pathsOfSubscription(SubscriptionId s) const {
  const auto it = slotsOfSubscription_.find(s);
  if (it == slotsOfSubscription_.end()) return {};
  std::vector<PathId> out;
  out.reserve(it->second.size());
  for (const std::uint32_t slot : it->second) out.push_back(slots_[slot].id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> PathRegistry::pathsOfPublisher(PublisherId p) const {
  std::vector<PathId> out;
  for (const InstalledPath& path : slots_) {
    if (path.id >= 0 && path.publisher == p) out.push_back(path.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> PathRegistry::pathsOfTree(int treeId) const {
  const auto it = slotsOfTree_.find(treeId);
  if (it == slotsOfTree_.end()) return {};
  std::vector<PathId> out;
  out.reserve(it->second.size());
  for (const std::uint32_t slot : it->second) out.push_back(slots_[slot].id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<const std::vector<RouteHop>*, std::size_t>>
PathRegistry::routesOfTree(int treeId) const {
  const auto it = slotsOfTree_.find(treeId);
  if (it == slotsOfTree_.end()) return {};
  std::vector<const Route*> routes;
  routes.reserve(it->second.size());
  for (const std::uint32_t slot : it->second) routes.push_back(slots_[slot].route_);
  std::sort(routes.begin(), routes.end());
  std::vector<std::pair<const std::vector<RouteHop>*, std::size_t>> out;
  for (std::size_t i = 0; i < routes.size();) {
    std::size_t j = i + 1;
    while (j < routes.size() && routes[j] == routes[i]) ++j;
    out.emplace_back(&routes[i]->first, j - i);
    i = j;
  }
  return out;
}

bool PathRegistry::alreadyCovered(PublisherId p, SubscriptionId s, int treeId,
                                  const dz::DzSet& dz) const {
  const auto it = slotsOfSubscription_.find(s);
  if (it == slotsOfSubscription_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const std::uint32_t slot) {
                       const InstalledPath& path = slots_[slot];
                       return path.publisher == p && path.treeId == treeId &&
                              path.dz.coversSet(dz);
                     });
}

std::vector<net::FlowEntry> PathRegistry::requiredFlows(
    net::NodeId sw, const std::vector<dz::DzExpression>& roots) const {
  assert(std::adjacent_find(roots.begin(), roots.end(),
                            [](const auto& a, const auto& b) {
                              return !(a < b) || a.covers(b);
                            }) == roots.end());
  const auto si = contributions_.find(sw);
  if (si == contributions_.end()) return {};

  // 1. The contributions whose entries are wanted (under a root) or whose
  //    actions those entries inherit (above a root), in trie order
  //    (prefixes before what they cover), then by port, then by rewrite
  //    with none first. Only the first root not before a dz can lie in its
  //    subtree, and only the root before that one can cover it.
  struct Collected {
    const Contribution* c;
    bool under;
  };
  std::vector<Collected> sorted;
  for (const auto& [c, n] : si->second) {
    const auto next = std::lower_bound(roots.begin(), roots.end(), c.dz);
    if (next != roots.end() && c.dz.covers(*next)) {
      sorted.push_back({&c, c.dz == *next});
    } else if (next != roots.begin() && std::prev(next)->covers(c.dz)) {
      sorted.push_back({&c, true});
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Collected& a, const Collected& b) { return *a.c < *b.c; });
#ifndef NDEBUG
  // One (switch, port) leads to one host, so it carries at most one
  // rewrite; otherwise which rewrite wins below would be arbitrary.
  std::unordered_map<net::PortId, dz::Ipv6Address> rewriteOfPort;
  for (const Collected& k : sorted) {
    if (!k.c->rewrite) continue;
    const auto [it, fresh] = rewriteOfPort.emplace(k.c->port, *k.c->rewrite);
    assert(fresh || it->second == *k.c->rewrite);
  }
#endif

  // 2. Walk the dz groups, maintaining the chain of contributed prefixes of
  //    the current dz as a stack. Each level's cumulative action set (its
  //    own actions plus everything it inherits) is a port-sorted run of
  //    `chain`, starting at the level's `begin`; popping a level truncates.
  struct Level {
    dz::DzExpression d;
    std::size_t begin;
  };
  std::vector<net::FlowAction> own;
  std::vector<net::FlowAction> chain;
  std::vector<Level> stack;
  std::vector<net::FlowEntry> out;

  for (std::size_t i = 0; i < sorted.size();) {
    const dz::DzExpression d = sorted[i].c->dz;
    const bool wanted = sorted[i].under;
    // This dz's own actions, one per port. Within a port the rewrites sort
    // none-first, so a set rewrite overrides an unset one.
    own.clear();
    for (; i < sorted.size() && sorted[i].c->dz == d; ++i) {
      const Contribution& c = *sorted[i].c;
      if (own.empty() || own.back().port != c.port) {
        own.push_back(net::FlowAction{c.port, c.rewrite});
      } else if (c.rewrite) {
        own.back().setDestination = c.rewrite;
      }
    }

    while (!stack.empty() && !stack.back().d.covers(d)) {
      chain.resize(stack.back().begin);
      stack.pop_back();
    }
    const std::size_t inheritedBegin = stack.empty() ? chain.size()
                                                     : stack.back().begin;
    const std::size_t inheritedEnd = chain.size();

    // The flow for d is unnecessary iff every one of its actions is already
    // served by coarser contributed flows — then events in d are handled by
    // the prefix flow (the "downgrade" of Sec 3.3.3 falls out of this).
    // Both runs are port-sorted, so one merge pass decides redundancy and
    // builds d's cumulative run at the end of `chain`.
    bool redundant = !stack.empty();
    std::size_t j = inheritedBegin;
    for (const net::FlowAction& a : own) {
      while (j < inheritedEnd && chain[j].port < a.port) chain.push_back(chain[j++]);
      if (j < inheritedEnd && chain[j].port == a.port) {
        const net::FlowAction inherited = chain[j++];
        if (a.setDestination != inherited.setDestination) redundant = false;
        chain.push_back(a.setDestination ? a : inherited);
      } else {
        redundant = false;
        chain.push_back(a);
      }
    }
    while (j < inheritedEnd) chain.push_back(chain[j++]);

    if (wanted && !redundant) {
      net::FlowEntry entry;
      entry.match = dz::dzToPrefix(d);
      entry.priority = d.length();
      for (std::size_t k = inheritedEnd; k < chain.size(); ++k) {
        entry.actions.push_back(chain[k]);
      }
      out.push_back(std::move(entry));
    }
    stack.push_back(Level{d, inheritedEnd});
  }
  return out;
}

std::vector<net::NodeId> PathRegistry::allSwitches() const {
  std::vector<net::NodeId> out;
  out.reserve(contributions_.size());
  for (const auto& [sw, contribs] : contributions_) out.push_back(sw);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pleroma::ctrl
