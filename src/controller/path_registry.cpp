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

PathId PathRegistry::add(InstalledPath path) {
  assert(!path.dz.empty());
  const PathId id = next_++;
  path.id = id;
  countContributions(path.hops, path.dz.items(), +1);
  bySubscription_[path.subscription].push_back(
      PathRef{id, path.publisher, path.treeId});
  treeOf_.emplace(id, path.treeId);
  byTree_[path.treeId].emplace(id, std::move(path));
  return id;
}

void PathRegistry::remove(PathId id) {
  const auto ti = treeOf_.find(id);
  if (ti == treeOf_.end()) return;
  const auto si = byTree_.find(ti->second);
  assert(si != byTree_.end());
  const auto it = si->second.find(id);
  assert(it != si->second.end());
  const InstalledPath& p = it->second;
  countContributions(p.hops, p.dz.items(), -1);
  const auto refs = bySubscription_.find(p.subscription);
  assert(refs != bySubscription_.end());
  refIn(refs->second, id) = refs->second.back();
  refs->second.pop_back();
  if (refs->second.empty()) bySubscription_.erase(refs);
  si->second.erase(it);
  if (si->second.empty()) byTree_.erase(si);
  treeOf_.erase(ti);
}

void PathRegistry::setDz(PathId id, dz::DzSet dz) {
  assert(!dz.empty());
  const auto ti = treeOf_.find(id);
  assert(ti != treeOf_.end());
  InstalledPath& path = byTree_.at(ti->second).at(id);
  // Members in both sets keep their counts; both member lists are sorted.
  std::vector<dz::DzExpression> gone;
  std::vector<dz::DzExpression> added;
  std::set_difference(path.dz.begin(), path.dz.end(), dz.begin(), dz.end(),
                      std::back_inserter(gone));
  std::set_difference(dz.begin(), dz.end(), path.dz.begin(), path.dz.end(),
                      std::back_inserter(added));
  countContributions(path.hops, gone, -1);
  countContributions(path.hops, added, +1);
  path.dz = std::move(dz);
}

PathId PathRegistry::move(PathId id, int treeId, std::vector<RouteHop> hops) {
  const auto ti = treeOf_.find(id);
  assert(ti != treeOf_.end());
  const auto si = byTree_.find(ti->second);
  auto node = si->second.extract(id);
  if (si->second.empty()) byTree_.erase(si);
  treeOf_.erase(ti);
  InstalledPath& path = node.mapped();

  // Hops in both lists, paired one to one, keep their counts.
  std::vector<bool> paired(hops.size(), false);
  for (const RouteHop& hop : path.hops) {
    std::size_t j = 0;
    while (j < hops.size() && (paired[j] || hops[j] != hop)) ++j;
    if (j < hops.size()) {
      paired[j] = true;
    } else {
      countHop(hop, path.dz.items(), -1);
    }
  }
  for (std::size_t j = 0; j < hops.size(); ++j) {
    if (!paired[j]) countHop(hops[j], path.dz.items(), +1);
  }
  path.hops = std::move(hops);

  const PathId fresh = next_++;
  PathRef& ref = refIn(bySubscription_.at(path.subscription), id);
  ref.id = fresh;
  ref.treeId = treeId;
  path.id = fresh;
  path.treeId = treeId;
  node.key() = fresh;
  treeOf_.emplace(fresh, treeId);
  byTree_[treeId].insert(std::move(node));
  return fresh;
}

std::size_t PathRegistry::stateBytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [treeId, paths] : byTree_) {
    for (const auto& [id, path] : paths) {
      bytes += sizeof(InstalledPath);
      bytes += path.hops.size() * sizeof(RouteHop);
      bytes += path.dz.size() * sizeof(dz::DzExpression);
    }
  }
  return bytes;
}

void PathRegistry::clear() {
  byTree_.clear();
  treeOf_.clear();
  contributions_.clear();
  bySubscription_.clear();
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

PathRegistry::PathRef& PathRegistry::refIn(std::vector<PathRef>& refs,
                                           PathId id) {
  const auto it = std::find_if(refs.begin(), refs.end(),
                               [id](const PathRef& r) { return r.id == id; });
  assert(it != refs.end());
  return *it;
}

std::vector<PathId> PathRegistry::pathsOfSubscription(SubscriptionId s) const {
  const auto it = bySubscription_.find(s);
  if (it == bySubscription_.end()) return {};
  std::vector<PathId> out;
  out.reserve(it->second.size());
  for (const PathRef& ref : it->second) out.push_back(ref.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> PathRegistry::pathsOfPublisher(PublisherId p) const {
  std::vector<PathId> out;
  for (const auto& [treeId, paths] : byTree_) {
    for (const auto& [id, path] : paths) {
      if (path.publisher == p) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> PathRegistry::pathsOfTree(int treeId) const {
  const auto it = byTree_.find(treeId);
  if (it == byTree_.end()) return {};
  std::vector<PathId> out;
  out.reserve(it->second.size());
  for (const auto& [id, path] : it->second) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

bool PathRegistry::alreadyCovered(PublisherId p, SubscriptionId s, int treeId,
                                  const dz::DzSet& dz) const {
  const auto it = bySubscription_.find(s);
  if (it == bySubscription_.end()) return false;
  for (const PathRef& ref : it->second) {
    if (ref.publisher == p && ref.treeId == treeId &&
        byTree_.at(treeId).at(ref.id).dz.coversSet(dz)) {
      return true;
    }
  }
  return false;
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
