#include "controller/path_registry.hpp"

#include <algorithm>
#include <cassert>

#include "dz/ip_encoding.hpp"

namespace pleroma::ctrl {

const InstalledPath* PathRegistry::findPath(PathId id) const {
  const auto ti = treeOf_.find(id);
  if (ti == treeOf_.end()) return nullptr;
  return &byTree_.at(ti->second).at(id);
}

PathId PathRegistry::add(InstalledPath path) {
  const PathId id = next_++;
  path.id = id;
  for (const RouteHop& hop : path.hops) bySwitch_[hop.switchNode].insert(id);
  bySubscription_[path.subscription].insert(id);
  byPublisher_[path.publisher].insert(id);
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
  for (const RouteHop& hop : p.hops) {
    const auto bi = bySwitch_.find(hop.switchNode);
    if (bi != bySwitch_.end()) {
      bi->second.erase(id);
      if (bi->second.empty()) bySwitch_.erase(bi);
    }
  }
  auto dropFrom = [id](auto& index, std::int64_t key) {
    const auto ii = index.find(key);
    if (ii != index.end()) {
      ii->second.erase(id);
      if (ii->second.empty()) index.erase(ii);
    }
  };
  dropFrom(bySubscription_, p.subscription);
  dropFrom(byPublisher_, p.publisher);
  si->second.erase(it);
  if (si->second.empty()) byTree_.erase(si);
  treeOf_.erase(ti);
}

void PathRegistry::setDz(PathId id, dz::DzSet dz) {
  const auto ti = treeOf_.find(id);
  assert(ti != treeOf_.end());
  byTree_.at(ti->second).at(id).dz = std::move(dz);
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
  bySwitch_.clear();
  bySubscription_.clear();
  byPublisher_.clear();
}

std::vector<PathId> PathRegistry::sortedIds(
    const std::unordered_map<std::int64_t, std::unordered_set<PathId>>& index,
    std::int64_t key) {
  const auto it = index.find(key);
  if (it == index.end()) return {};
  std::vector<PathId> out(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathId> PathRegistry::pathsOfSubscription(SubscriptionId s) const {
  return sortedIds(bySubscription_, s);
}

std::vector<PathId> PathRegistry::pathsOfPublisher(PublisherId p) const {
  return sortedIds(byPublisher_, p);
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

std::vector<net::NodeId> PathRegistry::switchesOf(
    const std::vector<PathId>& ids) const {
  std::vector<net::NodeId> out;
  for (const PathId id : ids) {
    const InstalledPath* path = findPath(id);
    if (path == nullptr) continue;
    for (const RouteHop& hop : path->hops) out.push_back(hop.switchNode);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool PathRegistry::alreadyCovered(PublisherId p, SubscriptionId s, int treeId,
                                  const dz::DzSet& dz) const {
  const auto it = bySubscription_.find(s);
  if (it == bySubscription_.end()) return false;
  for (const PathId id : it->second) {
    const InstalledPath& path = *findPath(id);
    if (path.publisher == p && path.treeId == treeId && path.dz.coversSet(dz)) {
      return true;
    }
  }
  return false;
}

std::vector<net::FlowEntry> PathRegistry::requiredFlows(net::NodeId sw) const {
  // 1. Contributions: for each dz forwarded through this switch, the set of
  //    (out-port, rewrite) actions that need its traffic.
  std::map<dz::DzExpression, std::map<net::PortId, std::optional<dz::Ipv6Address>>>
      contrib;
  const auto bi = bySwitch_.find(sw);
  if (bi == bySwitch_.end()) return {};
  for (const PathId id : bi->second) {
    const InstalledPath& path = *findPath(id);
    for (const RouteHop& hop : path.hops) {
      if (hop.switchNode != sw) continue;
      for (const dz::DzExpression& d : path.dz) {
        auto& actions = contrib[d];
        auto [it, inserted] = actions.emplace(hop.outPort, hop.rewrite);
        if (!inserted && hop.rewrite) it->second = hop.rewrite;
      }
    }
  }

  // 2. Walk contributions in trie order (prefixes before what they cover),
  //    maintaining the chain of contributed prefixes of the current dz as a
  //    stack whose top carries the cumulative inherited action set.
  std::vector<net::FlowEntry> out;
  struct StackItem {
    dz::DzExpression d;
    std::map<net::PortId, std::optional<dz::Ipv6Address>> cumulative;
  };
  std::vector<StackItem> stack;

  for (const auto& [d, actions] : contrib) {
    while (!stack.empty() && !stack.back().d.covers(d)) stack.pop_back();

    const auto* inherited = stack.empty() ? nullptr : &stack.back().cumulative;

    // The flow for d is unnecessary iff every one of its actions is already
    // served by coarser contributed flows — then events in d are handled by
    // the prefix flow (the "downgrade" of Sec 3.3.3 falls out of this).
    bool redundant = inherited != nullptr;
    if (redundant) {
      for (const auto& [port, rewrite] : actions) {
        const auto it = inherited->find(port);
        if (it == inherited->end() || it->second != rewrite) {
          redundant = false;
          break;
        }
      }
    }

    std::map<net::PortId, std::optional<dz::Ipv6Address>> cumulative =
        inherited ? *inherited
                  : std::map<net::PortId, std::optional<dz::Ipv6Address>>{};
    for (const auto& [port, rewrite] : actions) {
      auto [it, inserted] = cumulative.emplace(port, rewrite);
      if (!inserted && rewrite) it->second = rewrite;
    }

    if (!redundant) {
      net::FlowEntry entry;
      entry.match = dz::dzToPrefix(d);
      entry.priority = d.length();
      for (const auto& [port, rewrite] : cumulative) {
        entry.actions.push_back(net::FlowAction{port, rewrite});
      }
      out.push_back(std::move(entry));
    }
    stack.push_back(StackItem{d, std::move(cumulative)});
  }
  return out;
}

std::vector<net::NodeId> PathRegistry::allSwitches() const {
  std::vector<net::NodeId> out;
  out.reserve(bySwitch_.size());
  for (const auto& [sw, ids] : bySwitch_) out.push_back(sw);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pleroma::ctrl
