#include "controller/tree.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace pleroma::ctrl {

SpanningTree::SpanningTree(int id, dz::DzSet dzSet, net::NodeId root,
                           const net::Topology& topology,
                           const std::vector<net::LinkId>& allowedLinks,
                           const std::vector<net::SimTime>* linkCosts)
    : id_(id), root_(root) {
  rebuild(id, std::move(dzSet), root, topology, allowedLinks, linkCosts);
}

void SpanningTree::rebuild(int id, dz::DzSet dzSet, net::NodeId root,
                           const net::Topology& topology,
                           const std::vector<net::LinkId>& allowedLinks,
                           const std::vector<net::SimTime>* linkCosts) {
  assert(topology.isSwitch(root));
  assert(!linkCosts || linkCosts->size() ==
                           static_cast<std::size_t>(topology.linkCount()));
  id_ = id;
  dzSet_ = std::move(dzSet);
  root_ = root;
  publishers_.clear();
  const auto n = static_cast<std::size_t>(topology.nodeCount());
  parentNode_.assign(n, net::kInvalidNode);
  parentLink_.assign(n, net::kInvalidLink);

  allowed_.assign(static_cast<std::size_t>(topology.linkCount()), 0);
  for (const net::LinkId lid : allowedLinks) {
    allowed_[static_cast<std::size_t>(lid)] = 1;
  }

  // Dijkstra over switches restricted to the partition's internal links.
  // Scratch vectors are members: assign() reuses their capacity, so a
  // pooled tree's rebuild on an unchanged topology allocates nothing.
  dist_.assign(n, std::numeric_limits<net::SimTime>::max());
  heap_.clear();
  dist_[static_cast<std::size_t>(root)] = 0;
  heap_.emplace_back(0, root);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[static_cast<std::size_t>(u)]) continue;
    // Walk portLinks directly: portsOf() materialises a vector per call,
    // which would defeat the allocation-free rebuild.
    for (const net::LinkId lid : topology.node(u).portLinks) {
      if (lid == net::kInvalidLink) continue;
      if (allowed_[static_cast<std::size_t>(lid)] == 0) continue;
      const net::Link& l = topology.link(lid);
      const net::NodeId v = l.peerOf(u).node;
      if (!topology.isSwitch(v)) continue;
      const net::SimTime cost =
          linkCosts ? (*linkCosts)[static_cast<std::size_t>(lid)] : l.latency;
      const net::SimTime nd = d + cost;
      if (nd < dist_[static_cast<std::size_t>(v)]) {
        dist_[static_cast<std::size_t>(v)] = nd;
        parentNode_[static_cast<std::size_t>(v)] = u;
        parentLink_[static_cast<std::size_t>(v)] = lid;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
    }
  }
  // Mark reachability of the root itself (parent invalid but distinct from
  // unreachable) via dist; store it implicitly: reaches() checks dist via
  // parent arrays, so record root reachability in reachable_ bitmapless way:
  // root has parentNode == kInvalidNode like unreachable nodes, so keep a
  // separate note by pointing the root's parentNode at itself.
  parentNode_[static_cast<std::size_t>(root)] = root;
}

void SpanningTree::addPublisher(PublisherId p, const dz::DzSet& overlap) {
  const auto it = std::lower_bound(
      publishers_.begin(), publishers_.end(), p,
      [](const PublisherEntry& e, PublisherId v) { return e.first < v; });
  if (it != publishers_.end() && it->first == p) {
    it->second.unionWith(overlap);
  } else {
    publishers_.emplace(it, p, overlap);
  }
}

void SpanningTree::removePublisher(PublisherId p) {
  const auto it = std::lower_bound(
      publishers_.begin(), publishers_.end(), p,
      [](const PublisherEntry& e, PublisherId v) { return e.first < v; });
  if (it != publishers_.end() && it->first == p) publishers_.erase(it);
}

bool SpanningTree::hasPublisher(PublisherId p) const {
  const auto it = std::lower_bound(
      publishers_.begin(), publishers_.end(), p,
      [](const PublisherEntry& e, PublisherId v) { return e.first < v; });
  return it != publishers_.end() && it->first == p;
}

bool SpanningTree::reaches(net::NodeId switchNode) const noexcept {
  return parentNode_[static_cast<std::size_t>(switchNode)] != net::kInvalidNode;
}

std::vector<net::NodeId> SpanningTree::pathBetween(net::NodeId from,
                                                   net::NodeId to) const {
  assert(reaches(from) && reaches(to));
  if (from == to) return {from};

  // Walk both nodes to the root, then splice at the lowest common ancestor.
  auto chainToRoot = [&](net::NodeId start) {
    std::vector<net::NodeId> chain{start};
    net::NodeId cur = start;
    while (cur != root_) {
      cur = parentNode_[static_cast<std::size_t>(cur)];
      chain.push_back(cur);
    }
    return chain;
  };
  std::vector<net::NodeId> path = chainToRoot(from);
  const std::vector<net::NodeId> upTo = chainToRoot(to);

  // Both chains end in the LCA's own chain to the root: drop that common
  // tail but for the LCA, then descend to `to` (reverse of upTo's prefix).
  std::size_t i = path.size() - 1;
  std::size_t j = upTo.size() - 1;
  while (i > 0 && j > 0 && path[i - 1] == upTo[j - 1]) {
    --i;
    --j;
  }
  path.resize(i + 1);
  while (j-- > 0) path.push_back(upTo[j]);
  return path;
}

std::vector<RouteHop> SpanningTree::route(const Endpoint& publisher,
                                          const Endpoint& subscriber,
                                          const net::Topology& topology) const {
  if (!reaches(publisher.attachSwitch) || !reaches(subscriber.attachSwitch)) {
    return {};
  }
  const std::vector<net::NodeId> nodes =
      pathBetween(publisher.attachSwitch, subscriber.attachSwitch);
  // Exactly one hop per switch on the path: the registry keeps this
  // vector, so it gets no spare capacity.
  std::vector<RouteHop> hops;
  hops.reserve(nodes.size());
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    // Out-port of nodes[i] toward nodes[i+1]: the tree edge between them is
    // one of the two parent links (whichever of the pair is the child).
    const net::NodeId a = nodes[i];
    const net::NodeId b = nodes[i + 1];
    const net::LinkId lid =
        parentNode_[static_cast<std::size_t>(a)] == b
            ? parentLink_[static_cast<std::size_t>(a)]
            : parentLink_[static_cast<std::size_t>(b)];
    assert(lid != net::kInvalidLink);
    hops.push_back(RouteHop{a, topology.link(lid).endOf(a).port, std::nullopt});
  }
  // Terminal hop: out of the subscriber's attachment port, rewriting the
  // destination for real hosts.
  hops.push_back(
      RouteHop{subscriber.attachSwitch, subscriber.port, subscriber.rewrite});
  return hops;
}

std::vector<net::LinkId> SpanningTree::edges() const {
  std::vector<net::LinkId> out;
  for (std::size_t i = 0; i < parentLink_.size(); ++i) {
    if (parentLink_[i] != net::kInvalidLink) out.push_back(parentLink_[i]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace pleroma::ctrl
