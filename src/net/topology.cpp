#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

namespace pleroma::net {

NodeId Topology::addSwitch(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "R" + std::to_string(id);
  nodes_.push_back(Node{NodeKind::kSwitch, std::move(name), {}});
  return id;
}

NodeId Topology::addHost(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "h" + std::to_string(id);
  nodes_.push_back(Node{NodeKind::kHost, std::move(name), {}});
  return id;
}

PortId Topology::allocatePort(NodeId node, LinkId link) {
  auto& ports = nodes_[static_cast<std::size_t>(node)].portLinks;
  ports.push_back(link);
  return static_cast<PortId>(ports.size());  // 1-based
}

LinkId Topology::connect(NodeId a, NodeId b, SimTime latency, double bandwidthBps) {
  assert(a != b);
  const LinkId id = static_cast<LinkId>(links_.size());
  Link link;
  link.latency = latency;
  link.bandwidthBps = bandwidthBps;
  link.a = LinkEnd{a, allocatePort(a, id)};
  link.b = LinkEnd{b, allocatePort(b, id)};
  links_.push_back(link);
  return id;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodeCount(); ++id) {
    if (isSwitch(id)) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodeCount(); ++id) {
    if (isHost(id)) out.push_back(id);
  }
  return out;
}

LinkId Topology::linkAt(NodeId node, PortId port) const {
  const auto& ports = nodes_[static_cast<std::size_t>(node)].portLinks;
  if (port < 1 || port > static_cast<PortId>(ports.size())) return kInvalidLink;
  return ports[static_cast<std::size_t>(port - 1)];
}

LinkEnd Topology::peer(NodeId node, PortId port) const {
  const LinkId lid = linkAt(node, port);
  assert(lid != kInvalidLink);
  return links_[static_cast<std::size_t>(lid)].peerOf(node);
}

std::vector<std::pair<PortId, LinkId>> Topology::portsOf(NodeId node) const {
  std::vector<std::pair<PortId, LinkId>> out;
  const auto& ports = nodes_[static_cast<std::size_t>(node)].portLinks;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    out.emplace_back(static_cast<PortId>(i + 1), ports[i]);
  }
  return out;
}

Topology::Attachment Topology::hostAttachment(NodeId host) const {
  assert(isHost(host));
  const auto& ports = nodes_[static_cast<std::size_t>(host)].portLinks;
  assert(ports.size() == 1);
  const Link& l = links_[static_cast<std::size_t>(ports[0])];
  const LinkEnd sw = l.peerOf(host);
  return Attachment{sw.node, sw.port, l.endOf(host).port};
}

Topology::ShortestPaths Topology::shortestPathsFrom(NodeId source) const {
  ShortestPaths sp;
  sp.source = source;
  const auto n = static_cast<std::size_t>(nodeCount());
  sp.distance.assign(n, std::numeric_limits<SimTime>::max());
  sp.parentLink.assign(n, kInvalidLink);
  sp.parentNode.assign(n, kInvalidNode);
  using Item = std::pair<SimTime, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  sp.distance[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > sp.distance[static_cast<std::size_t>(u)]) continue;
    for (const LinkId lid : nodes_[static_cast<std::size_t>(u)].portLinks) {
      const Link& l = links_[static_cast<std::size_t>(lid)];
      const NodeId v = l.peerOf(u).node;
      // Hosts never relay traffic: do not route *through* a host.
      if (isHost(u) && u != source) continue;
      const SimTime nd = d + l.latency;
      if (nd < sp.distance[static_cast<std::size_t>(v)]) {
        sp.distance[static_cast<std::size_t>(v)] = nd;
        sp.parentLink[static_cast<std::size_t>(v)] = lid;
        sp.parentNode[static_cast<std::size_t>(v)] = u;
        heap.emplace(nd, v);
      }
    }
  }
  return sp;
}

std::vector<NodeId> Topology::shortestPath(NodeId src, NodeId dst) const {
  const ShortestPaths sp = shortestPathsFrom(src);
  if (sp.distance[static_cast<std::size_t>(dst)] ==
      std::numeric_limits<SimTime>::max()) {
    return {};
  }
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != kInvalidNode; cur = sp.parentNode[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Topology Topology::testbedFatTree(SimTime linkLatency, double bandwidthBps) {
  return fatTree(/*core=*/2, /*aggregation=*/4, /*edgePerAgg=*/1,
                 /*hostsPerEdge=*/2, linkLatency, bandwidthBps);
}

Topology Topology::fatTree(int core, int aggregation, int edgePerAgg,
                           int hostsPerEdge, SimTime linkLatency,
                           double bandwidthBps) {
  assert(core >= 1 && aggregation >= 1 && edgePerAgg >= 1 && hostsPerEdge >= 0);
  Topology t;
  std::vector<NodeId> cores, aggs;
  int label = 1;
  for (int i = 0; i < core; ++i) {
    cores.push_back(t.addSwitch("R" + std::to_string(label++)));
  }
  for (int i = 0; i < aggregation; ++i) {
    aggs.push_back(t.addSwitch("R" + std::to_string(label++)));
  }
  std::vector<NodeId> edges;
  for (int i = 0; i < aggregation * edgePerAgg; ++i) {
    edges.push_back(t.addSwitch("R" + std::to_string(label++)));
  }
  for (const NodeId c : cores) {
    for (const NodeId a : aggs) t.connect(c, a, linkLatency, bandwidthBps);
  }
  for (int i = 0; i < aggregation; ++i) {
    for (int j = 0; j < edgePerAgg; ++j) {
      t.connect(aggs[static_cast<std::size_t>(i)],
                edges[static_cast<std::size_t>(i * edgePerAgg + j)], linkLatency, bandwidthBps);
    }
  }
  int hostLabel = 1;
  for (const NodeId e : edges) {
    for (int j = 0; j < hostsPerEdge; ++j) {
      const NodeId h = t.addHost("h" + std::to_string(hostLabel++));
      t.connect(e, h, linkLatency, bandwidthBps);
    }
  }
  return t;
}

Topology Topology::kAryFatTree(int k, SimTime linkLatency,
                               double bandwidthBps) {
  assert(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  Topology t;

  std::vector<NodeId> cores;
  int label = 1;
  for (int i = 0; i < half * half; ++i) {
    cores.push_back(t.addSwitch("R" + std::to_string(label++)));
  }
  std::vector<std::vector<NodeId>> aggs(static_cast<std::size_t>(k));
  std::vector<std::vector<NodeId>> edges(static_cast<std::size_t>(k));
  for (int pod = 0; pod < k; ++pod) {
    for (int i = 0; i < half; ++i) {
      aggs[static_cast<std::size_t>(pod)].push_back(
          t.addSwitch("R" + std::to_string(label++)));
    }
    for (int i = 0; i < half; ++i) {
      edges[static_cast<std::size_t>(pod)].push_back(
          t.addSwitch("R" + std::to_string(label++)));
    }
  }

  // Aggregation switch j of each pod connects to cores [j*half, (j+1)*half).
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      for (int c = 0; c < half; ++c) {
        t.connect(aggs[static_cast<std::size_t>(pod)][static_cast<std::size_t>(j)],
                  cores[static_cast<std::size_t>(j * half + c)], linkLatency, bandwidthBps);
      }
    }
    // Full bipartite agg <-> edge inside the pod.
    for (int j = 0; j < half; ++j) {
      for (int e = 0; e < half; ++e) {
        t.connect(aggs[static_cast<std::size_t>(pod)][static_cast<std::size_t>(j)],
                  edges[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)],
                  linkLatency, bandwidthBps);
      }
    }
  }

  int hostLabel = 1;
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        const NodeId host = t.addHost("h" + std::to_string(hostLabel++));
        t.connect(edges[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)],
                  host, linkLatency, bandwidthBps);
      }
    }
  }
  return t;
}

Topology Topology::ring(int numSwitches, SimTime linkLatency,
                        double bandwidthBps) {
  assert(numSwitches >= 3);
  Topology t;
  std::vector<NodeId> sw;
  for (int i = 0; i < numSwitches; ++i) {
    sw.push_back(t.addSwitch("R" + std::to_string(i + 1)));
  }
  for (int i = 0; i < numSwitches; ++i) {
    t.connect(sw[static_cast<std::size_t>(i)],
              sw[static_cast<std::size_t>((i + 1) % numSwitches)], linkLatency, bandwidthBps);
  }
  for (int i = 0; i < numSwitches; ++i) {
    const NodeId h = t.addHost("h" + std::to_string(i + 1));
    t.connect(sw[static_cast<std::size_t>(i)], h, linkLatency, bandwidthBps);
  }
  return t;
}

Topology Topology::line(int numSwitches, SimTime linkLatency,
                        double bandwidthBps) {
  assert(numSwitches >= 1);
  Topology t;
  std::vector<NodeId> sw;
  for (int i = 0; i < numSwitches; ++i) {
    sw.push_back(t.addSwitch("R" + std::to_string(i + 1)));
  }
  for (int i = 0; i + 1 < numSwitches; ++i) {
    t.connect(sw[static_cast<std::size_t>(i)], sw[static_cast<std::size_t>(i + 1)],
              linkLatency, bandwidthBps);
  }
  for (int i = 0; i < numSwitches; ++i) {
    const NodeId h = t.addHost("h" + std::to_string(i + 1));
    t.connect(sw[static_cast<std::size_t>(i)], h, linkLatency, bandwidthBps);
  }
  return t;
}

Topology Topology::randomConnected(int numSwitches, int extraLinks,
                                   std::uint64_t seed, SimTime linkLatency,
                                   double bandwidthBps) {
  assert(numSwitches >= 1);
  // Self-contained xorshift so net does not depend on util.
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&state](std::uint64_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state % bound;
  };

  Topology t;
  std::vector<NodeId> sw;
  for (int i = 0; i < numSwitches; ++i) {
    sw.push_back(t.addSwitch("R" + std::to_string(i + 1)));
  }
  // Random spanning tree: attach each new switch to a random earlier one.
  for (int i = 1; i < numSwitches; ++i) {
    const auto parent = static_cast<std::size_t>(next(static_cast<std::uint64_t>(i)));
    t.connect(sw[static_cast<std::size_t>(i)], sw[parent], linkLatency, bandwidthBps);
  }
  // Extra links between random distinct pairs, skipping duplicates.
  std::vector<std::pair<NodeId, NodeId>> existing;
  for (LinkId l = 0; l < t.linkCount(); ++l) {
    const Link& link = t.link(l);
    existing.emplace_back(std::min(link.a.node, link.b.node),
                          std::max(link.a.node, link.b.node));
  }
  int added = 0;
  int attempts = 0;
  while (added < extraLinks && attempts < extraLinks * 20 && numSwitches >= 2) {
    ++attempts;
    const auto a = sw[static_cast<std::size_t>(
        next(static_cast<std::uint64_t>(numSwitches)))];
    const auto b = sw[static_cast<std::size_t>(
        next(static_cast<std::uint64_t>(numSwitches)))];
    if (a == b) continue;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    if (std::find(existing.begin(), existing.end(), key) != existing.end()) {
      continue;
    }
    existing.push_back(key);
    t.connect(a, b, linkLatency, bandwidthBps);
    ++added;
  }
  for (int i = 0; i < numSwitches; ++i) {
    const NodeId h = t.addHost("h" + std::to_string(i + 1));
    t.connect(sw[static_cast<std::size_t>(i)], h, linkLatency, bandwidthBps);
  }
  return t;
}

}  // namespace pleroma::net
