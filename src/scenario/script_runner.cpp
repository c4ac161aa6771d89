#include "scenario/script_runner.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/runner.hpp"

namespace pleroma::scenario {

ScriptRunner::ScriptRunner(OutputSink sink) : sink_(std::move(sink)) {
  reset(net::Topology::testbedFatTree(), 2, 10);
}

void ScriptRunner::reset(net::Topology topo, int attrs, int bits) {
  core::PleromaOptions options;
  options.numAttributes = attrs;
  options.bitsPerDim = bits;
  options.controller.maxCellsPerRequest = 32;
  reset(std::move(topo), options);
}

void ScriptRunner::reset(net::Topology topo,
                         const core::PleromaOptions& options) {
  middleware_ = std::make_unique<core::Pleroma>(std::move(topo), options);
  attrs_ = options.numAttributes;
  partitions_ = options.partitions;
  pendingDeliveries_.clear();
  collectDeliveries();
}

void ScriptRunner::collectDeliveries() {
  middleware_->setDeliveryCallback([this](const core::DeliveryRecord& r) {
    pendingDeliveries_.push_back(r);
  });
}

bool ScriptRunner::singlePartition(const std::string& cmd) {
  if (partitions_ == 1) return true;
  emitf("error: %s needs a single-partition deployment, not %d partitions",
        cmd.c_str(), partitions_);
  return false;
}

net::NodeId ScriptRunner::hostByName(const std::string& name) const {
  for (const net::NodeId h : middleware_->topology().hosts()) {
    if (middleware_->topology().node(h).name == name) return h;
  }
  return net::kInvalidNode;
}

net::NodeId ScriptRunner::switchByName(const std::string& name) const {
  for (const net::NodeId s : middleware_->topology().switches()) {
    if (middleware_->topology().node(s).name == name) return s;
  }
  return net::kInvalidNode;
}

dz::AttributeValue ScriptRunner::domainMax() const {
  return middleware_->controller().space().domainMax();
}

bool ScriptRunner::parseRanges(std::istream& in, dz::Rectangle& rect) const {
  std::string token;
  while (in >> token) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) return false;
    try {
      // Bounds are checked before narrowing: stoul wraps "-1" to ULONG_MAX.
      const unsigned long lo = std::stoul(token.substr(0, colon));
      const unsigned long hi = std::stoul(token.substr(colon + 1));
      if (lo > hi || hi > domainMax()) return false;
      rect.ranges.push_back(dz::Range{static_cast<dz::AttributeValue>(lo),
                                      static_cast<dz::AttributeValue>(hi)});
    } catch (const std::exception&) {
      return false;
    }
  }
  return rect.ranges.size() == static_cast<std::size_t>(attrs_);
}

bool ScriptRunner::executeLine(const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;

  if (cmd == "quit" || cmd == "exit") return false;

  if (cmd == "topo") {
    std::string kind;
    in >> kind;
    if (kind == "fat-tree") {
      reset(net::Topology::testbedFatTree(), attrs_, 10);
    } else if (kind == "ring" || kind == "line") {
      int n = 6;
      in >> n;
      const int minSwitches = kind == "ring" ? 3 : 1;
      if (n < minSwitches) {
        emitf("error: %s: switch count must be >= %d", kind.c_str(),
              minSwitches);
        return true;
      }
      reset(kind == "ring" ? net::Topology::ring(n) : net::Topology::line(n),
            attrs_, 10);
    } else if (kind == "random") {
      int n = 8, extra = 3;
      std::uint64_t seed = 1;
      in >> n >> extra >> seed;
      if (n < 1) {
        emit("error: random: switch count must be >= 1");
        return true;
      }
      reset(net::Topology::randomConnected(n, extra, seed), attrs_, 10);
    } else {
      emitf("error: unknown topology '%s'", kind.c_str());
      return true;
    }
    emitf("ok: %zu switches, %zu hosts",
          middleware_->topology().switches().size(),
          middleware_->topology().hosts().size());
  } else if (cmd == "attrs") {
    int k = 2, bits = 10;
    in >> k;
    if (!(in >> bits)) bits = 10;
    if (k < 1 || bits < 1 || bits > 20) {
      emit("error: attrs K [BITS] with K>=1, 1<=BITS<=20");
      return true;
    }
    reset(net::Topology::testbedFatTree(), k, bits);
    emitf("ok: %d attributes, %d bits each", k, bits);
  } else if (cmd == "adv" || cmd == "sub") {
    if (!singlePartition(cmd)) return true;
    std::string hostName;
    in >> hostName;
    const net::NodeId host = hostByName(hostName);
    if (host == net::kInvalidNode) {
      emitf("error: unknown host '%s'", hostName.c_str());
      return true;
    }
    dz::Rectangle rect;
    if (!parseRanges(in, rect)) {
      emitf("error: expected %d lo:hi ranges with lo <= hi <= %u", attrs_,
            domainMax());
      return true;
    }
    if (cmd == "adv") {
      const auto id = middleware_->advertise(host, rect);
      emitf("publisher %lld (dz=%s)", static_cast<long long>(id),
            middleware_->controller().advertisementDz(id).toString().c_str());
    } else {
      const auto id = middleware_->subscribe(host, rect);
      emitf("subscription %lld (dz=%s)", static_cast<long long>(id),
            middleware_->controller().subscriptionDz(id).toString().c_str());
    }
  } else if (cmd == "unadv" || cmd == "unsub") {
    if (cmd == "unadv" && !singlePartition(cmd)) return true;
    long long id = -1;
    if (!(in >> id)) {
      emit("error: expected an id");
      return true;
    }
    const bool live = cmd == "unadv" ? middleware_->unadvertise(id)
                                     : middleware_->unsubscribe(id);
    if (!live) {
      emitf("error: unknown %s %lld",
            cmd == "unadv" ? "publisher" : "subscription", id);
      return true;
    }
    emit("ok");
  } else if (cmd == "pub") {
    if (!singlePartition(cmd)) return true;
    std::string hostName;
    in >> hostName;
    const net::NodeId host = hostByName(hostName);
    if (host == net::kInvalidNode) {
      emitf("error: unknown host '%s'", hostName.c_str());
      return true;
    }
    dz::Event e;
    unsigned long v = 0;
    bool inDomain = true;
    while (in >> v) {
      inDomain = inDomain && v <= domainMax();
      e.push_back(static_cast<dz::AttributeValue>(v));
    }
    if (e.size() != static_cast<std::size_t>(attrs_) || !inDomain) {
      emitf("error: expected %d attribute values <= %u", attrs_, domainMax());
      return true;
    }
    const auto id = middleware_->publish(host, e);
    emitf("event %llu published (dz=%s)", static_cast<unsigned long long>(id),
          middleware_->controller().stampEvent(e).toString().c_str());
  } else if (cmd == "fail" || cmd == "restore") {
    if (!singlePartition(cmd)) return true;
    int link = -1;
    if (!(in >> link) || link < 0 ||
        link >= middleware_->topology().linkCount()) {
      emit("error: expected a valid link id");
      return true;
    }
    const bool up = cmd == "restore";
    middleware_->network().setLinkUp(link, up);
    if (up) {
      middleware_->controller().onLinkUp(link);
    } else {
      middleware_->controller().onLinkDown(link);
    }
    emitf("ok: link %d %s", link, up ? "restored" : "failed");
  } else if (cmd == "run") {
    middleware_->settle();
    for (const auto& d : pendingDeliveries_) {
      emitf("  event %llu -> %s (%.0f us%s)",
            static_cast<unsigned long long>(d.eventId),
            middleware_->topology().node(d.host).name.c_str(),
            static_cast<double>(d.latency) / 1000.0,
            d.falsePositive ? ", false positive" : "");
    }
    emitf("ok: %zu deliveries", pendingDeliveries_.size());
    pendingDeliveries_.clear();
  } else if (cmd == "trees") {
    if (!singlePartition(cmd)) return true;
    for (const auto* t : middleware_->controller().trees()) {
      emitf("  tree %d root=%s DZ=%s publishers=%zu", t->id(),
            middleware_->topology().node(t->root()).name.c_str(),
            t->dzSet().toString().c_str(), t->publishers().size());
    }
    emitf("ok: %zu trees", middleware_->controller().treeCount());
  } else if (cmd == "flows") {
    std::string swName;
    in >> swName;
    const net::NodeId sw = switchByName(swName);
    if (sw == net::kInvalidNode) {
      emitf("error: unknown switch '%s'", swName.c_str());
      return true;
    }
    for (const auto& e : middleware_->network().flowTable(sw).entries()) {
      emitf("  %s matched=%llu", e.toString().c_str(),
            static_cast<unsigned long long>(e.matchedPackets));
    }
    emitf("ok: %zu flows", middleware_->network().flowTable(sw).size());
  } else if (cmd == "dimsel") {
    if (!singlePartition(cmd)) return true;
    double threshold = 0.9;
    in >> threshold;
    if (!(threshold > 0.0 && threshold <= 1.0)) {
      emit("error: dimsel THRESHOLD must be in (0, 1]");
      return true;
    }
    const auto dims = middleware_->runDimensionSelection(threshold);
    std::string out = "ok: indexing dimensions";
    for (const int d : dims) out += " " + std::to_string(d);
    emit(out);
  } else if (cmd == "stats") {
    std::string mode;
    in >> mode;
    if (mode == "metrics") {
      std::istringstream text(middleware_->snapshotMetrics().toText());
      std::string metricLine;
      std::size_t n = 0;
      while (std::getline(text, metricLine)) {
        if (metricLine.empty()) continue;
        emit("  " + metricLine);
        ++n;
      }
      emitf("ok: %zu metrics", n);
      return true;
    }
    if (mode == "json") {
      emit(middleware_->snapshotMetrics().toJson().dump());
      return true;
    }
    if (!mode.empty()) {
      emitf("error: stats [metrics|json], not '%s'", mode.c_str());
      return true;
    }
    if (!singlePartition(cmd)) return true;
    const auto& ds = middleware_->deliveryStats();
    const auto& cs = middleware_->controller().controlStats();
    std::size_t flows = 0;
    for (const net::NodeId sw : middleware_->topology().switches()) {
      flows += middleware_->network().flowTable(sw).size();
    }
    emitf(
        "delivered=%llu falsePositives=%llu meanLatency=%.0fus flows=%zu "
        "flowMods=%llu trees=%zu",
        static_cast<unsigned long long>(ds.delivered),
        static_cast<unsigned long long>(ds.falsePositives), ds.meanLatencyUs(),
        flows, static_cast<unsigned long long>(cs.flowModsSent),
        middleware_->controller().treeCount());
    const net::NetworkCounters& nc = middleware_->network().counters();
    std::string drops = "drops:";
    for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
      const auto reason = static_cast<net::DropReason>(r);
      drops += std::string(" ") + net::dropReasonName(reason) + "=" +
               std::to_string(nc.dropped(reason));
    }
    drops += " total=" + std::to_string(nc.totalDropped());
    emit(drops);
    const net::Network::Stats occ = middleware_->network().stats();
    emitf(
        "queued: hosts=%zu links=%zu bpParked=%zu missBuffered=%zu "
        "peakLinkDepth=%zu bpRetries=%llu",
        occ.hostQueued, occ.linkQueued, occ.backpressureParked,
        occ.missBuffered, occ.peakLinkQueueDepth,
        static_cast<unsigned long long>(nc.backpressureRetries));
  } else if (cmd == "scenario") {
    std::string path;
    in >> path;
    if (path.empty()) {
      emit("error: scenario FILE.json");
      return true;
    }
    std::string error;
    auto s = Scenario::loadFile(path, &error);
    if (!s.has_value()) {
      emitf("error: %s", error.c_str());
      return true;
    }
    if (!s->validate(&error)) {
      emitf("error: %s: %s", path.c_str(), error.c_str());
      return true;
    }
    reset(s->buildTopology(), pleromaOptions(*s));
    RunOptions options;
    options.log = [this](const std::string& line) { emit("  " + line); };
    ScenarioRunner runner(std::move(*s), std::move(options));
    // The totals line summarises the scenario's deliveries; a later `run`
    // lists only the ones after it.
    middleware_->setDeliveryCallback(nullptr);
    const RunResult r = runner.run(*middleware_);
    collectDeliveries();
    emitf("ok: scenario %s: published=%llu delivered=%llu fp=%llu "
          "latency_us=%.2f flow_mods=%llu control_messages=%llu promoted=%s",
          runner.scenario().name.c_str(),
          static_cast<unsigned long long>(r.published),
          static_cast<unsigned long long>(r.delivered),
          static_cast<unsigned long long>(r.falsePositives), r.meanLatencyUs,
          static_cast<unsigned long long>(r.flowMods),
          static_cast<unsigned long long>(r.controlMessages),
          r.promoted ? "true" : "false");
  } else if (cmd == "source") {
    std::string path;
    in >> path;
    if (path.empty()) {
      emit("error: source FILE");
      return true;
    }
    if (sourceDepth_ >= 8) {
      emit("error: source nesting too deep");
      return true;
    }
    std::ifstream file(path);
    if (!file) {
      emitf("error: cannot open '%s'", path.c_str());
      return true;
    }
    std::ostringstream buf;
    buf << file.rdbuf();
    ++sourceDepth_;
    executeScript(buf.str());
    --sourceDepth_;
    emitf("ok: sourced %s", path.c_str());
  } else if (cmd == "help") {
    emit("commands: topo attrs adv sub unadv unsub pub fail restore run "
         "trees flows dimsel stats [metrics|json] scenario source quit");
  } else {
    emitf("error: unknown command '%s' (try help)", cmd.c_str());
  }
  return true;
}

void ScriptRunner::executeScript(const std::string& script) {
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    if (!executeLine(line)) break;
  }
}

}  // namespace pleroma::scenario
