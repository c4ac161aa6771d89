#include "scenario/runner.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "controller/load_monitor.hpp"
#include "net/congestion.hpp"

namespace pleroma::scenario {

core::PleromaOptions pleromaOptions(const Scenario& s) {
  core::PleromaOptions opts;
  opts.numAttributes = s.numAttributes;
  opts.bitsPerDim = s.bitsPerDim;
  opts.partitions = s.partitions;
  if (s.maxDzLength.has_value()) opts.controller.maxDzLength = *s.maxDzLength;
  if (s.maxCellsPerRequest.has_value()) {
    opts.controller.maxCellsPerRequest = *s.maxCellsPerRequest;
  }
  if (s.aggregateSubscriptions.has_value()) {
    opts.controller.aggregateSubscriptions = *s.aggregateSubscriptions;
  }
  if (s.tcamBudget.has_value()) opts.controller.tcamBudget = *s.tcamBudget;
  opts.network.linkQueueCapacity = s.network.linkQueueCapacity;
  opts.network.backpressure = s.network.backpressure;
  if (s.needsFailover()) {
    opts.failover.enableStandby = true;
    opts.failover.config.heartbeatInterval = s.failover.heartbeatInterval;
    opts.failover.config.missThreshold = s.failover.missThreshold;
  }
  return opts;
}

namespace {

/// Cumulative counters sampled at phase boundaries; phase values are
/// deltas between snapshots.
struct Snapshot {
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  net::SimTime latencySum = 0;
  std::uint64_t flowMods = 0;
  std::uint64_t flowEntries = 0;  ///< current total, not cumulative
  std::uint64_t controlMessages = 0;
};

Snapshot snapshot(core::Pleroma& pleroma) {
  Snapshot s;
  const core::DeliveryStats& d = pleroma.deliveryStats();
  s.delivered = d.delivered;
  s.falsePositives = d.falsePositives;
  s.latencySum = d.latencySum;
  obs::MetricsRegistry metrics = pleroma.snapshotMetrics();
  s.flowMods = metrics.counter("ctrl_channel.mods_sent").value();
  s.controlMessages = metrics.counter("interop.control_messages").value();
  for (const net::NodeId sw : pleroma.topology().switches()) {
    s.flowEntries += pleroma.network().flowTable(sw).size();
  }
  return s;
}

bool promoted(core::Pleroma& pleroma) {
  const ctrl::FailoverManager* fo = pleroma.failover();
  return fo != nullptr && fo->promoted();
}

/// The closed congestion loop (DESIGN.md §15): the congestion monitor
/// samples the data plane every interval and the load monitor reacts with
/// congestion-weighted reroots. Both are slow-lane ticks scheduled at the
/// same instants; the congestion sample is armed first, so it runs before
/// the reaction that consumes it.
class RebalanceLoop {
 public:
  RebalanceLoop(core::Pleroma& pleroma, const RebalanceSpec& spec)
      : pleroma_(pleroma), interval_(spec.interval) {
    net::CongestionConfig cc;
    cc.sampleInterval = spec.interval;
    congestion_ = std::make_unique<net::CongestionMonitor>(pleroma.network(), cc);
    config_.hotLinkThreshold = spec.hotThreshold;
    config_.congestionFactor = spec.congestionFactor;
    watchActiveController();
    resume();
  }

  /// A live self-rearming tick would keep sim.run() from ever draining:
  /// pause the loop before a drain; the already-armed ticks fire once as
  /// no-ops at their deterministic instants.
  void pause() {
    loadMonitor_->stopPeriodic();
    congestion_->stop();
  }

  /// Re-arms the loop relative to the current clock, unless a killed
  /// controller still awaits its promotion; right after the promotion,
  /// moves the loop onto the promoted controller first.
  void resume() {
    if (awaitingPromotion_) {
      if (!promoted(pleroma_)) return;
      awaitingPromotion_ = false;
      watchActiveController();
    }
    congestion_->startPeriodic();
    loadMonitor_->startPeriodic(interval_);
  }

  /// Promotion drains the simulator, which a live tick would keep from
  /// ever finishing; and until then the loop would reroot trees of the
  /// dead controller. Pauses the loop until the promoted controller takes
  /// over.
  void onControllerKilled() {
    if (promoted(pleroma_)) return;
    pause();
    awaitingPromotion_ = true;
  }

  bool awaitingPromotion() const noexcept { return awaitingPromotion_; }

  std::uint64_t rebalances() const {
    return loadMonitor_->rebalances() +
           (primaryMonitor_ != nullptr ? primaryMonitor_->rebalances() : 0);
  }

 private:
  /// Points the load monitor at the active controller. A monitor replaced
  /// after a promotion is kept alive: its last tick may still be queued.
  void watchActiveController() {
    primaryMonitor_ = std::move(loadMonitor_);
    loadMonitor_ =
        std::make_unique<ctrl::LoadMonitor>(pleroma_.controller(), config_);
    loadMonitor_->attachCongestion(congestion_.get());
  }

  core::Pleroma& pleroma_;
  net::SimTime interval_;
  std::unique_ptr<net::CongestionMonitor> congestion_;
  std::unique_ptr<ctrl::LoadMonitor> primaryMonitor_;
  std::unique_ptr<ctrl::LoadMonitor> loadMonitor_;
  ctrl::LoadMonitorConfig config_;
  bool awaitingPromotion_ = false;
};

void applyFault(core::Pleroma& pleroma, const FaultSpec& fault,
                RebalanceLoop* loop) {
  net::Network& network = pleroma.network();
  ctrl::Controller& controller = pleroma.controller();
  const auto switchAt = [&](int index) {
    return pleroma.topology().switches()[static_cast<std::size_t>(index)];
  };
  switch (fault.action) {
    case FaultAction::kLinkDown:
      network.setLinkUp(fault.target, false);
      controller.onLinkDown(fault.target);
      break;
    case FaultAction::kLinkUp:
      network.setLinkUp(fault.target, true);
      controller.onLinkUp(fault.target);
      break;
    case FaultAction::kSwitchDown: {
      const net::NodeId sw = switchAt(fault.target);
      network.setNodeUp(sw, false);
      controller.onSwitchDown(sw);
      break;
    }
    case FaultAction::kSwitchUp: {
      const net::NodeId sw = switchAt(fault.target);
      network.setNodeUp(sw, true);
      controller.onSwitchUp(sw);
      break;
    }
    case FaultAction::kControllerKill:
      if (ctrl::FailoverManager* fo = pleroma.failover()) {
        // The heartbeat is armed at the kill instant, not at start-up: a
        // live self-rearming tick would keep settle() from ever draining
        // (see ctrl::FailoverManager::start).
        if (!fo->running()) fo->start();
        fo->killPrimary();
        if (loop != nullptr) loop->onControllerKilled();
      }
      break;
  }
}

}  // namespace

ScenarioRunner::ScenarioRunner(Scenario scenario, RunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {}

RunResult ScenarioRunner::run() {
  core::Pleroma pleroma(scenario_.buildTopology(), pleromaOptions(scenario_));
  return run(pleroma);
}

RunResult ScenarioRunner::run(core::Pleroma& pleroma) {
  const Scenario& s = scenario_;
  assert(!s.phases.empty());

  const std::vector<net::NodeId> hosts = pleroma.topology().hosts();
  const std::size_t hostCount = hosts.size();
  // The loop's monitors die with this call; the run ends with the loop
  // paused and the simulator drained, so no tick of theirs outlives them.
  std::unique_ptr<RebalanceLoop> loop;
  if (s.rebalance.enabled) {
    loop = std::make_unique<RebalanceLoop>(pleroma, s.rebalance);
  }
  const auto settle = [&] {
    if (loop != nullptr) loop->pause();
    pleroma.settle();
    if (loop != nullptr) loop->resume();
  };
  const auto settleUntil = [&](net::SimTime t) {
    pleroma.settleUntil(t);
    if (loop != nullptr && loop->awaitingPromotion()) loop->resume();
  };
  const auto now = [&] { return pleroma.simulator().now(); };

  auto say = [&](const std::string& line) {
    if (options_.log) options_.log(line);
  };

  // The fault schedule, in application order. Faults fire at their exact
  // virtual instant: the timeline below advances the clock with
  // settleUntil(fault.at) before applying each one.
  std::vector<FaultSpec> pending = s.faults;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const FaultSpec& a, const FaultSpec& b) { return a.at < b.at; });
  std::size_t nextFault = 0;

  RunResult result;
  auto applyFaultsUpTo = [&](net::SimTime t) {
    while (nextFault < pending.size() && pending[nextFault].at <= t) {
      const FaultSpec& f = pending[nextFault];
      if (f.at > now()) settleUntil(f.at);
      applyFault(pleroma, f, loop.get());
      result.faults.push_back({f, now()});
      say("fault @" + std::to_string(f.at / net::kMillisecond) + "ms: " +
          toString(f.action));
      ++nextFault;
    }
  };

  // Live subscriptions across phases; churn moves index this ledger.
  struct LiveSub {
    std::size_t slot;
    dz::Rectangle rect;
    ctrl::SubscriptionId id;
  };
  std::vector<LiveSub> ledger;
  // Advertiser host slots, accumulated; events round-robin over them.
  std::vector<std::size_t> advSlots;

  const Snapshot start = snapshot(pleroma);
  Snapshot prev = start;
  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const PhaseSpec& spec = s.phases[p];
    const PhasePlan plan =
        buildPhasePlan(s, p, hostCount, ledger.size(), options_.smoke);
    say("phase " + std::to_string(p) + " (" + spec.name + ", " +
        toString(spec.family) + "): " +
        std::to_string(plan.advertisements.size()) + " adv, " +
        std::to_string(plan.subscriptions.size()) + " sub, " +
        std::to_string(plan.churnMoves.size()) + " moves, " +
        std::to_string(plan.events.size()) + " events");

    std::vector<std::size_t> phaseAdvSlots;
    for (const auto& [slot, rect] : plan.advertisements) {
      pleroma.advertise(hosts[slot], rect);
      advSlots.push_back(slot);
      phaseAdvSlots.push_back(slot);
    }
    // Events come from this phase's own advertisers when it declares any
    // (their rectangles follow the phase's family — a flash-crowd burst is
    // published from crowd publishers); phases without advertisements fall
    // back to every advertiser deployed so far.
    const std::vector<std::size_t>& publishers =
        phaseAdvSlots.empty() ? advSlots : phaseAdvSlots;
    for (const auto& [slot, rect] : plan.subscriptions) {
      ledger.push_back({slot, rect, pleroma.subscribe(hosts[slot], rect)});
    }
    settle();

    for (const workload::ChurnStep& step : plan.churnMoves) {
      LiveSub& sub = ledger[step.subIndex];
      const std::size_t newSlot = (sub.slot + step.hostOffset) % hostCount;
      pleroma.unsubscribe(sub.id);
      sub.id = pleroma.subscribe(hosts[newSlot], sub.rect);
      sub.slot = newSlot;
      settle();
    }

    net::SimTime cursor = now();
    for (const dz::Event& event : plan.events) {
      cursor += plan.eventInterval;
      applyFaultsUpTo(cursor);
      settleUntil(cursor);
      pleroma.publish(hosts[publishers[result.published % publishers.size()]],
                      event);
      ++result.published;
    }
    settle();

    const Snapshot cur = snapshot(pleroma);
    PhaseResult pr;
    pr.name = spec.name;
    pr.family = spec.family;
    pr.advertisements = plan.advertisements.size();
    pr.subscriptions = plan.subscriptions.size();
    pr.churnMoves = plan.churnMoves.size();
    pr.events = plan.events.size();
    pr.delivered = cur.delivered - prev.delivered;
    pr.falsePositives = cur.falsePositives - prev.falsePositives;
    pr.meanLatencyUs =
        pr.delivered == 0
            ? 0.0
            : static_cast<double>(cur.latencySum - prev.latencySum) /
                  static_cast<double>(pr.delivered) / 1000.0;
    pr.flowMods = cur.flowMods - prev.flowMods;
    pr.flowEntries = cur.flowEntries;
    pr.end = now();
    result.phases.push_back(std::move(pr));
    prev = cur;
  }

  // Faults scheduled past the last phase still fire, at their instant.
  applyFaultsUpTo(pending.empty() ? 0
                                  : pending.back().at);
  // The final drain leaves the loop paused: its already-armed ticks fire
  // as no-ops inside this drain, and none is re-armed.
  if (loop != nullptr) loop->pause();
  pleroma.settle();

  const Snapshot total = snapshot(pleroma);
  result.delivered = total.delivered;
  result.falsePositives = total.falsePositives;
  result.meanLatencyUs = total.delivered == 0
                             ? 0.0
                             : static_cast<double>(total.latencySum) /
                                   static_cast<double>(total.delivered) / 1000.0;
  // Includes post-phase fault repair.
  result.flowMods = total.flowMods - start.flowMods;
  result.controlMessages = total.controlMessages;
  result.promoted = promoted(pleroma);
  const net::NetworkCounters& nc = pleroma.network().counters();
  CongestionResult& c = result.congestion;
  c.queueDrops = nc.dropped(net::DropReason::kLinkQueue);
  c.bpDrops = nc.dropped(net::DropReason::kBackpressure);
  c.bpParks = nc.packetsParkedOnBackpressure;
  c.bpRetries = nc.backpressureRetries;
  c.peakLinkQueueDepth = pleroma.network().stats().peakLinkQueueDepth;
  if (loop != nullptr) c.rebalances = loop->rebalances();
  result.end = now();
  return result;
}

void ScenarioRunner::report(obs::BenchReporter& out,
                            const RunResult& result) const {
  const Scenario& s = scenario_;
  out.meta("seed", s.seed);
  out.meta("topology", s.topologyLabel());
  out.meta("workload", s.workloadLabel());
  out.meta("scenario", s.name);
  out.meta("scenario_schema", kScenarioSchema);
  out.meta("partitions", s.partitions);
  out.meta("smoke", options_.smoke);

  auto ms = [](net::SimTime t) {
    return static_cast<double>(t) / static_cast<double>(net::kMillisecond);
  };

  out.beginSeries("phases", {{"phase", ""},
                             {"name", ""},
                             {"family", ""},
                             {"advertisements", ""},
                             {"subscriptions", ""},
                             {"churn_moves", ""},
                             {"events", ""},
                             {"delivered", ""},
                             {"false_positives", ""},
                             {"mean_latency_us", "us"},
                             {"flow_mods", ""},
                             {"flow_entries", ""},
                             {"end_ms", "ms"}});
  for (std::size_t p = 0; p < result.phases.size(); ++p) {
    const PhaseResult& pr = result.phases[p];
    out.row({static_cast<unsigned long long>(p), pr.name, toString(pr.family),
             static_cast<unsigned long long>(pr.advertisements),
             static_cast<unsigned long long>(pr.subscriptions),
             static_cast<unsigned long long>(pr.churnMoves),
             static_cast<unsigned long long>(pr.events), pr.delivered,
             pr.falsePositives, pr.meanLatencyUs, pr.flowMods, pr.flowEntries,
             ms(pr.end)});
  }

  if (!result.faults.empty()) {
    out.beginSeries("faults", {{"at_ms", "ms"},
                               {"applied_ms", "ms"},
                               {"action", ""},
                               {"target", ""}});
    for (const AppliedFault& f : result.faults) {
      out.row({ms(f.spec.at), ms(f.appliedAt), toString(f.spec.action),
               f.spec.target});
    }
  }

  // Emitted only for congestion-enabled scenarios so legacy reports stay
  // byte-identical.
  if (s.network.linkQueueCapacity > 0 || s.rebalance.enabled) {
    out.beginSeries("congestion", {{"queue_drops", ""},
                                   {"bp_drops", ""},
                                   {"bp_parks", ""},
                                   {"bp_retries", ""},
                                   {"peak_link_queue_depth", ""},
                                   {"rebalances", ""}});
    const CongestionResult& c = result.congestion;
    out.row({c.queueDrops, c.bpDrops, c.bpParks, c.bpRetries,
             c.peakLinkQueueDepth, c.rebalances});
  }

  out.beginSeries("totals", {{"published", ""},
                             {"delivered", ""},
                             {"false_positives", ""},
                             {"mean_latency_us", "us"},
                             {"flow_mods", ""},
                             {"control_messages", ""},
                             {"promoted", ""},
                             {"end_ms", "ms"}});
  out.row({result.published, result.delivered, result.falsePositives,
           result.meanLatencyUs, result.flowMods, result.controlMessages,
           result.promoted, ms(result.end)});
}

}  // namespace pleroma::scenario
