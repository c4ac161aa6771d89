#include "repetition.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "controller/load_monitor.hpp"
#include "core/pleroma.hpp"
#include "interop/multi_domain.hpp"
#include "net/congestion.hpp"
#include "obs/json.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"

namespace pleroma::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The delivery oracle checks every kOracleStride-th event id.
constexpr net::EventId kOracleStride = 8;

/// Exact virtual-latency histogram: one count per distinct latency. Whole
/// microseconds below kFlatSlots index a flat array (every latency on the
/// shipped workloads); anything else lands in an ordered map. Memory is
/// bounded by the number of distinct values, never by deliveries.
class LatencyHistogram {
 public:
  LatencyHistogram() : flat_(kFlatSlots, 0) {}

  void record(net::SimTime ns) {
    ++count_;
    sum_ += static_cast<double>(ns);
    if (ns >= 0 && ns % net::kMicrosecond == 0 &&
        ns / net::kMicrosecond < static_cast<net::SimTime>(kFlatSlots)) {
      ++flat_[static_cast<std::size_t>(ns / net::kMicrosecond)];
    } else {
      ++other_[ns];
    }
  }

  double meanNs() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank quantile; 0 when empty.
  net::SimTime quantileNs(double q) const {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(q * static_cast<double>(count_))));
    std::map<net::SimTime, std::uint64_t> merged = other_;
    for (std::size_t us = 0; us < flat_.size(); ++us) {
      if (flat_[us] != 0) {
        merged[static_cast<net::SimTime>(us) * net::kMicrosecond] += flat_[us];
      }
    }
    std::uint64_t seen = 0;
    for (const auto& [value, n] : merged) {
      seen += n;
      if (seen >= rank) return value;
    }
    return merged.rbegin()->first;
  }

 private:
  static constexpr std::size_t kFlatSlots = std::size_t{1} << 17;
  std::vector<std::uint64_t> flat_;
  std::map<net::SimTime, std::uint64_t> other_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// What the delivery hook records: counts, latencies, and — for sampled
/// events — which host slots received the event.
class DeliveryLedger {
 public:
  DeliveryLedger(const std::vector<net::NodeId>& hosts, int nodeCount,
                 std::size_t sampledEvents)
      : slotOf_(static_cast<std::size_t>(nodeCount), -1),
        words_((hosts.size() + 63) / 64),
        delivered_(sampledEvents * words_, 0) {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      slotOf_[static_cast<std::size_t>(hosts[i])] = static_cast<int>(i);
    }
  }

  void onDeliver(net::NodeId host, net::EventId id, net::SimTime latency,
                 bool falsePositive) {
    ++deliveries_;
    if (falsePositive) ++falsePositives_;
    latency_.record(latency);
    if (id % kOracleStride != 0) return;
    const std::size_t k = static_cast<std::size_t>(id / kOracleStride) - 1;
    const int slot = slotOf_[static_cast<std::size_t>(host)];
    if (k * words_ >= delivered_.size() || slot < 0) return;
    delivered_[k * words_ + static_cast<std::size_t>(slot) / 64] |=
        std::uint64_t{1} << (static_cast<unsigned>(slot) % 64);
  }

  const std::vector<std::uint64_t>& delivered() const noexcept { return delivered_; }
  std::uint64_t deliveries() const noexcept { return deliveries_; }
  std::uint64_t falsePositives() const noexcept { return falsePositives_; }
  const LatencyHistogram& latency() const noexcept { return latency_; }

 private:
  std::vector<int> slotOf_;  ///< NodeId -> host slot
  std::size_t words_;
  std::vector<std::uint64_t> delivered_;  ///< sampled event x host-slot bits
  std::uint64_t deliveries_ = 0;
  std::uint64_t falsePositives_ = 0;
  LatencyHistogram latency_;
};

// ---- the inputs, generated before anything is timed ----------------------

struct Move {
  std::size_t sub = 0;  ///< index into the subscription ledger
  net::NodeId host = net::kInvalidNode;
  /// Points into Schedule::phases, which is complete before any Move is made.
  const dz::Rectangle* rect = nullptr;
};

struct Schedule {
  std::vector<scenario::PhasePlan> phases;
  std::vector<std::vector<Move>> moves;               ///< per phase
  std::vector<std::vector<net::NodeId>> publishers;   ///< per phase, per event
  std::size_t events = 0;
  std::size_t sampled = 0;  ///< events the oracle checks
  /// Oracle expectation: sampled event x host-slot bits of the pairs in
  /// contract (event inside its publisher's advertisement, a live matching
  /// subscription at the host, host is not the publisher's own).
  std::vector<std::uint64_t> expected;
};

Schedule buildSchedule(const scenario::Scenario& s,
                       const std::vector<net::NodeId>& hosts, bool smoke) {
  Schedule sc;
  const std::size_t hostCount = hosts.size();
  std::size_t priorSubs = 0;
  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    sc.phases.push_back(scenario::buildPhasePlan(s, p, hostCount, priorSubs, smoke));
    priorSubs += sc.phases.back().subscriptions.size();
    sc.events += sc.phases.back().events.size();
  }
  const std::size_t words = (hostCount + 63) / 64;
  sc.sampled = sc.events / kOracleStride;
  sc.expected.assign(sc.sampled * words, 0);

  struct Registered {
    std::size_t slot;
    const dz::Rectangle* rect;
  };
  std::vector<Registered> advertisers;
  std::vector<Registered> subs;  // the live ledger, by subscription index
  std::size_t cursor = 0;        // round-robin position over advertisers
  net::EventId id = 0;
  for (const scenario::PhasePlan& plan : sc.phases) {
    for (const auto& [slot, rect] : plan.advertisements) advertisers.push_back({slot, &rect});
    for (const auto& [slot, rect] : plan.subscriptions) subs.push_back({slot, &rect});
    auto& moves = sc.moves.emplace_back();
    for (const workload::ChurnStep& step : plan.churnMoves) {
      Registered& sub = subs[step.subIndex];
      sub.slot = (sub.slot + step.hostOffset) % hostCount;
      moves.push_back({step.subIndex, hosts[sub.slot], sub.rect});
    }
    auto& publishers = sc.publishers.emplace_back();
    publishers.reserve(plan.events.size());
    for (const dz::Event& event : plan.events) {
      ++id;
      // The next advertiser in round-robin order whose advertisement covers
      // the event publishes it; an event nobody covers goes to plain
      // round-robin and stays out of the oracle.
      const std::size_t n = advertisers.size();
      std::size_t chosen = n;
      for (std::size_t k = 0; k < n && chosen == n; ++k) {
        if (advertisers[(cursor + k) % n].rect->contains(event)) chosen = (cursor + k) % n;
      }
      const bool covered = chosen != n;
      if (!covered) chosen = cursor % n;
      cursor = chosen + 1;
      const std::size_t pubSlot = advertisers[chosen].slot;
      publishers.push_back(hosts[pubSlot]);
      if (!covered || id % kOracleStride != 0) continue;
      std::uint64_t* row = &sc.expected[(id / kOracleStride - 1) * words];
      for (const Registered& sub : subs) {
        if (sub.slot != pubSlot && sub.rect->contains(event)) {
          row[sub.slot / 64] |= std::uint64_t{1} << (sub.slot % 64);
        }
      }
    }
  }
  return sc;
}

// ---- the two deployment front ends, behind one driving surface ----------

ctrl::ControllerConfig controllerConfig(const scenario::Scenario& s) {
  ctrl::ControllerConfig cfg;
  if (s.maxDzLength.has_value()) cfg.maxDzLength = *s.maxDzLength;
  if (s.maxCellsPerRequest.has_value()) cfg.maxCellsPerRequest = *s.maxCellsPerRequest;
  if (s.aggregateSubscriptions.has_value()) {
    cfg.aggregateSubscriptions = *s.aggregateSubscriptions;
  }
  if (s.tcamBudget.has_value()) cfg.tcamBudget = *s.tcamBudget;
  return cfg;
}

class Target {
 public:
  virtual ~Target() = default;
  virtual void advertise(net::NodeId host, const dz::Rectangle& rect) = 0;
  virtual std::uint64_t subscribe(net::NodeId host, const dz::Rectangle& rect) = 0;
  virtual void unsubscribe(std::uint64_t handle) = 0;
  virtual void publish(net::NodeId host, const dz::Event& event, net::EventId id) = 0;
  virtual void settle() = 0;
  virtual void settleUntil(net::SimTime t) = 0;
  virtual net::Network& network() = 0;
  virtual std::vector<ctrl::Controller*> controllers() = 0;
  virtual std::uint64_t controlMessages() { return 0; }
  virtual std::uint64_t rebalanceTicks() const { return 0; }
  virtual std::uint64_t reroots() const { return 0; }
};

/// core::Pleroma, plus — when the workload enables rebalancing — the
/// closed congestion loop as a periodic task the benchmark owns, so each tick
/// is a span of its own.
class SingleTarget final : public Target {
 public:
  SingleTarget(const scenario::Scenario& s, DeliveryLedger& ledger,
               SpanRecorder* rec, SpanRecorder::NameId tickSpan)
      : rec_(rec), tickSpan_(tickSpan) {
    core::PleromaOptions opts;
    opts.numAttributes = s.numAttributes;
    opts.bitsPerDim = s.bitsPerDim;
    opts.controller = controllerConfig(s);
    opts.network.linkQueueCapacity = s.network.linkQueueCapacity;
    opts.network.backpressure = s.network.backpressure;
    pleroma_ = std::make_unique<core::Pleroma>(s.buildTopology(), opts);
    pleroma_->setDeliveryCallback([&ledger](const core::DeliveryRecord& r) {
      ledger.onDeliver(r.host, r.eventId, r.latency, r.falsePositive);
    });
    if (s.rebalance.enabled) {
      interval_ = s.rebalance.interval;
      congestion_ = std::make_unique<net::CongestionMonitor>(pleroma_->network());
      ctrl::LoadMonitorConfig lc;
      lc.hotLinkThreshold = s.rebalance.hotThreshold;
      lc.congestionFactor = s.rebalance.congestionFactor;
      loadMonitor_ = std::make_unique<ctrl::LoadMonitor>(pleroma_->controller(), lc);
      loadMonitor_->attachCongestion(congestion_.get());
      running_ = true;
      armTick();
    }
  }

  void advertise(net::NodeId host, const dz::Rectangle& rect) override {
    pleroma_->advertise(host, rect);
  }
  std::uint64_t subscribe(net::NodeId host, const dz::Rectangle& rect) override {
    return static_cast<std::uint64_t>(pleroma_->subscribe(host, rect));
  }
  void unsubscribe(std::uint64_t handle) override {
    pleroma_->unsubscribe(static_cast<ctrl::SubscriptionId>(handle));
  }
  void publish(net::NodeId host, const dz::Event& event, net::EventId id) override {
    pleroma_->publish(host, event, id);
  }
  void settle() override {
    // A self-rearming tick would keep the simulator from ever draining:
    // pause the loop (the armed tick fires once as a no-op), drain, re-arm.
    running_ = false;
    pleroma_->settle();
    if (loadMonitor_ != nullptr) {
      running_ = true;
      armTick();
    }
  }
  void settleUntil(net::SimTime t) override { pleroma_->settleUntil(t); }
  net::Network& network() override { return pleroma_->network(); }
  std::vector<ctrl::Controller*> controllers() override {
    return {&pleroma_->controller()};
  }
  std::uint64_t rebalanceTicks() const override { return ticks_; }
  std::uint64_t reroots() const override {
    return loadMonitor_ != nullptr ? loadMonitor_->rebalances() : 0;
  }

 private:
  void armTick() {
    if (tickArmed_) return;
    tickArmed_ = true;
    pleroma_->simulator().schedule(interval_, [this] {
      tickArmed_ = false;
      if (!running_) return;
      tick();
      armTick();
    });
  }

  void tick() {
    SpanScope span(rec_, tickSpan_);
    ++ticks_;
    congestion_->sampleOnce();
    loadMonitor_->sample();
    loadMonitor_->rebalanceOnce();
  }

  SpanRecorder* rec_;
  SpanRecorder::NameId tickSpan_;
  std::unique_ptr<core::Pleroma> pleroma_;
  // Declared after pleroma_, so destroyed first; no tick runs after that.
  std::unique_ptr<net::CongestionMonitor> congestion_;
  std::unique_ptr<ctrl::LoadMonitor> loadMonitor_;
  net::SimTime interval_ = 0;
  bool running_ = false;
  bool tickArmed_ = false;
  std::uint64_t ticks_ = 0;
};

/// interop::MultiDomain over contiguous switch blocks (switch i of n goes
/// to partition i*k/n). MultiDomain has no delivery accounting of its own,
/// so the hook classifies false positives against the live subscriptions.
class MultiTarget final : public Target {
 public:
  MultiTarget(const scenario::Scenario& s, DeliveryLedger& ledger) : ledger_(ledger) {
    net::Topology topo = s.buildTopology();
    const std::vector<net::NodeId> switches = topo.switches();
    std::vector<interop::PartitionId> partitionOf(
        static_cast<std::size_t>(topo.nodeCount()), 0);
    for (std::size_t i = 0; i < switches.size(); ++i) {
      partitionOf[static_cast<std::size_t>(switches[i])] =
          static_cast<interop::PartitionId>(
              i * static_cast<std::size_t>(s.partitions) / switches.size());
    }
    subsByHost_.resize(static_cast<std::size_t>(topo.nodeCount()));
    domain_ = std::make_unique<interop::MultiDomain>(
        std::move(topo), std::move(partitionOf),
        dz::EventSpace(s.numAttributes, s.bitsPerDim), controllerConfig(s));
    domain_->network().setDeliverHandler(
        [this](net::NodeId host, const net::Packet& packet) { onDeliver(host, packet); });
  }

  void advertise(net::NodeId host, const dz::Rectangle& rect) override {
    domain_->advertise(host, rect);
  }
  std::uint64_t subscribe(net::NodeId host, const dz::Rectangle& rect) override {
    const std::uint64_t handle = handles_.size();
    handles_.push_back({domain_->subscribe(host, rect), host});
    subsByHost_[static_cast<std::size_t>(host)].push_back({handle, rect});
    return handle;
  }
  void unsubscribe(std::uint64_t handle) override {
    const Handle& h = handles_[static_cast<std::size_t>(handle)];
    domain_->unsubscribe(h.id);
    std::erase_if(subsByHost_[static_cast<std::size_t>(h.host)],
                  [handle](const HostSub& hs) { return hs.handle == handle; });
  }
  void publish(net::NodeId host, const dz::Event& event, net::EventId id) override {
    domain_->publish(host, event, id);
  }
  void settle() override { domain_->settle(); }
  void settleUntil(net::SimTime t) override { domain_->simulator().runUntil(t); }
  net::Network& network() override { return domain_->network(); }
  std::vector<ctrl::Controller*> controllers() override {
    std::vector<ctrl::Controller*> out;
    for (std::size_t p = 0; p < domain_->partitionCount(); ++p) {
      out.push_back(&domain_->controller(static_cast<interop::PartitionId>(p)));
    }
    return out;
  }
  std::uint64_t controlMessages() override { return domain_->totalControlMessages(); }

 private:
  struct Handle {
    interop::GlobalSubscriptionId id;
    net::NodeId host;
  };
  struct HostSub {
    std::uint64_t handle;
    dz::Rectangle rect;
  };

  void onDeliver(net::NodeId host, const net::Packet& packet) {
    if (!packet.payload) return;
    const auto& subs = subsByHost_[static_cast<std::size_t>(host)];
    const bool match = std::any_of(subs.begin(), subs.end(), [&](const HostSub& hs) {
      return hs.rect.contains(packet.event());
    });
    ledger_.onDeliver(host, packet.eventId(),
                      domain_->simulator().now() - packet.sentAt(), !match);
  }

  DeliveryLedger& ledger_;
  std::unique_ptr<interop::MultiDomain> domain_;
  std::vector<Handle> handles_;
  std::vector<std::vector<HostSub>> subsByHost_;  ///< by NodeId
};

// ---- spans -----------------------------------------------------------------

struct SpanNames {
  SpanRecorder::NameId workload = 0, setup = 0, run = 0, advertise = 0,
                       subscribe = 0, unsubscribe = 0, publish = 0, settle = 0,
                       rebalance = 0;
  std::vector<SpanRecorder::NameId> phase;

  SpanNames(SpanRecorder* rec, std::size_t phases) {
    if (rec == nullptr) {
      phase.assign(phases, 0);
      return;
    }
    workload = rec->intern("workload");
    setup = rec->intern("setup");
    run = rec->intern("run");
    advertise = rec->intern("controller.advertise");
    subscribe = rec->intern("controller.subscribe");
    unsubscribe = rec->intern("controller.unsubscribe");
    publish = rec->intern("core.publish");
    settle = rec->intern("net.settle");
    rebalance = rec->intern("controller.rebalance");
    for (std::size_t p = 0; p < phases; ++p) {
      phase.push_back(rec->intern("phase[" + std::to_string(p) + "]"));
    }
  }
};

/// The layers a traced run's time splits into, in report order.
constexpr const char* kLayerSpans[] = {"net.settle", "core.publish",
                                       "controller.advertise", "controller.subscribe",
                                       "controller.unsubscribe", "controller.rebalance"};

double nearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[rank - 1];
}

scenario::Scenario loadWorkload(const std::string& path, std::uint64_t seed) {
  std::string error;
  std::optional<scenario::Scenario> s = scenario::Scenario::loadFile(path, &error);
  if (!s.has_value()) throw std::runtime_error(error);
  s->seed = seed;
  if (!s->validate(&error)) throw std::runtime_error(path + ": " + error);
  if (!s->faults.empty() || s->needsFailover()) {
    throw std::runtime_error(path + ": fault schedules and failover are not benchmarked");
  }
  return *s;
}

}  // namespace

RepetitionResult runRepetition(const RepetitionConfig& config) {
  const scenario::Scenario s = loadWorkload(config.workloadFile, config.seed);
  const net::Topology topo = s.buildTopology();
  const std::vector<net::NodeId> hosts = topo.hosts();
  const Schedule sched = buildSchedule(s, hosts, config.smoke);
  DeliveryLedger ledger(hosts, topo.nodeCount(), sched.sampled);

  std::unique_ptr<SpanRecorder> recorder;
  if (config.traced) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = recorder.get();
  const SpanNames names(rec, sched.phases.size());

  std::unique_ptr<Target> target;
  std::vector<std::uint64_t> subHandles;  // by subscription ledger index
  struct {
    std::uint64_t advertise = 0, subscribe = 0, unsubscribe = 0;
  } calls;

  auto deploy = [&](const scenario::PhasePlan& plan) {
    for (const auto& [slot, rect] : plan.advertisements) {
      SpanScope span(rec, names.advertise);
      target->advertise(hosts[slot], rect);
    }
    for (const auto& [slot, rect] : plan.subscriptions) {
      SpanScope span(rec, names.subscribe);
      subHandles.push_back(target->subscribe(hosts[slot], rect));
    }
    calls.advertise += plan.advertisements.size();
    calls.subscribe += plan.subscriptions.size();
    SpanScope span(rec, names.settle);
    target->settle();
  };

  double setupSeconds = 0.0;
  double runSeconds = 0.0;
  std::uint64_t simEventsAtRunStart = 0;
  net::EventId nextId = 1;
  {
    SpanScope workloadSpan(rec, names.workload);
    const Clock::time_point setupStart = Clock::now();
    {
      SpanScope setupSpan(rec, names.setup);
      if (s.partitions > 1) {
        target = std::make_unique<MultiTarget>(s, ledger);
      } else {
        target = std::make_unique<SingleTarget>(s, ledger, rec, names.rebalance);
      }
      deploy(sched.phases[0]);
    }
    setupSeconds = secondsSince(setupStart);
    simEventsAtRunStart = target->network().simulator().processedEvents();

    const Clock::time_point runStart = Clock::now();
    {
      SpanScope runSpan(rec, names.run);
      for (std::size_t p = 0; p < sched.phases.size(); ++p) {
        SpanScope phaseSpan(rec, names.phase[p]);
        const scenario::PhasePlan& plan = sched.phases[p];
        if (p > 0) deploy(plan);
        for (const Move& move : sched.moves[p]) {
          {
            SpanScope span(rec, names.unsubscribe);
            target->unsubscribe(subHandles[move.sub]);
          }
          {
            SpanScope span(rec, names.subscribe);
            subHandles[move.sub] = target->subscribe(move.host, *move.rect);
          }
          SpanScope span(rec, names.settle);
          target->settle();
        }
        calls.subscribe += sched.moves[p].size();
        calls.unsubscribe += sched.moves[p].size();
        // Open loop in virtual time: each event is due one interval after
        // the previous one, whatever the network is doing.
        net::SimTime due = target->network().simulator().now();
        for (std::size_t i = 0; i < plan.events.size(); ++i, ++nextId) {
          due += plan.eventInterval;
          {
            SpanScope span(rec, names.settle);
            target->settleUntil(due);
          }
          SpanScope span(rec, names.publish, nextId);
          target->publish(sched.publishers[p][i], plan.events[i], nextId);
        }
        SpanScope span(rec, names.settle);
        target->settle();
      }
    }
    runSeconds = secondsSince(runStart);
  }

  RepetitionResult result;
  auto put = [&](const std::string& name, double value) {
    result.metrics.emplace_back(name, value);
  };
  auto fail = [&](const std::string& what) {
    result.errors.push_back(s.name + ": " + what);
  };

  // ---- delivery oracle ---------------------------------------------------
  std::uint64_t expectedPairs = 0, missedPairs = 0;
  for (std::size_t w = 0; w < sched.expected.size(); ++w) {
    expectedPairs += static_cast<std::uint64_t>(std::popcount(sched.expected[w]));
    missedPairs += static_cast<std::uint64_t>(
        std::popcount(sched.expected[w] & ~ledger.delivered()[w]));
  }
  const double lossRatio = expectedPairs == 0 ? 0.0
                                              : static_cast<double>(missedPairs) /
                                                    static_cast<double>(expectedPairs);
  result.attempted = expectedPairs;
  if (missedPairs > 0 && s.network.linkQueueCapacity == 0) {
    result.failed = missedPairs;
    fail("oracle: " + std::to_string(missedPairs) + " of " +
         std::to_string(expectedPairs) +
         " in-contract (event, host) pairs undelivered without finite link queues");
  }

  // ---- conservation at quiescence ----------------------------------------
  net::Network& network = target->network();
  const net::NetworkCounters& nc = network.counters();
  const std::uint64_t born = nc.packetsSentFromHosts + nc.packetsInjectedByController +
                             nc.packetsForwarded;
  const std::uint64_t ended = nc.packetsDeliveredToHosts + nc.packetsPuntedToController +
                              nc.packetsConsumedAtSwitch + nc.totalDropped() +
                              network.missBufferedPackets() +
                              network.backpressureParkedPackets();
  if (born != ended) {
    fail("conservation: " + std::to_string(born) + " packets born, " +
         std::to_string(ended) + " accounted for");
  }

  // ---- metrics every repetition reports ------------------------------------
  const std::vector<ctrl::Controller*> controllers = target->controllers();
  std::uint64_t flowMods = 0, trees = 0, flowStateBytes = 0;
  for (const ctrl::Controller* c : controllers) {
    flowMods += c->controlStats().flowModsSent;
    trees += c->treeCount();
    flowStateBytes += c->flowStateBytes();
  }
  std::uint64_t lookups = 0, hits = 0, probes = 0;
  for (const net::NodeId sw : topo.switches()) {
    const net::FlowTableStats& st = network.flowTable(sw).stats();
    lookups += st.lookups;
    hits += st.hits;
    probes += st.probes;
  }
  const std::uint64_t simEvents =
      network.simulator().processedEvents() - simEventsAtRunStart;
  const LatencyHistogram& lat = ledger.latency();
  const double fpr = ledger.deliveries() == 0
                         ? 0.0
                         : static_cast<double>(ledger.falsePositives()) /
                               static_cast<double>(ledger.deliveries());
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };

  put("setup_s", setupSeconds);
  put("run_s", runSeconds);
  put("delivery_p50_us", static_cast<double>(lat.quantileNs(0.50)) / 1e3);
  put("delivery_p99_us", static_cast<double>(lat.quantileNs(0.99)) / 1e3);
  put("delivery_mean_us", lat.meanNs() / 1e3);
  put("loss_ratio", lossRatio);
  put("fpr", fpr);
  put("flow_mods", static_cast<double>(flowMods));
  put("tcam_peak_entries", static_cast<double>(network.peakFlowEntries()));
  put("control_messages", static_cast<double>(target->controlMessages()));

  put("bench.oracle.expected_pairs", static_cast<double>(expectedPairs));
  put("bench.oracle.missed_pairs", static_cast<double>(missedPairs));
  put("core.publish.calls", static_cast<double>(sched.events));
  put("controller.advertise.calls", static_cast<double>(calls.advertise));
  put("controller.subscribe.calls", static_cast<double>(calls.subscribe));
  put("controller.unsubscribe.calls", static_cast<double>(calls.unsubscribe));
  put("controller.flow_mods_per_op",
      ratio(flowMods, calls.advertise + calls.subscribe + calls.unsubscribe));
  put("controller.trees", static_cast<double>(trees));
  put("controller.flow_state_bytes", static_cast<double>(flowStateBytes));
  put("controller.rebalance.ticks", static_cast<double>(target->rebalanceTicks()));
  put("controller.rebalance.reroots", static_cast<double>(target->reroots()));
  put("net.sim.events", static_cast<double>(simEvents));
  put("net.flow_table.lookups", static_cast<double>(lookups));
  put("net.flow_table.hit_ratio", ratio(hits, lookups));
  put("net.flow_table.probes_per_lookup", ratio(probes, lookups));
  put("net.link.packets_forwarded", static_cast<double>(nc.packetsForwarded));
  put("net.link.bytes", static_cast<double>(network.totalLinkBytes()));
  put("net.link.peak_queue_depth", static_cast<double>(network.stats().peakLinkQueueDepth));
  put("net.link.bp_parks", static_cast<double>(nc.packetsParkedOnBackpressure));
  put("net.link.bp_retries", static_cast<double>(nc.backpressureRetries));
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    const auto reason = static_cast<net::DropReason>(r);
    put(std::string("net.drops.") + net::dropReasonName(reason),
        static_cast<double>(nc.dropped(reason)));
  }
  put("net.host.delivered", static_cast<double>(ledger.deliveries()));
  put("net.host.useful_ratio", ledger.deliveries() == 0 ? 1.0 : 1.0 - fpr);
  put("interop.control_messages", static_cast<double>(target->controlMessages()));

  if (rec == nullptr) return result;

  // ---- traced: layer self times ------------------------------------------
  const std::vector<SpanRecorder::Span>& spans = rec->spans();
  const std::vector<std::int64_t> self = rec->selfTimes();
  // section[i]: the child of the root span (setup or run) span i lies under.
  std::vector<std::uint32_t> section(spans.size(), SpanRecorder::kNoParent);
  std::map<std::string, double> runSelf;  // by span name, run section only
  double controllerSetupSelf = 0.0;
  double driverSelf = 0.0;
  // Controller spans over the whole repetition, setup included.
  std::map<std::string, double> controllerSelf;
  std::map<std::string, std::vector<double>> opDurationsUs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& sp = spans[i];
    if (sp.parent == SpanRecorder::kNoParent) continue;
    section[i] = spans[sp.parent].parent == SpanRecorder::kNoParent
                     ? static_cast<std::uint32_t>(i)
                     : section[sp.parent];
    const std::string& name = rec->name(sp.name);
    const double selfS = static_cast<double>(self[i]) / 1e9;
    if (name.rfind("controller.", 0) == 0) {
      controllerSelf[name] += selfS;
      opDurationsUs[name].push_back(static_cast<double>(sp.endNs - sp.startNs) / 1e3);
    }
    if (spans[section[i]].name == names.setup) {
      if (name.rfind("controller.", 0) == 0) controllerSetupSelf += selfS;
    } else if (sp.name == names.run || name.rfind("phase[", 0) == 0) {
      driverSelf += selfS;
    } else {
      runSelf[name] += selfS;
    }
  }

  obs::JsonValue layers = obs::JsonValue::array();
  double layerSum = driverSelf;
  for (const char* layer : kLayerSpans) {
    const double v = runSelf[layer];
    layerSum += v;
    obs::JsonValue row = obs::JsonValue::object();
    row.set("layer", layer);
    row.set("self_s", v);
    row.set("share", runSeconds > 0 ? v / runSeconds : 0.0);
    layers.push_back(std::move(row));
  }
  obs::JsonValue driverRow = obs::JsonValue::object();
  driverRow.set("layer", "bench.driver");
  driverRow.set("self_s", driverSelf);
  driverRow.set("share", runSeconds > 0 ? driverSelf / runSeconds : 0.0);
  layers.push_back(std::move(driverRow));
  if (std::abs(layerSum - runSeconds) > 0.01 * runSeconds) {
    fail("layer self times sum to " + std::to_string(layerSum) + " s, run took " +
         std::to_string(runSeconds) + " s");
  }

  const double publishSelf = runSelf["core.publish"];
  const double settleSelf = runSelf["net.settle"];
  put("core.publish.self_s", publishSelf);
  put("core.publish.ns_per_call",
      sched.events == 0 ? 0.0 : publishSelf * 1e9 / static_cast<double>(sched.events));
  for (const char* op : {"advertise", "subscribe", "unsubscribe"}) {
    const std::string p = std::string("controller.") + op;
    put(p + ".self_s", controllerSelf[p]);
    put(p + ".p50_us", nearestRank(opDurationsUs[p], 0.50));
    put(p + ".p90_us", nearestRank(opDurationsUs[p], 0.90));
  }
  double controllerTotal = 0.0;
  for (const auto& [name, v] : controllerSelf) controllerTotal += v;
  put("controller.self_s", controllerTotal);
  put("controller.setup_self_s", controllerSetupSelf);
  put("controller.rebalance.self_s", controllerSelf["controller.rebalance"]);
  put("net.settle.self_s", settleSelf);
  put("net.sim.ns_per_event",
      simEvents == 0 ? 0.0 : settleSelf * 1e9 / static_cast<double>(simEvents));
  put("bench.driver_self_s", driverSelf);

  // ---- traced: replay probes on the state the run left behind -------------
  // The flow-table counters above were read before these lookups.
  const ctrl::Controller& stamper = *controllers.front();
  std::vector<const dz::Event*> events;
  for (const scenario::PhasePlan& plan : sched.phases) {
    for (const dz::Event& e : plan.events) events.push_back(&e);
  }
  std::uint64_t sink = 0;
  Clock::time_point t0 = Clock::now();
  for (const dz::Event* e : events) {
    sink += static_cast<std::uint64_t>(stamper.stampEvent(*e).length());
  }
  const double stampNs = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  put("dz.stamp.ns_per_call",
      events.empty() ? 0.0 : stampNs / static_cast<double>(events.size()));

  constexpr std::size_t kReplayAddresses = 4096;
  std::vector<dz::Ipv6Address> addresses;
  for (std::size_t i = 0; i < events.size() && i < kReplayAddresses; ++i) {
    addresses.push_back(dz::dzToAddress(stamper.stampEvent(*events[i])));
  }
  const std::vector<net::NodeId> switches = topo.switches();
  t0 = Clock::now();
  for (const net::NodeId sw : switches) {
    const net::FlowTable& table = network.flowTable(sw);
    for (const dz::Ipv6Address& a : addresses) sink += table.lookup(a) != nullptr ? 1 : 0;
  }
  const double lookupNs = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  const std::size_t replayed = addresses.size() * switches.size();
  const double nsPerLookup = replayed == 0 ? 0.0 : lookupNs / static_cast<double>(replayed);
  put("net.flow_table.lookup_ns", nsPerLookup);
  put("net.flow_table.est_share",
      settleSelf <= 0 ? 0.0 : static_cast<double>(lookups) * nsPerLookup / (settleSelf * 1e9));
  const volatile std::uint64_t keepReplaysLive = sink;
  (void)keepReplaysLive;

  if (!config.traceDir.empty()) {
    const std::string base = config.traceDir + "/";
    if (!rec->writeChromeTrace(base + "trace_" + s.name + ".json")) {
      fail("cannot write " + base + "trace_" + s.name + ".json");
    }
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("workload", s.name);
    doc.set("seed", static_cast<unsigned long long>(config.seed));
    doc.set("run_s", runSeconds);
    doc.set("layers", std::move(layers));
    std::ofstream out(base + "layers_" + s.name + ".json");
    out << doc.dump(2) << "\n";
    if (!out) fail("cannot write " + base + "layers_" + s.name + ".json");
  }
  return result;
}

}  // namespace pleroma::e2e
