#include "core/pleroma.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pleroma::core {

namespace {

void requireOneRangePerAttribute(const dz::Rectangle& rect,
                                 std::size_t numAttributes) {
  if (rect.ranges.size() != numAttributes) {
    throw std::invalid_argument(
        "rectangle has " + std::to_string(rect.ranges.size()) +
        " ranges, the event space " + std::to_string(numAttributes) +
        " attributes");
  }
}

}  // namespace

Pleroma::Pleroma(net::Topology topology, PleromaOptions options)
    : numAttributes_(static_cast<std::size_t>(options.numAttributes)),
      dimensionWindow_(options.dimensionWindow) {
  if (options.partitions > 1 && options.failover.enableStandby) {
    throw std::invalid_argument("controller failover is single-partition only");
  }
  network_ = std::make_unique<net::Network>(std::move(topology), sim_,
                                            options.network);
  boxesByHost_.resize(
      static_cast<std::size_t>(network_->topology().nodeCount()));
  domain_ = std::make_unique<interop::MultiDomain>(
      *network_,
      interop::contiguousPartitions(network_->topology(), options.partitions),
      dz::EventSpace(options.numAttributes, options.bitsPerDim),
      options.controller);
  for (std::size_t p = 0; p < domain_->partitionCount(); ++p) {
    domain_->controller(static_cast<interop::PartitionId>(p))
        .setTracer(&tracer_);
  }
  network_->setDeliverHandler(
      [this](net::NodeId host, const net::Packet& pkt) { onDeliver(host, pkt); });
  network_->setTracer(&tracer_);

  if (options.failover.enableStandby) {
    // The standby must attach before any registration (its replay starts
    // from an empty history); constructing it here guarantees that.
    ctrl::Controller& primary = domain_->controller(0);
    standby_ = std::make_unique<ctrl::StandbyController>(primary);
    failover_ = std::make_unique<ctrl::FailoverManager>(
        primary, *standby_, options.failover.config);
    // The promoted replica takes the partition over: registrations,
    // stamping and controller() follow it.
    failover_->setPromotionCallback([this](ctrl::Controller& promoted) {
      promoted.setTracer(&tracer_);
      domain_->setController(0, promoted);
    });
  }
}

ctrl::PublisherId Pleroma::advertise(net::NodeId host, const dz::Rectangle& rect) {
  requireOneRangePerAttribute(rect, numAttributes_);
  domain_->advertise(host, rect);
  return domainPublishers_++;
}

bool Pleroma::unadvertise(ctrl::PublisherId id) {
  return controller().unadvertise(id);
}

ctrl::SubscriptionId Pleroma::subscribe(net::NodeId host,
                                        const dz::Rectangle& rect) {
  requireOneRangePerAttribute(rect, numAttributes_);
  const auto id = static_cast<ctrl::SubscriptionId>(domainSubs_.size());
  domainSubs_.push_back(domain_->subscribe(host, rect));
  subs_.emplace(id, std::make_pair(host, rect));
  HostBoxes& boxes = boxesByHost_[static_cast<std::size_t>(host)];
  boxes.ids.push_back(id);
  boxes.ranges.insert(boxes.ranges.end(), rect.ranges.begin(), rect.ranges.end());
  return id;
}

bool Pleroma::unsubscribe(ctrl::SubscriptionId id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  domain_->unsubscribe(domainSubs_[static_cast<std::size_t>(id)]);
  // Swap-remove: the last subscription's id and box fill the hole.
  HostBoxes& boxes = boxesByHost_[static_cast<std::size_t>(it->second.first)];
  const std::size_t pos = static_cast<std::size_t>(
      std::find(boxes.ids.begin(), boxes.ids.end(), id) - boxes.ids.begin());
  const std::size_t last = boxes.ids.size() - 1;
  boxes.ids[pos] = boxes.ids[last];
  boxes.ids.pop_back();
  std::copy_n(&boxes.ranges[last * numAttributes_], numAttributes_,
              &boxes.ranges[pos * numAttributes_]);
  boxes.ranges.resize(last * numAttributes_);
  subs_.erase(it);
  return true;
}

net::EventId Pleroma::publish(net::NodeId host, const dz::Event& event,
                              net::EventId id) {
  if (id == 0) id = nextEventId_++;
  ++publishes_;
  net::Packet packet = domain_->controller(domain_->partitionOfHost(host))
                           .makeEventPacket(host, event, id);
  if (tracer_.enabled()) {
    // Root of the event's data-plane span tree: traceId = event id.
    const obs::SpanId root = tracer_.instant(id, obs::kNoSpan, "publish",
                                             sim_.now(), host);
    tracer_.annotate(root, "dz", packet.eventDz().toString());
    packet.traceSpan = root;
  }
  network_->sendFromHost(host, std::move(packet));
  eventWindow_.push_back(event);
  while (eventWindow_.size() > dimensionWindow_) eventWindow_.pop_front();
  if (autoDimselEvery_ != 0 && ++publishesSinceDimsel_ >= autoDimselEvery_) {
    publishesSinceDimsel_ = 0;
    const std::size_t reindexesBefore = reindexes_;
    runDimensionSelection(autoDimselThreshold_);
    if (reindexes_ != reindexesBefore) ++autoReindexCount_;
  }
  return id;
}

bool Pleroma::anyBoxContains(const HostBoxes& boxes,
                             const dz::Event& event) const noexcept {
  // Every live box has numAttributes_ ranges, so an event of another width
  // lies in none of them (as Rectangle::contains has it).
  if (event.size() != numAttributes_) return false;
  const dz::AttributeValue* v = event.data();
  const dz::Range* box = boxes.ranges.data();
  for (std::size_t i = 0; i < boxes.ids.size(); ++i, box += numAttributes_) {
    // The dimensions are folded with `&`, not `&&`: one branch per box.
    bool inside = true;
    for (std::size_t d = 0; d < numAttributes_; ++d) {
      inside &= (box[d].lo <= v[d]) & (v[d] <= box[d].hi);
    }
    if (inside) return true;
  }
  return false;
}

void Pleroma::onDeliver(net::NodeId host, const net::Packet& packet) {
  DeliveryRecord rec;
  rec.host = host;
  rec.eventId = packet.eventId();
  rec.latency = sim_.now() - packet.sentAt();

  // A delivery is a false positive when no subscription registered at this
  // host actually matches the event's exact attribute values (Sec 6.4).
  rec.falsePositive = !anyBoxContains(
      boxesByHost_[static_cast<std::size_t>(host)], packet.event());

  ++stats_.delivered;
  if (rec.falsePositive) ++stats_.falsePositives;
  stats_.latencySum += rec.latency;
  latency_.record(static_cast<double>(rec.latency));
  if (tracer_.enabled()) {
    const obs::SpanId span = tracer_.instant(packet.eventId(), packet.traceSpan,
                                             "app_deliver", sim_.now(), host);
    if (rec.falsePositive) tracer_.annotate(span, "false_positive", "true");
  }
  if (callback_) callback_(rec);
}

obs::MetricsRegistry Pleroma::snapshotMetrics() {
  obs::MetricsRegistry reg;
  reg.counter("core.publishes").inc(publishes_);
  reg.counter("core.deliveries").inc(stats_.delivered);
  reg.counter("core.false_positive_deliveries").inc(stats_.falsePositives);
  reg.histogram("core.delivery_latency_ns") = latency_;

  net::FlowTableStats tables;
  for (const net::NodeId sw : topology().switches()) {
    const net::FlowTableStats& t = network_->flowTable(sw).stats();
    tables.lookups += t.lookups;
    tables.hits += t.hits;
    tables.misses += t.misses;
    tables.probes += t.probes;
  }
  reg.counter("flow_table.lookups").inc(tables.lookups);
  reg.counter("flow_table.hits").inc(tables.hits);
  reg.counter("flow_table.misses").inc(tables.misses);
  reg.gauge("flow_table.probes_per_lookup")
      .set(tables.lookups == 0 ? 0.0
                               : static_cast<double>(tables.probes) /
                                     static_cast<double>(tables.lookups));

  // The controller layer, summed over the partitions. On one partition
  // totalControlMessages() counts only local requests.
  if (domain_->partitionCount() > 1) {
    reg.counter("interop.control_messages")
        .inc(domain_->totalControlMessages());
  }
  for (std::size_t p = 0; p < domain_->partitionCount(); ++p) {
    const ctrl::Controller& ctl =
        domain_->controller(static_cast<interop::PartitionId>(p));
    const openflow::ControlPlaneStats& cs = ctl.controlStats();
    reg.counter("ctrl_channel.mods_sent").inc(cs.flowModsSent);
    reg.counter("ctrl_channel.mods_acked").inc(cs.flowModsAcked);
    reg.counter("ctrl_channel.mods_dropped").inc(cs.flowModsDropped);
    reg.counter("ctrl_channel.mods_retried").inc(cs.flowModsRetried);
    reg.counter("ctrl_channel.mods_abandoned").inc(cs.flowModsAbandoned);
    reg.counter("ctrl_channel.flow_stats_requests")
        .inc(cs.flowStatsRequests + cs.flowStatsBatches);

    const ctrl::ControllerStats& ct = ctl.stats();
    reg.counter("controller.ops").inc(ct.ops);
    reg.counter("controller.trees_created").inc(ct.treesCreated);
    reg.counter("controller.trees_joined").inc(ct.treesJoined);
    reg.counter("controller.tree_merges").inc(ct.treeMerges);
    reg.counter("controller.tree_reroots").inc(ct.treeReroots);
    reg.counter("controller.tree_rebuilds").inc(ct.treeRebuilds);
    reg.counter("controller.reindexes").inc(ct.reindexes);
    reg.histogram("controller.flow_mods_per_op").merge(ct.flowModsPerOp);
    reg.histogram("controller.op_install_time_ns").merge(ct.opInstallTimeNs);

    const ctrl::FlowInstaller::CaseStats& is = ctl.installer().caseStats();
    reg.counter("flow_installer.case1_fresh_add").inc(is.freshAdd);
    reg.counter("flow_installer.case2_covered").inc(is.covered);
    reg.counter("flow_installer.case3_subsumed_delete").inc(is.subsumedDelete);
    reg.counter("flow_installer.case4_extend").inc(is.extend);
    reg.counter("flow_installer.case5_shadow_modify").inc(is.shadowModify);
    reg.counter("flow_installer.reconcile_passes").inc(is.reconcilePasses);
    reg.counter("flow_installer.coarsen_passes")
        .inc(ctl.installer().coarsenStats().events);
  }

  if (failover_) {
    const ctrl::FailoverStats& fs = failover_->stats();
    reg.counter("failover.promotions").inc(fs.promotions);
    reg.counter("failover.heartbeats_sent").inc(fs.heartbeatsSent);
    reg.counter("failover.heartbeats_missed").inc(fs.heartbeatsMissed);
    reg.counter("failover.repair_mods").inc(fs.repairFlowMods);
    reg.counter("failover.events_replayed").inc(fs.eventsReplayed);
    // The latencies are measured by a promotion; 0 until one happened.
    const bool promoted = failover_->promoted();
    reg.gauge("failover.detection_latency")
        .set(promoted ? static_cast<double>(fs.detectionLatency()) : 0.0);
    reg.gauge("failover.window")
        .set(promoted ? static_cast<double>(fs.failoverWindow()) : 0.0);
  }

  reg.gauge("sim.events_executed")
      .set(static_cast<double>(sim_.processedEvents()));
  reg.gauge("sim.virtual_time_ns").set(static_cast<double>(sim_.now()));
  reg.gauge("sim.wall_time_ns")
      .set(static_cast<double>(sim_.wallTimeNanos()));
  reg.gauge("sim.virtual_wall_ratio")
      .set(sim_.wallTimeNanos() == 0
               ? 0.0
               : static_cast<double>(sim_.now()) /
                     static_cast<double>(sim_.wallTimeNanos()));
  const net::NetworkCounters& nc = network_->counters();
  reg.gauge("net.packets_forwarded")
      .set(static_cast<double>(nc.packetsForwarded));
  reg.gauge("net.packets_punted")
      .set(static_cast<double>(nc.packetsPuntedToController));
  reg.gauge("net.packets_delivered")
      .set(static_cast<double>(nc.packetsDeliveredToHosts));
  // One gauge per drop reason, named from the shared taxonomy so metrics,
  // the CLI `stats` command and bench reports agree on the labels.
  for (std::size_t r = 0; r < net::kDropReasonCount; ++r) {
    const auto reason = static_cast<net::DropReason>(r);
    reg.gauge(std::string("net.drops_") + net::dropReasonName(reason))
        .set(static_cast<double>(nc.dropped(reason)));
  }
  reg.gauge("net.drops_total")
      .set(static_cast<double>(nc.totalDropped()));
  reg.gauge("net.miss_buffered")
      .set(static_cast<double>(nc.packetsBufferedOnMiss));
  reg.gauge("net.miss_replayed")
      .set(static_cast<double>(nc.packetsReplayedFromMissBuffer));
  reg.gauge("net.link_bytes_total")
      .set(static_cast<double>(network_->totalLinkBytes()));
  const net::Network::Stats occupancy = network_->stats();
  reg.gauge("net.queued_hosts")
      .set(static_cast<double>(occupancy.hostQueued));
  reg.gauge("net.queued_links")
      .set(static_cast<double>(occupancy.linkQueued));
  reg.gauge("net.bp_parked")
      .set(static_cast<double>(occupancy.backpressureParked));
  reg.gauge("net.bp_retries")
      .set(static_cast<double>(nc.backpressureRetries));
  reg.gauge("net.peak_link_queue_depth")
      .set(static_cast<double>(occupancy.peakLinkQueueDepth));
  return reg;
}

std::vector<int> Pleroma::runDimensionSelection(double threshold) {
  std::vector<dz::Rectangle> rects;
  rects.reserve(subs_.size());
  for (const auto& [id, hostRect] : subs_) rects.push_back(hostRect.second);
  const std::vector<dz::Event> window(eventWindow_.begin(), eventWindow_.end());
  std::vector<int> dims = dimsel::selectDimensions(
      window, rects, controller().space().numAttributes(), threshold);
  if (dims.empty()) return dims;
  std::vector<int> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> current = controller().space().indexedDimensions();
  std::sort(current.begin(), current.end());
  if (sorted != current) {
    controller().reindex(dims);
    ++reindexes_;
  }
  return dims;
}

}  // namespace pleroma::core
