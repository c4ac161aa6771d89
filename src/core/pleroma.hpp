// The public PLEROMA middleware API, one deployment facade for 1..N
// independently controlled partitions. Wraps topology instantiation, the
// SDN controllers, and the data-plane simulation behind the
// publish/subscribe operations of the paper: advertise / publish on the
// producer side, subscribe / deliver on the consumer side, plus
// false-positive accounting, latency metrics, tracing, metrics, and the
// periodic dimension-selection hook (Sec 5).
//
// Every deployment is an interop::MultiDomain over this instance's own
// simulator and network, one controller per partition (Sec 4). The default
// PleromaOptions::partitions = 1 is a partition set of one: one controller,
// no border ports and no relays. Members that need the one controller
// (controller(), unadvertise, reindex, dimension selection) throw
// std::logic_error on more than one partition, and failover() is null
// there.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "controller/controller.hpp"
#include "controller/failover.hpp"
#include "controller/standby.hpp"
#include "dimsel/dimension_selection.hpp"
#include "interop/multi_domain.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pleroma::core {

/// Controller high-availability options (DESIGN.md §11). When enabled, the
/// instance constructs a hot-standby replica that mirrors the controller's
/// command stream plus a FailoverManager that heartbeats it once
/// failover()->start() arms it; on detection of a controller death the
/// standby is promoted and reconciles the switches' surviving TCAM state
/// against the mirrored intent.
struct FailoverOptions {
  bool enableStandby = false;
  ctrl::FailoverConfig config;
};

struct PleromaOptions {
  int numAttributes = 2;
  int bitsPerDim = 10;
  /// Independently controlled partitions (Sec 4), assigned by
  /// interop::contiguousPartitions. Failover needs a single partition.
  int partitions = 1;
  ctrl::ControllerConfig controller;
  net::NetworkConfig network;
  FailoverOptions failover;
  /// Size of the sliding event window kept for dimension selection (eta).
  std::size_t dimensionWindow = 256;
};

/// One delivered (event, host) pair as observed at the application layer.
struct DeliveryRecord {
  net::NodeId host = net::kInvalidNode;
  net::EventId eventId = 0;
  net::SimTime latency = 0;
  /// True when no subscription at the host actually matches the event —
  /// the event is an (expected, dz-truncation-induced) false positive.
  bool falsePositive = false;
};

struct DeliveryStats {
  std::uint64_t delivered = 0;
  std::uint64_t falsePositives = 0;
  net::SimTime latencySum = 0;

  double falsePositiveRate() const noexcept {
    return delivered == 0
               ? 0.0
               : static_cast<double>(falsePositives) / static_cast<double>(delivered);
  }
  double meanLatencyUs() const noexcept {
    return delivered == 0 ? 0.0
                          : static_cast<double>(latencySum) /
                                static_cast<double>(delivered) / 1000.0;
  }
};

class Pleroma {
 public:
  using DeliveryCallback = std::function<void(const DeliveryRecord&)>;

  /// Throws std::invalid_argument for partitions < 1, or for a standby
  /// with partitions > 1.
  Pleroma(net::Topology topology, PleromaOptions options = {});

  // ---- pub/sub operations ---------------------------------------------

  // With partitions > 1, advertise and subscribe relay the registration
  // to the other partitions before they return. The ids they return are
  // this instance's own, unique across partitions; on one partition they
  // equal the controller's. Both throw std::invalid_argument when `rect`
  // does not have one range per attribute (PleromaOptions::numAttributes).

  ctrl::PublisherId advertise(net::NodeId host, const dz::Rectangle& rect);
  /// Returns whether `id` was a live publisher. Throws std::logic_error on
  /// more than one partition, like every member that needs controller().
  bool unadvertise(ctrl::PublisherId id);
  ctrl::SubscriptionId subscribe(net::NodeId host, const dz::Rectangle& rect);
  /// Returns whether `id` was a live subscription.
  bool unsubscribe(ctrl::SubscriptionId id);

  /// Publishes one event from `host` into the data plane, stamped by the
  /// controller of the host's partition. Assigns the event id automatically
  /// when `id` is 0.
  net::EventId publish(net::NodeId host, const dz::Event& event,
                       net::EventId id = 0);

  /// Runs the simulator until all in-flight packets have been delivered.
  void settle() { sim_.run(); }
  /// Runs the simulator up to the given virtual time.
  void settleUntil(net::SimTime t) { sim_.runUntil(t); }

  void setDeliveryCallback(DeliveryCallback cb) { callback_ = std::move(cb); }

  // ---- dimension selection (Sec 5) --------------------------------------

  /// Re-runs spectral dimension selection over the recent event window and
  /// re-indexes the controller when the selected set changed. Returns the
  /// selected dimensions.
  std::vector<int> runDimensionSelection(double threshold = 0.9);

  /// Explicitly re-index on the given dimensions.
  void reindex(const std::vector<int>& dims) { controller().reindex(dims); }

  /// Enables the paper's periodic adaptation: every `everyNEvents`
  /// publications the controller re-runs dimension selection over the
  /// recent window and re-indexes when the selected set changed ("a
  /// controller periodically collects information about the events
  /// disseminated ... and repeats the dimension selection process", Sec 5).
  /// Pass 0 to disable.
  void setAutoDimensionSelection(std::size_t everyNEvents, double threshold = 0.9) {
    autoDimselEvery_ = everyNEvents;
    autoDimselThreshold_ = threshold;
    publishesSinceDimsel_ = 0;
  }

  /// Number of re-index operations the automatic selection performed.
  std::size_t autoReindexCount() const noexcept { return autoReindexCount_; }

  // ---- metrics ----------------------------------------------------------

  const DeliveryStats& deliveryStats() const noexcept { return stats_; }
  /// Zeroes the delivery stats and the delivery-latency histogram. Callers
  /// that need exact per-delivery samples collect them through
  /// setDeliveryCallback.
  void resetDeliveryStats() noexcept {
    stats_ = DeliveryStats{};
    latency_ = obs::Histogram{};
  }

  // ---- observability ----------------------------------------------------

  /// Hop-by-hop event / controller-op tracer. Disabled by default; enable
  /// with tracer().setEnabled(true) before publishing/registering.
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// The one metrics exporter: builds a registry from the layers' own
  /// stats — delivery stats and latency ("core.*"), flow tables summed over
  /// the switches ("flow_table.*"), the channel, controller and installer
  /// counters of each partition's controller in charge, summed
  /// ("ctrl_channel.*", "controller.*", "flow_installer.*"; plus
  /// "interop.control_messages" on more than one partition), failover
  /// ("failover.*", when enabled), the simulator ("sim.*") and the network
  /// counters ("net.*").
  obs::MetricsRegistry snapshotMetrics();

  // ---- access to the layers ---------------------------------------------

  /// The controller currently in charge: the original until a failover
  /// promotion, the promoted replica after. Throws std::logic_error on a
  /// deployment of more than one partition.
  ctrl::Controller& controller() {
    if (domain_->partitionCount() > 1) {
      throw std::logic_error("needs a single-partition deployment");
    }
    return domain_->controller(0);
  }
  /// Failover layer, present only with FailoverOptions::enableStandby.
  ctrl::FailoverManager* failover() noexcept { return failover_.get(); }
  ctrl::StandbyController* standby() noexcept { return standby_.get(); }
  net::Network& network() noexcept { return *network_; }
  net::Simulator& simulator() noexcept { return sim_; }
  const net::Topology& topology() const { return network_->topology(); }

 private:
  /// One host's live subscriptions for the delivery hot path: subscription
  /// ids[i] owns ranges[i * numAttributes_, (i + 1) * numAttributes_), so
  /// the false-positive check scans one contiguous array (DESIGN.md §12).
  struct HostBoxes {
    std::vector<ctrl::SubscriptionId> ids;
    std::vector<dz::Range> ranges;
  };

  void onDeliver(net::NodeId host, const net::Packet& packet);
  /// Whether any of `boxes` contains `event`.
  bool anyBoxContains(const HostBoxes& boxes,
                      const dz::Event& event) const noexcept;

  obs::Tracer tracer_;
  net::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<interop::MultiDomain> domain_;
  /// The partition-local handle of each subscription id this instance
  /// handed out (ids index this vector). Publisher ids count the
  /// advertisements; on one partition both equal the controller's ids.
  std::vector<interop::GlobalSubscriptionId> domainSubs_;
  ctrl::PublisherId domainPublishers_ = 0;
  /// Failover layer (optional). Declared after domain_: the standby and
  /// manager reference partition 0's own controller.
  std::unique_ptr<ctrl::StandbyController> standby_;
  std::unique_ptr<ctrl::FailoverManager> failover_;
  std::map<ctrl::SubscriptionId, std::pair<net::NodeId, dz::Rectangle>> subs_;
  /// The live subscriptions by host (NodeId), as HostBoxes; subs_ keeps
  /// their rectangles for the cold paths.
  std::vector<HostBoxes> boxesByHost_;
  std::size_t numAttributes_;
  DeliveryCallback callback_;
  DeliveryStats stats_;
  obs::Histogram latency_;  ///< delivery latency (ns), alongside stats_
  std::uint64_t publishes_ = 0;
  std::deque<dz::Event> eventWindow_;
  std::size_t dimensionWindow_;
  net::EventId nextEventId_ = 1;
  std::size_t autoDimselEvery_ = 0;
  double autoDimselThreshold_ = 0.9;
  std::size_t publishesSinceDimsel_ = 0;
  std::size_t autoReindexCount_ = 0;
  std::size_t reindexes_ = 0;
};

}  // namespace pleroma::core
