// Identifiers and small shared records of the PLEROMA controller.
#pragma once

#include <cstdint>
#include <optional>

#include "dz/ip_encoding.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"

namespace pleroma::ctrl {

/// Handle for a registered advertisement (one publisher role).
using PublisherId = std::int64_t;
/// Handle for a registered subscription.
using SubscriptionId = std::int64_t;

inline constexpr PublisherId kInvalidPublisher = -1;
inline constexpr SubscriptionId kInvalidSubscription = -1;

/// Where a publisher/subscriber hangs off the switch network. A real host
/// attaches via its access link and needs the terminal destination rewrite
/// to its unicast address (Sec 3.3.2); a *virtual host* (Sec 4.2) is a
/// border-gateway port: events leave through it with the dz address intact
/// so the neighbouring partition's flows can keep forwarding them.
struct Endpoint {
  net::NodeId attachSwitch = net::kInvalidNode;
  net::PortId port = net::kInvalidPort;
  /// Set for real hosts (rewrite on the terminal switch); empty for
  /// virtual hosts.
  std::optional<dz::Ipv6Address> rewrite;
  /// The real host node, when there is one (for delivery accounting).
  net::NodeId host = net::kInvalidNode;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Control-plane cost of one (un)subscribe/(un)advertise operation;
/// the quantity behind the reconfiguration-delay experiment (Fig 7f).
struct OpStats {
  std::uint64_t flowAdds = 0;
  std::uint64_t flowModifies = 0;
  std::uint64_t flowDeletes = 0;
  net::SimTime modeledInstallTime = 0;
  int treesCreated = 0;
  int treesJoined = 0;

  std::uint64_t totalFlowMods() const noexcept {
    return flowAdds + flowModifies + flowDeletes;
  }
};

/// Lifetime counters of one controller's registration and tree machinery
/// (exported as "controller.*" by the metrics snapshot).
struct ControllerStats {
  std::uint64_t ops = 0;  ///< registration operations (advertise, subscribe, un-*)
  std::uint64_t treesCreated = 0;
  std::uint64_t treesJoined = 0;
  std::uint64_t treeMerges = 0;
  std::uint64_t treeReroots = 0;
  std::uint64_t treeRebuilds = 0;
  std::uint64_t reindexes = 0;
  /// One sample per registration operation: its flow-mod count and its
  /// modelled install time (ns).
  obs::Histogram flowModsPerOp;
  obs::Histogram opInstallTimeNs;
};

}  // namespace pleroma::ctrl
