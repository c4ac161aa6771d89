#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

namespace pleroma::scenario {

namespace {

using obs::JsonValue;

bool fail(std::string* error, const std::string& path, const std::string& what) {
  if (error != nullptr) *error = path.empty() ? what : path + ": " + what;
  return false;
}

std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

std::string elem(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

/// Rejects keys outside `allowed` so a typo fails loudly instead of
/// silently running a different experiment.
bool checkKeys(const JsonValue& obj, const std::string& path,
               std::initializer_list<const char*> allowed, std::string* error) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; })) {
      return fail(error, join(path, key), "unknown field");
    }
  }
  return true;
}

bool needObject(const JsonValue* f, const std::string& path, std::string* error) {
  if (f == nullptr) return fail(error, path, "required object is missing");
  if (!f->isObject()) return fail(error, path, "expected an object");
  return true;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
/// Largest `*_us` value whose SimTime (nanoseconds) does not overflow.
constexpr std::int64_t kMaxMicros = kInt64Max / net::kMicrosecond;

/// Converts a `*_ms` double to SimTime. Fails when the nanosecond value
/// does not fit in int64 (where the cast is undefined) or is NaN.
bool millisToSimTime(double ms, net::SimTime* out, const std::string& path,
                     std::string* error) {
  const double ns = ms * static_cast<double>(net::kMillisecond);
  // 2^63 is the first double past INT64_MAX.
  if (!(ns < 0x1p63)) {
    return fail(error, path,
                "expected a number < 9223372036854.775 (nanoseconds must "
                "fit in int64)");
  }
  *out = static_cast<net::SimTime>(ns);
  return true;
}

/// Optional integer within [minValue, maxValue]; leaves *out untouched when
/// absent. `maxValue` is the limit of the field's destination, so the
/// caller's cast or unit conversion never narrows or overflows.
bool readIntRange(const JsonValue& obj, const char* key,
                  const std::string& path, std::int64_t minValue,
                  std::int64_t maxValue, std::int64_t* out,
                  std::string* error) {
  const JsonValue* f = obj.get(key);
  if (f == nullptr) return true;
  if (!f->isInt() || f->asInt() < minValue) {
    return fail(error, join(path, key),
                "expected an integer >= " + std::to_string(minValue));
  }
  if (f->asInt() > maxValue) {
    return fail(error, join(path, key),
                "expected an integer <= " + std::to_string(maxValue));
  }
  *out = f->asInt();
  return true;
}

/// Optional number (int or double); leaves *out untouched when absent.
bool readNum(const JsonValue& obj, const char* key, const std::string& path,
             double* out, std::string* error) {
  const JsonValue* f = obj.get(key);
  if (f == nullptr) return true;
  if (!f->isNumber()) return fail(error, join(path, key), "expected a number");
  *out = f->asDouble();
  return true;
}

bool readString(const JsonValue& obj, const char* key, const std::string& path,
                std::string* out, std::string* error) {
  const JsonValue* f = obj.get(key);
  if (f == nullptr) return true;
  if (!f->isString()) return fail(error, join(path, key), "expected a string");
  *out = f->asString();
  return true;
}

bool parseFamily(const std::string& text, Family* out) {
  if (text == "uniform") *out = Family::kUniform;
  else if (text == "zipfian") *out = Family::kZipfian;
  else if (text == "flash-crowd") *out = Family::kFlashCrowd;
  else if (text == "churn") *out = Family::kChurn;
  else if (text == "wide-event-space") *out = Family::kWideEventSpace;
  else return false;
  return true;
}

bool parseAction(const std::string& text, FaultAction* out) {
  if (text == "link-down") *out = FaultAction::kLinkDown;
  else if (text == "link-up") *out = FaultAction::kLinkUp;
  else if (text == "switch-down") *out = FaultAction::kSwitchDown;
  else if (text == "switch-up") *out = FaultAction::kSwitchUp;
  else if (text == "controller-kill") *out = FaultAction::kControllerKill;
  else return false;
  return true;
}

bool parseKind(const std::string& text, TopologyKind* out) {
  if (text == "testbed-fat-tree") *out = TopologyKind::kTestbedFatTree;
  else if (text == "fat-tree") *out = TopologyKind::kFatTree;
  else if (text == "k-ary-fat-tree") *out = TopologyKind::kKAryFatTree;
  else if (text == "ring") *out = TopologyKind::kRing;
  else if (text == "line") *out = TopologyKind::kLine;
  else if (text == "random") *out = TopologyKind::kRandom;
  else return false;
  return true;
}

bool parseTopology(const JsonValue& v, const std::string& path, TopologySpec* t,
                   std::string* error) {
  if (!checkKeys(v, path,
                 {"kind", "switches", "core", "aggregation", "edge_per_agg",
                  "hosts_per_edge", "k", "extra_links", "topo_seed",
                  "link_latency_us", "link_bandwidth_mbps"},
                 error)) {
    return false;
  }
  std::string kind;
  if (!readString(v, "kind", path, &kind, error)) return false;
  if (kind.empty()) return fail(error, join(path, "kind"), "required string is missing");
  if (!parseKind(kind, &t->kind)) {
    return fail(error, join(path, "kind"),
                "unknown topology '" + kind +
                    "' (expected testbed-fat-tree, fat-tree, k-ary-fat-tree, "
                    "ring, line, or random)");
  }
  std::int64_t i;
  i = t->switches;
  if (!readIntRange(v, "switches", path, 1, kIntMax, &i, error)) return false;
  t->switches = static_cast<int>(i);
  i = t->core;
  if (!readIntRange(v, "core", path, 1, kIntMax, &i, error)) return false;
  t->core = static_cast<int>(i);
  i = t->aggregation;
  if (!readIntRange(v, "aggregation", path, 1, kIntMax, &i, error)) return false;
  t->aggregation = static_cast<int>(i);
  i = t->edgePerAgg;
  if (!readIntRange(v, "edge_per_agg", path, 1, kIntMax, &i, error)) return false;
  t->edgePerAgg = static_cast<int>(i);
  i = t->hostsPerEdge;
  if (!readIntRange(v, "hosts_per_edge", path, 1, kIntMax, &i, error)) return false;
  t->hostsPerEdge = static_cast<int>(i);
  i = t->k;
  if (!readIntRange(v, "k", path, 2, kIntMax, &i, error)) return false;
  t->k = static_cast<int>(i);
  i = t->extraLinks;
  if (!readIntRange(v, "extra_links", path, 0, kIntMax, &i, error)) return false;
  t->extraLinks = static_cast<int>(i);
  i = static_cast<std::int64_t>(t->topoSeed);
  if (!readIntRange(v, "topo_seed", path, 0, kInt64Max, &i, error)) return false;
  t->topoSeed = static_cast<std::uint64_t>(i);
  i = t->linkLatency / net::kMicrosecond;
  if (!readIntRange(v, "link_latency_us", path, 1, kMaxMicros, &i, error)) return false;
  t->linkLatency = i * net::kMicrosecond;
  double mbps = t->linkBandwidthBps / 1e6;
  if (!readNum(v, "link_bandwidth_mbps", path, &mbps, error)) return false;
  if (mbps < 0) {
    return fail(error, join(path, "link_bandwidth_mbps"),
                "expected a number >= 0 (0 = infinite)");
  }
  t->linkBandwidthBps = mbps * 1e6;
  return true;
}

bool parsePhase(const JsonValue& v, const std::string& path, std::size_t index,
                PhaseSpec* ph, std::string* error) {
  if (!v.isObject()) return fail(error, path, "expected an object");
  if (!checkKeys(v, path,
                 {"name", "family", "advertisements", "subscriptions",
                  "events", "churn_moves", "event_interval_us", "selectivity",
                  "hotspots", "zipf_alpha", "hotspot_radius", "crowd_centre",
                  "crowd_radius", "uninformative_dims"},
                 error)) {
    return false;
  }
  ph->name = "phase" + std::to_string(index);
  if (!readString(v, "name", path, &ph->name, error)) return false;
  std::string family;
  if (!readString(v, "family", path, &family, error)) return false;
  if (family.empty()) {
    return fail(error, join(path, "family"), "required string is missing");
  }
  if (!parseFamily(family, &ph->family)) {
    return fail(error, join(path, "family"),
                "unknown family '" + family +
                    "' (expected uniform, zipfian, flash-crowd, churn, or "
                    "wide-event-space)");
  }
  std::int64_t i;
  i = 0;
  if (!readIntRange(v, "advertisements", path, 0, kInt64Max, &i, error)) return false;
  ph->advertisements = static_cast<std::size_t>(i);
  i = 0;
  if (!readIntRange(v, "subscriptions", path, 0, kInt64Max, &i, error)) return false;
  ph->subscriptions = static_cast<std::size_t>(i);
  i = 0;
  if (!readIntRange(v, "events", path, 0, kInt64Max, &i, error)) return false;
  ph->events = static_cast<std::size_t>(i);
  i = 0;
  if (!readIntRange(v, "churn_moves", path, 0, kInt64Max, &i, error)) return false;
  ph->churnMoves = static_cast<std::size_t>(i);
  i = ph->eventInterval / net::kMicrosecond;
  if (!readIntRange(v, "event_interval_us", path, 1, kMaxMicros, &i, error)) {
    return false;
  }
  ph->eventInterval = i * net::kMicrosecond;

  double d;
  if (v.contains("selectivity")) {
    d = 0;
    if (!readNum(v, "selectivity", path, &d, error)) return false;
    ph->selectivity = d;
  }
  if (v.contains("hotspots")) {
    i = 0;
    if (!readIntRange(v, "hotspots", path, 1, kIntMax, &i, error)) return false;
    ph->hotspots = static_cast<int>(i);
  }
  if (v.contains("zipf_alpha")) {
    d = 0;
    if (!readNum(v, "zipf_alpha", path, &d, error)) return false;
    ph->zipfAlpha = d;
  }
  if (v.contains("hotspot_radius")) {
    d = 0;
    if (!readNum(v, "hotspot_radius", path, &d, error)) return false;
    ph->hotspotRadius = d;
  }
  if (const JsonValue* f = v.get("crowd_centre")) {
    if (!f->isArray()) {
      return fail(error, join(path, "crowd_centre"),
                  "expected an array of numbers");
    }
    for (std::size_t c = 0; c < f->items().size(); ++c) {
      const JsonValue& cv = f->items()[c];
      if (!cv.isNumber()) {
        return fail(error, elem(join(path, "crowd_centre"), c),
                    "expected a number");
      }
      ph->crowdCentre.push_back(cv.asDouble());
    }
  }
  if (!readNum(v, "crowd_radius", path, &ph->crowdRadius, error)) return false;
  if (const JsonValue* f = v.get("uninformative_dims")) {
    if (!f->isArray()) {
      return fail(error, join(path, "uninformative_dims"),
                  "expected an array of integers");
    }
    for (std::size_t c = 0; c < f->items().size(); ++c) {
      const JsonValue& cv = f->items()[c];
      if (!cv.isInt()) {
        return fail(error, elem(join(path, "uninformative_dims"), c),
                    "expected an integer");
      }
      ph->uninformativeDims.push_back(static_cast<int>(cv.asInt()));
    }
  }
  return true;
}

bool parseFault(const JsonValue& v, const std::string& path, FaultSpec* fs,
                std::string* error) {
  if (!v.isObject()) return fail(error, path, "expected an object");
  if (!checkKeys(v, path, {"at_ms", "action", "target"}, error)) return false;
  const JsonValue* at = v.get("at_ms");
  if (at == nullptr || !at->isNumber() || at->asDouble() < 0) {
    return fail(error, join(path, "at_ms"), "expected a number >= 0");
  }
  if (!millisToSimTime(at->asDouble(), &fs->at, join(path, "at_ms"), error)) {
    return false;
  }
  std::string action;
  if (!readString(v, "action", path, &action, error)) return false;
  if (action.empty()) {
    return fail(error, join(path, "action"), "required string is missing");
  }
  if (!parseAction(action, &fs->action)) {
    return fail(error, join(path, "action"),
                "unknown action '" + action +
                    "' (expected link-down, link-up, switch-down, switch-up, "
                    "or controller-kill)");
  }
  std::int64_t i = fs->target;
  if (!readIntRange(v, "target", path, std::numeric_limits<int>::min(),
                    kIntMax, &i, error)) {
    return false;
  }
  fs->target = static_cast<int>(i);
  if (fs->action != FaultAction::kControllerKill && fs->target < 0) {
    return fail(error, join(path, "target"),
                "required for link/switch actions (a link id or switch index)");
  }
  return true;
}

}  // namespace

const char* toString(Family family) noexcept {
  switch (family) {
    case Family::kUniform: return "uniform";
    case Family::kZipfian: return "zipfian";
    case Family::kFlashCrowd: return "flash-crowd";
    case Family::kChurn: return "churn";
    case Family::kWideEventSpace: return "wide-event-space";
  }
  return "?";
}

const char* toString(FaultAction action) noexcept {
  switch (action) {
    case FaultAction::kLinkDown: return "link-down";
    case FaultAction::kLinkUp: return "link-up";
    case FaultAction::kSwitchDown: return "switch-down";
    case FaultAction::kSwitchUp: return "switch-up";
    case FaultAction::kControllerKill: return "controller-kill";
  }
  return "?";
}

std::optional<Scenario> Scenario::fromJson(const obs::JsonValue& doc,
                                           std::string* error) {
  if (!doc.isObject()) {
    fail(error, "", "scenario document must be a JSON object");
    return std::nullopt;
  }
  if (!checkKeys(doc, "",
                 {"schema", "name", "description", "seed", "topology",
                  "attributes", "partitions", "controller", "failover",
                  "network", "rebalance", "workload", "phases", "faults",
                  "smoke"},
                 error)) {
    return std::nullopt;
  }
  Scenario s;
  std::string schema;
  if (!readString(doc, "schema", "", &schema, error)) return std::nullopt;
  if (schema != kScenarioSchema) {
    fail(error, "schema",
         "expected \"" + std::string(kScenarioSchema) + "\", got \"" + schema +
             "\"");
    return std::nullopt;
  }
  if (!readString(doc, "name", "", &s.name, error)) return std::nullopt;
  if (s.name.empty()) {
    fail(error, "name", "required string is missing");
    return std::nullopt;
  }
  if (!readString(doc, "description", "", &s.description, error)) {
    return std::nullopt;
  }
  std::int64_t i = static_cast<std::int64_t>(s.seed);
  if (!readIntRange(doc, "seed", "", 0, kInt64Max, &i, error)) return std::nullopt;
  s.seed = static_cast<std::uint64_t>(i);

  const JsonValue* topo = doc.get("topology");
  if (!needObject(topo, "topology", error)) return std::nullopt;
  if (!parseTopology(*topo, "topology", &s.topology, error)) return std::nullopt;

  if (const JsonValue* attrs = doc.get("attributes")) {
    if (!attrs->isObject()) {
      fail(error, "attributes", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*attrs, "attributes", {"count", "bits"}, error)) {
      return std::nullopt;
    }
    i = s.numAttributes;
    if (!readIntRange(*attrs, "count", "attributes", 1, kIntMax, &i, error)) {
      return std::nullopt;
    }
    s.numAttributes = static_cast<int>(i);
    i = s.bitsPerDim;
    if (!readIntRange(*attrs, "bits", "attributes", 1, kIntMax, &i, error)) {
      return std::nullopt;
    }
    s.bitsPerDim = static_cast<int>(i);
  }

  i = s.partitions;
  if (!readIntRange(doc, "partitions", "", 1, kIntMax, &i, error)) return std::nullopt;
  s.partitions = static_cast<int>(i);

  if (const JsonValue* c = doc.get("controller")) {
    if (!c->isObject()) {
      fail(error, "controller", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*c, "controller",
                   {"max_dz_length", "max_cells_per_request",
                    "aggregate_subscriptions", "tcam_budget"},
                   error)) {
      return std::nullopt;
    }
    if (c->contains("max_dz_length")) {
      i = 0;
      if (!readIntRange(*c, "max_dz_length", "controller",
                        1, kIntMax, &i, error)) {
        return std::nullopt;
      }
      s.maxDzLength = static_cast<int>(i);
    }
    if (c->contains("max_cells_per_request")) {
      i = 0;
      if (!readIntRange(*c, "max_cells_per_request", "controller",
                        1, kInt64Max, &i, error)) {
        return std::nullopt;
      }
      s.maxCellsPerRequest = static_cast<std::size_t>(i);
    }
    if (const JsonValue* a = c->get("aggregate_subscriptions")) {
      if (!a->isBool()) {
        fail(error, "controller.aggregate_subscriptions", "expected a bool");
        return std::nullopt;
      }
      s.aggregateSubscriptions = a->asBool();
    }
    if (c->contains("tcam_budget")) {
      i = 0;
      if (!readIntRange(*c, "tcam_budget", "controller",
                        0, kInt64Max, &i, error)) {
        return std::nullopt;
      }
      s.tcamBudget = static_cast<std::size_t>(i);
    }
  }

  if (const JsonValue* f = doc.get("failover")) {
    if (!f->isObject()) {
      fail(error, "failover", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*f, "failover", {"heartbeat_ms", "miss_threshold"}, error)) {
      return std::nullopt;
    }
    s.failover.enabled = true;
    double hb = static_cast<double>(s.failover.heartbeatInterval) /
                static_cast<double>(net::kMillisecond);
    if (!readNum(*f, "heartbeat_ms", "failover", &hb, error)) return std::nullopt;
    if (hb <= 0) {
      fail(error, "failover.heartbeat_ms", "expected a number > 0");
      return std::nullopt;
    }
    if (!millisToSimTime(hb, &s.failover.heartbeatInterval,
                         "failover.heartbeat_ms", error)) {
      return std::nullopt;
    }
    if (s.failover.heartbeatInterval == 0) {
      fail(error, "failover.heartbeat_ms",
           "expected a number >= 0.000001 (one nanosecond)");
      return std::nullopt;
    }
    i = s.failover.missThreshold;
    if (!readIntRange(*f, "miss_threshold", "failover",
                      1, kIntMax, &i, error)) {
      return std::nullopt;
    }
    s.failover.missThreshold = static_cast<int>(i);
  }

  if (const JsonValue* n = doc.get("network")) {
    if (!n->isObject()) {
      fail(error, "network", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*n, "network", {"link_queue_capacity", "backpressure"},
                   error)) {
      return std::nullopt;
    }
    i = static_cast<std::int64_t>(s.network.linkQueueCapacity);
    if (!readIntRange(*n, "link_queue_capacity", "network",
                      1, kInt64Max, &i, error)) {
      return std::nullopt;
    }
    s.network.linkQueueCapacity = static_cast<std::size_t>(i);
    if (const JsonValue* b = n->get("backpressure")) {
      if (!b->isBool()) {
        fail(error, "network.backpressure", "expected a bool");
        return std::nullopt;
      }
      s.network.backpressure = b->asBool();
    }
  }

  if (const JsonValue* r = doc.get("rebalance")) {
    if (!r->isObject()) {
      fail(error, "rebalance", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*r, "rebalance",
                   {"interval_us", "hot_threshold", "congestion_factor"},
                   error)) {
      return std::nullopt;
    }
    s.rebalance.enabled = true;
    i = s.rebalance.interval / net::kMicrosecond;
    if (!readIntRange(*r, "interval_us", "rebalance",
                      1, kMaxMicros, &i, error)) {
      return std::nullopt;
    }
    s.rebalance.interval = i * net::kMicrosecond;
    if (!readNum(*r, "hot_threshold", "rebalance", &s.rebalance.hotThreshold,
                 error) ||
        !readNum(*r, "congestion_factor", "rebalance",
                 &s.rebalance.congestionFactor, error)) {
      return std::nullopt;
    }
    if (s.rebalance.hotThreshold <= 0) {
      fail(error, "rebalance.hot_threshold", "expected a number > 0");
      return std::nullopt;
    }
    if (s.rebalance.congestionFactor < 0) {
      fail(error, "rebalance.congestion_factor", "expected a number >= 0");
      return std::nullopt;
    }
  }

  if (const JsonValue* w = doc.get("workload")) {
    if (!w->isObject()) {
      fail(error, "workload", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*w, "workload",
                   {"selectivity", "advertisement_width_factor", "hotspots",
                    "zipf_alpha", "hotspot_radius"},
                   error)) {
      return std::nullopt;
    }
    if (!readNum(*w, "selectivity", "workload", &s.workload.selectivity, error) ||
        !readNum(*w, "advertisement_width_factor", "workload",
                 &s.workload.advertisementWidthFactor, error) ||
        !readNum(*w, "zipf_alpha", "workload", &s.workload.zipfAlpha, error) ||
        !readNum(*w, "hotspot_radius", "workload", &s.workload.hotspotRadius,
                 error)) {
      return std::nullopt;
    }
    i = s.workload.hotspots;
    if (!readIntRange(*w, "hotspots", "workload", 1, kIntMax, &i, error)) {
      return std::nullopt;
    }
    s.workload.hotspots = static_cast<int>(i);
  }

  const JsonValue* phases = doc.get("phases");
  if (phases == nullptr || !phases->isArray()) {
    fail(error, "phases", "required array is missing");
    return std::nullopt;
  }
  if (phases->items().empty()) {
    fail(error, "phases", "at least one phase is required");
    return std::nullopt;
  }
  for (std::size_t p = 0; p < phases->items().size(); ++p) {
    PhaseSpec ph;
    if (!parsePhase(phases->items()[p], elem("phases", p), p, &ph, error)) {
      return std::nullopt;
    }
    s.phases.push_back(std::move(ph));
  }

  if (const JsonValue* faults = doc.get("faults")) {
    if (!faults->isArray()) {
      fail(error, "faults", "expected an array");
      return std::nullopt;
    }
    for (std::size_t f = 0; f < faults->items().size(); ++f) {
      FaultSpec fs;
      if (!parseFault(faults->items()[f], elem("faults", f), &fs, error)) {
        return std::nullopt;
      }
      s.faults.push_back(fs);
    }
  }

  if (const JsonValue* sm = doc.get("smoke")) {
    if (!sm->isObject()) {
      fail(error, "smoke", "expected an object");
      return std::nullopt;
    }
    if (!checkKeys(*sm, "smoke",
                   {"max_advertisements", "max_subscriptions", "max_events",
                    "max_churn_moves"},
                   error)) {
      return std::nullopt;
    }
    i = static_cast<std::int64_t>(s.smoke.maxAdvertisements);
    if (!readIntRange(*sm, "max_advertisements", "smoke",
                      1, kInt64Max, &i, error)) {
      return std::nullopt;
    }
    s.smoke.maxAdvertisements = static_cast<std::size_t>(i);
    i = static_cast<std::int64_t>(s.smoke.maxSubscriptions);
    if (!readIntRange(*sm, "max_subscriptions", "smoke",
                      1, kInt64Max, &i, error)) {
      return std::nullopt;
    }
    s.smoke.maxSubscriptions = static_cast<std::size_t>(i);
    i = static_cast<std::int64_t>(s.smoke.maxEvents);
    if (!readIntRange(*sm, "max_events", "smoke", 1, kInt64Max, &i, error)) {
      return std::nullopt;
    }
    s.smoke.maxEvents = static_cast<std::size_t>(i);
    i = static_cast<std::int64_t>(s.smoke.maxChurnMoves);
    if (!readIntRange(*sm, "max_churn_moves", "smoke",
                      1, kInt64Max, &i, error)) {
      return std::nullopt;
    }
    s.smoke.maxChurnMoves = static_cast<std::size_t>(i);
  }

  return s;
}

std::optional<Scenario> Scenario::parse(std::string_view text,
                                        std::string* error) {
  std::string jsonError;
  auto doc = JsonValue::parse(text, &jsonError);
  if (!doc.has_value()) {
    if (error != nullptr) {
      // The strict parser reports "<what> at offset N"; translate the
      // offset into a 1-based line so editors can jump to the problem.
      *error = jsonError;
      const auto pos = jsonError.rfind("at offset ");
      if (pos != std::string::npos) {
        const std::size_t offset = static_cast<std::size_t>(
            std::strtoull(jsonError.c_str() + pos + 10, nullptr, 10));
        const std::size_t clamped = std::min(offset, text.size());
        const std::size_t line =
            1 + static_cast<std::size_t>(
                    std::count(text.begin(),
                               text.begin() + static_cast<std::ptrdiff_t>(clamped),
                               '\n'));
        *error += " (line " + std::to_string(line) + ")";
      }
    }
    return std::nullopt;
  }
  return fromJson(*doc, error);
}

std::optional<Scenario> Scenario::loadFile(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, path, "cannot open");
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string inner;
  auto s = parse(buf.str(), &inner);
  if (!s.has_value()) fail(error, path, inner);
  return s;
}

bool Scenario::validate(std::string* error) const {
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '-') {
      return fail(error, "name",
                  "must match [A-Za-z0-9_-]+ (it becomes the report filename)");
    }
  }
  if (numAttributes < 1 || numAttributes > 16) {
    return fail(error, "attributes.count", "expected 1..16");
  }
  if (bitsPerDim < 1 || bitsPerDim > 20) {
    return fail(error, "attributes.bits", "expected 1..20");
  }
  switch (topology.kind) {
    case TopologyKind::kRing:
      if (topology.switches < 3) {
        return fail(error, "topology.switches", "a ring needs >= 3 switches");
      }
      break;
    case TopologyKind::kLine:
      if (topology.switches < 2) {
        return fail(error, "topology.switches", "a line needs >= 2 switches");
      }
      break;
    case TopologyKind::kRandom:
      if (topology.switches < 2) {
        return fail(error, "topology.switches",
                    "a random topology needs >= 2 switches");
      }
      break;
    case TopologyKind::kKAryFatTree:
      if (topology.k < 2 || topology.k % 2 != 0) {
        return fail(error, "topology.k", "k must be even and >= 2");
      }
      break;
    case TopologyKind::kTestbedFatTree:
    case TopologyKind::kFatTree:
      break;
  }

  if (network.linkQueueCapacity > 0 && topology.linkBandwidthBps <= 0) {
    return fail(error, "network.link_queue_capacity",
                "needs a finite topology.link_bandwidth_mbps (with infinite "
                "bandwidth nothing ever queues)");
  }
  if (network.backpressure && network.linkQueueCapacity == 0) {
    return fail(error, "network.backpressure",
                "needs network.link_queue_capacity >= 1");
  }

  const net::Topology topo = buildTopology();
  const std::size_t switchCount = topo.switches().size();
  const std::size_t hostCount = topo.hosts().size();
  if (hostCount == 0) return fail(error, "topology", "no hosts");
  if (partitions > static_cast<int>(switchCount)) {
    return fail(error, "partitions",
                "more partitions (" + std::to_string(partitions) +
                    ") than switches (" + std::to_string(switchCount) + ")");
  }
  if (partitions > 1) {
    if (!faults.empty()) {
      return fail(error, "faults",
                  "fault schedules are not supported for multi-partition "
                  "scenarios (set partitions to 1)");
    }
    if (failover.enabled) {
      return fail(error, "failover",
                  "controller failover is single-partition only");
    }
    if (network.linkQueueCapacity > 0) {
      return fail(error, "network",
                  "link queues are single-partition only (set partitions "
                  "to 1)");
    }
    if (rebalance.enabled) {
      return fail(error, "rebalance",
                  "load-aware rebalancing is single-partition only");
    }
  }

  std::size_t advSoFar = 0, subSoFar = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseSpec& ph = phases[p];
    const std::string path = elem("phases", p);
    const double sel = ph.selectivity.value_or(workload.selectivity);
    if (sel <= 0 || sel > 1) {
      return fail(error, join(path, "selectivity"), "expected in (0, 1]");
    }
    const double hr = ph.hotspotRadius.value_or(workload.hotspotRadius);
    if (hr <= 0 || hr > 0.5) {
      return fail(error, join(path, "hotspot_radius"), "expected in (0, 0.5]");
    }
    if (ph.zipfAlpha.value_or(workload.zipfAlpha) <= 0) {
      return fail(error, join(path, "zipf_alpha"), "expected > 0");
    }
    if (ph.family == Family::kChurn) {
      if (ph.churnMoves == 0) {
        return fail(error, join(path, "churn_moves"),
                    "a churn phase needs >= 1 move");
      }
    } else if (ph.churnMoves > 0) {
      return fail(error, join(path, "churn_moves"),
                  "only valid for the churn family");
    }
    if (ph.family == Family::kFlashCrowd) {
      if (ph.crowdRadius <= 0 || ph.crowdRadius > 0.5) {
        return fail(error, join(path, "crowd_radius"), "expected in (0, 0.5]");
      }
      if (ph.crowdCentre.size() > static_cast<std::size_t>(numAttributes)) {
        return fail(error, join(path, "crowd_centre"),
                    "more entries than attributes");
      }
      for (std::size_t c = 0; c < ph.crowdCentre.size(); ++c) {
        if (ph.crowdCentre[c] < 0 || ph.crowdCentre[c] > 1) {
          return fail(error, elem(join(path, "crowd_centre"), c),
                      "expected a domain fraction in [0, 1]");
        }
      }
    } else if (!ph.crowdCentre.empty()) {
      return fail(error, join(path, "crowd_centre"),
                  "only valid for the flash-crowd family");
    }
    std::set<int> seen;
    for (std::size_t c = 0; c < ph.uninformativeDims.size(); ++c) {
      const int d = ph.uninformativeDims[c];
      if (d < 0 || d >= numAttributes) {
        return fail(error, elem(join(path, "uninformative_dims"), c),
                    "dimension out of range [0, " +
                        std::to_string(numAttributes) + ")");
      }
      if (!seen.insert(d).second) {
        return fail(error, elem(join(path, "uninformative_dims"), c),
                    "duplicate dimension");
      }
    }
    advSoFar += ph.advertisements;
    subSoFar += ph.subscriptions;
    if (ph.events > 0 && advSoFar == 0) {
      return fail(error, join(path, "events"),
                  "no advertisement deployed by this or any earlier phase "
                  "(events need a publisher)");
    }
    if (ph.churnMoves > 0 && subSoFar == 0) {
      return fail(error, join(path, "churn_moves"),
                  "no subscription deployed by this or any earlier phase");
    }
  }

  for (std::size_t f = 0; f < faults.size(); ++f) {
    const FaultSpec& fs = faults[f];
    const std::string path = elem("faults", f);
    switch (fs.action) {
      case FaultAction::kLinkDown:
      case FaultAction::kLinkUp:
        if (fs.target < 0 || fs.target >= topo.linkCount()) {
          return fail(error, join(path, "target"),
                      "link id out of range [0, " +
                          std::to_string(topo.linkCount()) + ")");
        }
        break;
      case FaultAction::kSwitchDown:
      case FaultAction::kSwitchUp:
        if (fs.target < 0 || fs.target >= static_cast<int>(switchCount)) {
          return fail(error, join(path, "target"),
                      "switch index out of range [0, " +
                          std::to_string(switchCount) + ")");
        }
        break;
      case FaultAction::kControllerKill:
        break;
    }
  }
  return true;
}

net::Topology Scenario::buildTopology() const {
  const TopologySpec& t = topology;
  switch (t.kind) {
    case TopologyKind::kTestbedFatTree:
      return net::Topology::testbedFatTree(t.linkLatency, t.linkBandwidthBps);
    case TopologyKind::kFatTree:
      return net::Topology::fatTree(t.core, t.aggregation, t.edgePerAgg,
                                    t.hostsPerEdge, t.linkLatency,
                                    t.linkBandwidthBps);
    case TopologyKind::kKAryFatTree:
      return net::Topology::kAryFatTree(t.k, t.linkLatency, t.linkBandwidthBps);
    case TopologyKind::kRing:
      return net::Topology::ring(t.switches, t.linkLatency, t.linkBandwidthBps);
    case TopologyKind::kLine:
      return net::Topology::line(t.switches, t.linkLatency, t.linkBandwidthBps);
    case TopologyKind::kRandom:
      return net::Topology::randomConnected(t.switches, t.extraLinks,
                                            t.topoSeed, t.linkLatency,
                                            t.linkBandwidthBps);
  }
  return net::Topology::testbedFatTree(t.linkLatency, t.linkBandwidthBps);
}

std::string Scenario::topologyLabel() const {
  const TopologySpec& t = topology;
  switch (t.kind) {
    case TopologyKind::kTestbedFatTree:
      return "testbed_fat_tree";
    case TopologyKind::kFatTree:
      return "fat_tree_" + std::to_string(t.core) + "x" +
             std::to_string(t.aggregation) + "x" + std::to_string(t.edgePerAgg) +
             "x" + std::to_string(t.hostsPerEdge);
    case TopologyKind::kKAryFatTree:
      return "k_ary_fat_tree_" + std::to_string(t.k);
    case TopologyKind::kRing:
      return "ring_" + std::to_string(t.switches);
    case TopologyKind::kLine:
      return "line_" + std::to_string(t.switches);
    case TopologyKind::kRandom:
      return "random_" + std::to_string(t.switches) + "_" +
             std::to_string(t.extraLinks);
  }
  return "?";
}

std::string Scenario::workloadLabel() const {
  std::string out;
  for (const PhaseSpec& ph : phases) {
    if (!out.empty()) out += "+";
    out += toString(ph.family);
  }
  return out;
}

bool Scenario::needsFailover() const {
  if (failover.enabled) return true;
  return std::any_of(faults.begin(), faults.end(), [](const FaultSpec& f) {
    return f.action == FaultAction::kControllerKill;
  });
}

workload::WorkloadConfig phaseWorkloadConfig(const Scenario& s,
                                             std::size_t phaseIndex) {
  const PhaseSpec& ph = s.phases[phaseIndex];
  workload::WorkloadConfig w;
  w.numAttributes = s.numAttributes;
  w.bitsPerDim = s.bitsPerDim;
  w.subscriptionSelectivity = ph.selectivity.value_or(s.workload.selectivity);
  w.advertisementWidthFactor = s.workload.advertisementWidthFactor;
  w.numHotspots = ph.hotspots.value_or(s.workload.hotspots);
  w.zipfAlpha = ph.zipfAlpha.value_or(s.workload.zipfAlpha);
  w.hotspotRadius = ph.hotspotRadius.value_or(s.workload.hotspotRadius);
  w.crowdCentre = ph.crowdCentre;
  w.crowdRadius = ph.crowdRadius;
  w.uninformativeDims = ph.uninformativeDims;
  switch (ph.family) {
    case Family::kUniform:
    case Family::kChurn:  // churn registers uniform subscriptions
      w.model = workload::Model::kUniform;
      break;
    case Family::kZipfian:
      w.model = workload::Model::kZipfian;
      break;
    case Family::kFlashCrowd:
      w.model = workload::Model::kFlashCrowd;
      break;
    case Family::kWideEventSpace:
      w.model = workload::Model::kWideEventSpace;
      break;
  }
  w.seed = workload::derivePhaseSeed(s.seed, phaseIndex);
  return w;
}

PhasePlan buildPhasePlan(const Scenario& s, std::size_t phaseIndex,
                         std::size_t hostCount,
                         std::size_t priorSubscriptions, bool smoke) {
  const PhaseSpec& ph = s.phases[phaseIndex];
  workload::WorkloadGenerator gen(phaseWorkloadConfig(s, phaseIndex));

  std::size_t nAdv = ph.advertisements;
  std::size_t nSub = ph.subscriptions;
  std::size_t nEvents = ph.events;
  std::size_t nMoves = ph.churnMoves;
  if (smoke) {
    nAdv = std::min(nAdv, s.smoke.maxAdvertisements);
    nSub = std::min(nSub, s.smoke.maxSubscriptions);
    nEvents = std::min(nEvents, s.smoke.maxEvents);
    nMoves = std::min(nMoves, s.smoke.maxChurnMoves);
  }

  PhasePlan plan;
  plan.eventInterval = ph.eventInterval;
  plan.advertisements.reserve(nAdv);
  for (std::size_t i = 0; i < nAdv; ++i) {
    plan.advertisements.emplace_back(i % hostCount, gen.makeAdvertisement());
  }
  plan.subscriptions.reserve(nSub);
  for (std::size_t i = 0; i < nSub; ++i) {
    plan.subscriptions.emplace_back(i % hostCount, gen.makeSubscription());
  }
  const std::size_t population = priorSubscriptions + nSub;
  if (nMoves > 0 && population > 0) {
    plan.churnMoves = gen.makeChurnSteps(population, nMoves, hostCount);
  }
  plan.events = gen.makeEvents(nEvents);
  return plan;
}

}  // namespace pleroma::scenario
