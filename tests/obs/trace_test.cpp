#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "core/pleroma.hpp"

namespace pleroma::obs {
namespace {

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const SpanId s = t.begin(1, kNoSpan, "op", 0);
  EXPECT_EQ(s, kNoSpan);
  t.end(s, 10);
  EXPECT_EQ(t.instant(1, kNoSpan, "i", 5), kNoSpan);
  t.annotate(s, "k", "v");
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, SpanTreeLinksParentsAndTraceIds) {
  Tracer t;
  t.setEnabled(true);
  const std::uint64_t trace = t.newTraceId();
  const SpanId root = t.begin(trace, kNoSpan, "root", 100, 3);
  const SpanId child = t.begin(trace, root, "hop", 110, 4);
  const SpanId leaf = t.instant(trace, child, "deliver", 120, 5);
  t.annotate(leaf, "false_positive", "false");
  t.end(child, 130);
  t.end(root, 140);

  ASSERT_EQ(t.records().size(), 3u);
  const TraceRecord& r0 = t.records()[0];
  const TraceRecord& r1 = t.records()[1];
  const TraceRecord& r2 = t.records()[2];
  EXPECT_EQ(r0.name, "root");
  EXPECT_EQ(r0.parent, kNoSpan);
  EXPECT_EQ(r0.start, 100);
  EXPECT_EQ(r0.end, 140);
  EXPECT_EQ(r0.node, 3);
  EXPECT_FALSE(r0.isInstant());
  EXPECT_EQ(r1.parent, root);
  EXPECT_EQ(r2.parent, child);
  EXPECT_TRUE(r2.isInstant());
  ASSERT_EQ(r2.args.size(), 1u);
  EXPECT_EQ(r2.args[0].first, "false_positive");
  for (const TraceRecord& r : t.records()) EXPECT_EQ(r.traceId, trace);
  EXPECT_EQ(t.traceIdOf(child), trace);
  EXPECT_EQ(t.traceIdOf(999999), 0u);
}

TEST(Tracer, ContextStackProvidesAmbientParent) {
  Tracer t;
  t.setEnabled(true);
  EXPECT_EQ(t.currentContext(), kNoSpan);
  const SpanId op = t.begin(t.newTraceId(), kNoSpan, "op", 0);
  t.pushContext(op);
  EXPECT_EQ(t.currentContext(), op);
  const SpanId inner = t.begin(t.traceIdOf(op), t.currentContext(), "mod", 1);
  t.popContext();
  EXPECT_EQ(t.currentContext(), kNoSpan);
  t.popContext();  // empty pop is harmless
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[1].parent, op);
  (void)inner;
}

TEST(Tracer, CapacityEvictsOldestAndCountsDrops) {
  Tracer t;
  t.setEnabled(true);
  t.setCapacity(4);
  const std::uint64_t trace = t.newTraceId();
  for (int i = 0; i < 10; ++i) t.instant(trace, kNoSpan, "e", i);
  EXPECT_EQ(t.records().size(), 4u);
  EXPECT_EQ(t.droppedRecords(), 6u);
  // Survivors are the newest records.
  EXPECT_EQ(t.records().front().start, 6);
  EXPECT_EQ(t.records().back().start, 9);
}

TEST(Tracer, ClearDropsRecordsAndContext) {
  Tracer t;
  t.setEnabled(true);
  const SpanId s = t.begin(t.newTraceId(), kNoSpan, "op", 0);
  t.pushContext(s);
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.currentContext(), kNoSpan);
}

TEST(Tracer, JsonlExportParsesLineByLine) {
  Tracer t;
  t.setEnabled(true);
  const std::uint64_t trace = t.newTraceId();
  const SpanId root = t.begin(trace, kNoSpan, "root", 10, 1);
  t.annotate(root, "key", "va\"lue");  // escaping must survive
  t.instant(trace, root, "leaf", 20, 2);
  t.end(root, 30);

  std::istringstream lines(t.toJsonl());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string err;
    const auto doc = JsonValue::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << err << " in: " << line;
    EXPECT_TRUE(doc->contains("id"));
    EXPECT_TRUE(doc->contains("name"));
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST(Tracer, ChromeTraceExportHasCompleteAndInstantEvents) {
  Tracer t;
  t.setEnabled(true);
  const std::uint64_t trace = t.newTraceId();
  const SpanId root = t.begin(trace, kNoSpan, "root", 1000, 1);
  t.instant(trace, root, "leaf", 1500, 2);
  t.end(root, 2000);

  std::string err;
  const auto doc = JsonValue::parse(t.toChromeTrace(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->items().size(), 2u);
  std::set<std::string> phases;
  for (const JsonValue& ev : events->items()) {
    ASSERT_TRUE(ev.contains("ph"));
    // ts is microseconds; the span linkage rides in args.
    EXPECT_TRUE(ev.contains("ts"));
    EXPECT_TRUE(ev.get("args")->contains("span"));
    phases.insert(ev.get("ph")->asString());
  }
  EXPECT_EQ(phases, (std::set<std::string>{"X", "i"}));
  const JsonValue& complete = events->items()[0];
  EXPECT_EQ(complete.get("ph")->asString(), "X");
  EXPECT_DOUBLE_EQ(complete.get("ts")->asDouble(), 1.0);
  EXPECT_DOUBLE_EQ(complete.get("dur")->asDouble(), 1.0);
}

// One publish through the full middleware produces a single connected span
// tree: a "publish" root, per-hop spans parented through Packet::traceSpan,
// and an "app_deliver" instant per delivery — all under the event's trace id.
TEST(Tracer, PublishProducesConnectedSpanTree) {
  core::PleromaOptions o;
  o.numAttributes = 2;
  core::Pleroma p(net::Topology::testbedFatTree(), o);
  p.tracer().setEnabled(true);
  const auto hosts = p.topology().hosts();

  dz::Rectangle all{{dz::Range{0, 1023}, dz::Range{0, 1023}}};
  p.advertise(hosts[0], all);
  p.subscribe(hosts[5], all);
  p.tracer().clear();  // keep only the publish's data-plane trace

  const net::EventId id = p.publish(hosts[0], {100, 100});
  p.settle();

  std::unordered_set<SpanId> ids;
  int publishRoots = 0;
  int delivers = 0;
  for (const TraceRecord& r : p.tracer().records()) {
    if (r.traceId != id) continue;
    ids.insert(r.id);
    if (r.name == "publish") {
      ++publishRoots;
      EXPECT_EQ(r.parent, kNoSpan);
    }
    if (r.name == "app_deliver") ++delivers;
  }
  EXPECT_EQ(publishRoots, 1);
  EXPECT_EQ(delivers, 1);
  // Connectivity: every non-root record's parent is another record of the
  // same trace (nothing dangles; the tree is rooted at the publish).
  for (const TraceRecord& r : p.tracer().records()) {
    if (r.traceId != id || r.parent == kNoSpan) continue;
    EXPECT_TRUE(ids.count(r.parent) == 1)
        << r.name << " has unknown parent " << r.parent;
  }
  EXPECT_GT(ids.size(), 2u);  // root + at least one hop + delivery
}

// Every drop ends a span: with 1-packet link queues, no backpressure and a
// 2-packet host queue, each published event's span tree ends only in
// "app_deliver" or "drop.<reason>" leaves, and the leaves of each reason
// add up to the network's drop counter for it.
TEST(Tracer, EveryEventSpanEndsInDeliveryOrDropLeaf) {
  core::PleromaOptions o;
  o.numAttributes = 2;
  o.network.linkQueueCapacity = 1;
  o.network.hostServiceTime = 200 * net::kMicrosecond;
  o.network.hostQueueCapacity = 2;
  core::Pleroma p(
      net::Topology::fatTree(2, 2, 2, 2, 50 * net::kMicrosecond, 8.0e6), o);
  const auto hosts = p.topology().hosts();
  const dz::Rectangle all{{dz::Range{0, 1023}, dz::Range{0, 1023}}};
  p.advertise(hosts[0], all);
  p.advertise(hosts[2], all);
  for (std::size_t h = 3; h < hosts.size(); ++h) p.subscribe(hosts[h], all);
  p.settle();

  p.tracer().setEnabled(true);  // data-plane records only
  // One event per publisher every 60us: each access link (49us per packet
  // at 8 Mbps) keeps up, the shared core uplinks and the subscribers' host
  // queues do not.
  std::set<std::uint64_t> published;
  net::SimTime cursor = p.simulator().now();
  for (int i = 0; i < 40; ++i) {
    const auto v = static_cast<dz::AttributeValue>(i);
    published.insert(p.publish(hosts[0], {(v * 7) % 1024, (v * 13) % 1024}));
    published.insert(p.publish(hosts[2], {(v * 11) % 1024, (v * 3) % 1024}));
    cursor += 60 * net::kMicrosecond;
    p.settleUntil(cursor);
  }
  p.settle();
  ASSERT_EQ(p.tracer().droppedRecords(), 0u);

  std::unordered_set<SpanId> parents;
  std::set<std::uint64_t> traced;
  for (const TraceRecord& r : p.tracer().records()) {
    if (r.parent != kNoSpan) parents.insert(r.parent);
    traced.insert(r.traceId);
  }
  EXPECT_EQ(traced, published);
  std::map<std::string, std::uint64_t> dropLeaves;
  std::uint64_t deliveries = 0;
  for (const TraceRecord& r : p.tracer().records()) {
    if (parents.contains(r.id)) continue;  // not a leaf
    if (r.name.starts_with("drop.")) {
      ++dropLeaves[r.name.substr(5)];
    } else {
      EXPECT_EQ(r.name, "app_deliver") << "event " << r.traceId;
      ++deliveries;
    }
  }
  EXPECT_EQ(deliveries, p.deliveryStats().delivered);
  const net::NetworkCounters& nc = p.network().counters();
  EXPECT_GT(nc.dropped(net::DropReason::kLinkQueue), 0u);
  EXPECT_GT(nc.dropped(net::DropReason::kHostQueue), 0u);
  for (std::size_t i = 0; i < net::kDropReasonCount; ++i) {
    const char* reason = net::dropReasonName(static_cast<net::DropReason>(i));
    EXPECT_EQ(dropLeaves[reason], nc.dropped(static_cast<net::DropReason>(i)))
        << reason;
  }
}

}  // namespace
}  // namespace pleroma::obs
