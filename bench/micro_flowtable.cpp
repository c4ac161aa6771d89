// Micro-benchmark of flow-table lookup vs. table size (google-benchmark):
// demonstrates the table-size-independent matching cost that underlies the
// flat curve of Fig 7(a).
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "net/flow_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace pleroma;

dz::DzExpression nthDz(int i, int len) {
  dz::U128 bits;
  for (int b = 0; b < len; ++b) {
    bits.setBitFromMsb(b, ((i >> (len - 1 - b)) & 1) != 0);
  }
  return dz::DzExpression(bits, len);
}

void BM_FlowTableLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  net::FlowTable table;
  for (int i = 0; i < n; ++i) {
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(i, 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  util::Rng rng(9);
  std::vector<dz::Ipv6Address> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(dz::dzToAddress(
        nthDz(static_cast<int>(rng.uniformInt(0, static_cast<std::uint64_t>(n - 1))),
              17)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i % 1024]));
    ++i;
  }
  state.SetLabel(std::to_string(n) + " entries");
}
BENCHMARK(BM_FlowTableLookup)->Arg(1000)->Arg(10000)->Arg(80000);

void BM_FlowTableLookupNestedPriorities(benchmark::State& state) {
  // Chain of nested prefixes: worst case for the per-length probing.
  net::FlowTable table;
  std::string s;
  for (int i = 0; i < 32; ++i) {
    s.push_back('1');
    net::FlowEntry e;
    e.match = dz::dzToPrefix(*dz::DzExpression::fromString(s));
    e.priority = i + 1;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  const auto probe = dz::dzToAddress(*dz::DzExpression::fromString(std::string(40, '1')));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probe));
  }
}
BENCHMARK(BM_FlowTableLookupNestedPriorities);

/// High-occupancy mixed-prefix-length lookup: 1e5 entries spread over 16
/// distinct lengths, so every lookup probes 16 buckets that are all in
/// their flat open-addressing representation. This is the fig7a shape at
/// TCAM-scale occupancy (Sec 1 cites 40k-180k entry hardware tables).
void BM_FlowTableLookupMixed(benchmark::State& state) {
  constexpr int kLengths = 16;
  constexpr int kFirstLength = 14;  // 2^14 dz per length > per-length share
  constexpr int kTotal = 100000;
  constexpr int kPerLength = kTotal / kLengths;
  net::FlowTable table;
  for (int len = kFirstLength; len < kFirstLength + kLengths; ++len) {
    for (int i = 0; i < kPerLength; ++i) {
      net::FlowEntry e;
      e.match = dz::dzToPrefix(nthDz(i, len));
      e.priority = len;
      e.actions.push_back(net::FlowAction{2, std::nullopt});
      table.insert(e);
    }
  }
  util::Rng rng(9);
  std::vector<dz::Ipv6Address> probes;
  for (int i = 0; i < 1024; ++i) {
    const int len = kFirstLength +
                    static_cast<int>(rng.uniformInt(0, kLengths - 1));
    probes.push_back(dz::dzToAddress(
        nthDz(static_cast<int>(rng.uniformInt(0, kPerLength - 1)), len)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probes[i % 1024]));
    ++i;
  }
  state.SetLabel(std::to_string(table.size()) + " entries, " +
                 std::to_string(kLengths) + " lengths");
}
BENCHMARK(BM_FlowTableLookupMixed);

/// Lookups that rotate across many small tables, the shape of
/// fanout_uniform (a k=8 fat-tree: 80 switches of about 100 flows each,
/// spread over 7 dz lengths, priority = dz length). Each probe address is
/// an event dz under one of its table's flows, so every lookup hits, and
/// consecutive lookups go to different tables: every other micro here
/// probes one table whose few cache lines stay hot.
void BM_FlowTableLookupAcrossTables(benchmark::State& state) {
  constexpr int kTables = 80;
  constexpr std::size_t kFlows = 100;
  constexpr int kMinLength = 8;
  constexpr int kLengths = 7;
  constexpr int kEventLength = 20;  // the publisher's full-length stamp
  constexpr std::size_t kProbes = kTables * 64;
  util::Rng rng(9);
  std::vector<net::FlowTable> tables(kTables);
  std::vector<std::vector<dz::DzExpression>> flows(kTables);
  for (int t = 0; t < kTables; ++t) {
    while (tables[t].size() < kFlows) {
      const int len = kMinLength + static_cast<int>(rng.uniformInt(0, kLengths - 1));
      const dz::DzExpression d = nthDz(
          static_cast<int>(rng.uniformInt(0, (std::uint64_t{1} << len) - 1)), len);
      net::FlowEntry e;
      e.match = dz::dzToPrefix(d);
      e.priority = len;
      e.actions.push_back(net::FlowAction{2, std::nullopt});
      if (tables[t].insert(e)) flows[t].push_back(d);
    }
  }
  std::vector<dz::Ipv6Address> probes;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto& own = flows[i % kTables];
    const dz::DzExpression d = own[rng.uniformInt(0, own.size() - 1)];
    dz::U128 bits = d.bits();
    for (int b = d.length(); b < kEventLength; ++b) bits.setBitFromMsb(b, rng.chance(0.5));
    probes.push_back(dz::dzToAddress(dz::DzExpression(bits, kEventLength)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tables[i % kTables].lookup(probes[i]));
    if (++i == kProbes) i = 0;
  }
  std::uint64_t lookups = 0, probed = 0;
  for (const net::FlowTable& t : tables) {
    lookups += t.stats().lookups;
    probed += t.stats().probes;
  }
  state.counters["probes_per_lookup"] =
      static_cast<double>(probed) / static_cast<double>(lookups);
  state.SetLabel(std::to_string(kTables) + " tables x " + std::to_string(kFlows) +
                 " flows, " + std::to_string(kLengths) + " lengths");
}
BENCHMARK(BM_FlowTableLookupAcrossTables);

/// The lookup memo's worst case: every lookup follows a modify, so each
/// one pays the memo's reset and a walk. One fanout-shaped table of 200
/// flows on dz lengths 4-11, priority = dz length; each iteration gives one
/// flow new actions (insertOrReplace) and looks up an event address under
/// it.
void BM_FlowTableLookupAfterModify(benchmark::State& state) {
  constexpr std::size_t kFlows = 200;
  constexpr int kMinLength = 4;
  constexpr int kLengths = 8;
  constexpr int kEventLength = 20;
  util::Rng rng(9);
  net::FlowTable table;
  std::vector<net::FlowEntry> flows;
  std::vector<dz::Ipv6Address> probes;
  while (table.size() < kFlows) {
    const int len = kMinLength + static_cast<int>(rng.uniformInt(0, kLengths - 1));
    const dz::DzExpression d = nthDz(
        static_cast<int>(rng.uniformInt(0, (std::uint64_t{1} << len) - 1)), len);
    net::FlowEntry e;
    e.match = dz::dzToPrefix(d);
    e.priority = len;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    if (!table.insert(e)) continue;
    flows.push_back(e);
    dz::U128 bits = d.bits();
    for (int b = d.length(); b < kEventLength; ++b) bits.setBitFromMsb(b, rng.chance(0.5));
    probes.push_back(dz::dzToAddress(dz::DzExpression(bits, kEventLength)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    net::FlowAction& out = flows[i].actions[0];
    out.port = out.port % 4 + 1;
    table.insertOrReplace(flows[i]);
    benchmark::DoNotOptimize(table.lookup(probes[i]));
    if (++i == kFlows) i = 0;
  }
  state.counters["probes_per_lookup"] =
      static_cast<double>(table.stats().probes) /
      static_cast<double>(table.stats().lookups);
  state.SetLabel("modify+lookup, " + std::to_string(kFlows) + " flows, " +
                 std::to_string(kLengths) + " lengths");
}
BENCHMARK(BM_FlowTableLookupAfterModify);

/// Steady-state churn: a sliding window of 10k length-17 flows, one remove
/// + one insert per iteration. Exercises the flat bucket's backward-shift
/// deletion and the entry arena's slot recycling (steady state must not
/// allocate).
void BM_FlowTableChurn(benchmark::State& state) {
  constexpr int kWindow = 10000;
  constexpr std::uint32_t kDzMask = 0x1ffff;  // 2^17 distinct length-17 dz
  net::FlowTable table;
  for (int i = 0; i < kWindow; ++i) {
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(i, 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
  }
  std::uint32_t head = 0;
  for (auto _ : state) {
    table.remove(dz::dzToPrefix(nthDz(static_cast<int>(head & kDzMask), 17)));
    net::FlowEntry e;
    e.match = dz::dzToPrefix(nthDz(static_cast<int>((head + kWindow) & kDzMask), 17));
    e.priority = 17;
    e.actions.push_back(net::FlowAction{2, std::nullopt});
    table.insert(e);
    ++head;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.SetLabel("remove+insert, window " + std::to_string(kWindow));
}
BENCHMARK(BM_FlowTableChurn);

void BM_FlowTableInsert(benchmark::State& state) {
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    net::FlowTable table;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      net::FlowEntry e;
      e.match = dz::dzToPrefix(nthDz(i, 17));
      e.priority = 17;
      e.actions.push_back(net::FlowAction{2, std::nullopt});
      table.insert(e);
    }
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(round) * 1000);
}
BENCHMARK(BM_FlowTableInsert);

}  // namespace

int main(int argc, char** argv) {
  return pleroma::bench::runMicroBench("micro_flowtable", argc, argv);
}
