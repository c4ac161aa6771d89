#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "metrics.hpp"
#include "obs/json.hpp"

namespace pleroma::e2e {

namespace {

using obs::JsonValue;

std::optional<JsonValue> loadResults(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  std::optional<JsonValue> doc = JsonValue::parse(buf.str(), &error);
  const JsonValue* schema = doc.has_value() ? doc->get("schema") : nullptr;
  if (schema == nullptr || !schema->isString() || schema->asString() != "pleroma-e2e-v1" ||
      doc->get("workloads") == nullptr || !doc->get("workloads")->isArray()) {
    std::fprintf(stderr, "compare: %s is not a pleroma-e2e-v1 results file %s\n",
                 path.c_str(), error.c_str());
    return std::nullopt;
  }
  return doc;
}

const JsonValue* findWorkload(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& w : doc.get("workloads")->items()) {
    const JsonValue* n = w.get("name");
    if (n != nullptr && n->isString() && n->asString() == name) return &w;
  }
  return nullptr;
}

struct Side {
  double median = 0.0;
  double iqr = 0.0;
  std::vector<double> values;
};

std::optional<Side> readMetric(const JsonValue& workload, const std::string& metric) {
  const JsonValue* metrics = workload.get("metrics");
  const JsonValue* m = metrics != nullptr ? metrics->get(metric) : nullptr;
  if (m == nullptr || m->get("median") == nullptr || m->get("values") == nullptr) {
    return std::nullopt;
  }
  Side s;
  s.median = m->get("median")->asDouble();
  s.iqr = m->get("q3")->asDouble() - m->get("q1")->asDouble();
  for (const JsonValue& v : m->get("values")->items()) s.values.push_back(v.asDouble());
  return s;
}

double relativeTo(double x, double base) {
  if (base != 0.0) return x / std::abs(base);
  if (x == 0.0) return 0.0;
  return x > 0 ? std::numeric_limits<double>::infinity()
               : -std::numeric_limits<double>::infinity();
}

const char* verdict(const MetricDef& def, const Side& base, const Side& next,
                    bool sameSeed) {
  // Worsening as a share of the base median: positive is worse whichever
  // direction the metric improves in.
  const double sign = def.lowerIsBetter ? 1.0 : -1.0;
  const double worsening = relativeTo(sign * (next.median - base.median), base.median);
  if (!def.varies) {
    // Deterministic at one seed: any difference is a real change.
    if (worsening == 0.0) return "same";
    if (!sameSeed) return "unresolved";
    return worsening > 0 ? "worse" : "better";
  }
  const double spread = std::max(relativeTo(base.iqr, base.median),
                                 relativeTo(next.iqr, next.median));
  if (spread > def.bound) {
    // Wider spread than the bound: only a clean separation decides.
    const auto [bLo, bHi] = std::minmax_element(base.values.begin(), base.values.end());
    const auto [nLo, nHi] = std::minmax_element(next.values.begin(), next.values.end());
    const bool allBetter = def.lowerIsBetter ? *nHi < *bLo : *nLo > *bHi;
    return allBetter ? "better" : "unresolved";
  }
  if (worsening > def.bound) return "worse";
  if (worsening < -def.bound) return "better";
  return "same";
}

}  // namespace

int compareResults(const std::string& basePath, const std::string& newPath) {
  const std::optional<JsonValue> base = loadResults(basePath);
  const std::optional<JsonValue> next = loadResults(newPath);
  if (!base.has_value() || !next.has_value()) return 1;

  const JsonValue* baseSeed = base->get("metadata") ? base->get("metadata")->get("seed") : nullptr;
  const JsonValue* nextSeed = next->get("metadata") ? next->get("metadata")->get("seed") : nullptr;
  const bool sameSeed = baseSeed != nullptr && nextSeed != nullptr &&
                        baseSeed->asInt() == nextSeed->asInt();
  if (!sameSeed) {
    std::printf("note: the seeds differ; a changed deterministic metric is unresolved\n");
  }

  std::printf("%-18s %-18s %13s %11s %13s %11s %9s  %s\n", "workload", "metric",
              "base_median", "base_iqr", "new_median", "new_iqr", "delta%", "verdict");
  std::map<std::string, int> tally;
  for (const JsonValue& w : next->get("workloads")->items()) {
    const std::string name = w.get("name")->asString();
    const JsonValue* bw = findWorkload(*base, name);
    if (bw == nullptr) {
      std::printf("%-18s (not in %s)\n", name.c_str(), basePath.c_str());
      continue;
    }
    for (const MetricDef& def : metricCatalogue()) {
      if (def.kind != MetricKind::kEndToEnd) continue;
      const std::optional<Side> b = readMetric(*bw, def.name);
      const std::optional<Side> n = readMetric(w, def.name);
      if (!b.has_value() || !n.has_value()) continue;
      const char* v = verdict(def, *b, *n, sameSeed);
      ++tally[v];
      const double delta = relativeTo(n->median - b->median, b->median);
      std::printf("%-18s %-18s %13.6g %11.4g %13.6g %11.4g %+9.2f  %s\n", name.c_str(),
                  def.name.c_str(), b->median, b->iqr, n->median, n->iqr, 100.0 * delta, v);
    }
  }
  std::printf("\n");
  for (const auto& [v, count] : tally) std::printf("%s: %d\n", v.c_str(), count);
  return tally["worse"] > 0 ? 1 : 0;
}

}  // namespace pleroma::e2e
