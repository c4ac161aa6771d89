// Validates BENCH_*.json reports against the pleroma-bench-v1 schema
// (obs::BenchReporter::validate). CI runs the smoke benches and feeds the
// resulting files through this; exit status is non-zero on the first
// unparsable or non-conforming file.
//
// Second mode:
//   schema_check --compare-series A.json B.json [--ignore-column=NAME]...
// asserts that the two reports carry the same series with cell-identical
// rows, skipping columns named in --ignore-column (wall-clock measurements
// that legitimately vary run to run). The determinism CI job runs benches
// twice with identical arguments and feeds both artifacts through this.
//
// Third mode:
//   schema_check --scenario FILE.json...
// lints pleroma-scenario-v1 files (scenarios/ catalog): strict parse plus
// deep validation (scenario::Scenario::validate), without running them.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "scenario/scenario.hpp"

namespace {

using pleroma::obs::JsonValue;

std::optional<JsonValue> load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = JsonValue::parse(buf.str(), &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path, error.c_str());
    return std::nullopt;
  }
  if (!pleroma::obs::BenchReporter::validate(*doc, &error)) {
    std::fprintf(stderr, "%s: schema violation: %s\n", path, error.c_str());
    return std::nullopt;
  }
  return doc;
}

/// Series-by-series, row-by-row equality of the two reports' result cells,
/// comparing via dumped JSON so ints and doubles keep their exact text.
int compareSeries(const char* pathA, const char* pathB,
                  const std::vector<std::string>& ignored) {
  const auto a = load(pathA);
  const auto b = load(pathB);
  if (!a || !b) return 1;
  const JsonValue& seriesA = *a->get("series");
  const JsonValue& seriesB = *b->get("series");
  if (seriesA.items().size() != seriesB.items().size()) {
    std::fprintf(stderr, "series count differs: %zu vs %zu\n",
                 seriesA.items().size(), seriesB.items().size());
    return 1;
  }
  for (std::size_t s = 0; s < seriesA.items().size(); ++s) {
    const JsonValue& sa = seriesA.items()[s];
    const JsonValue& sb = seriesB.items()[s];
    const std::string name = sa.get("name")->asString();
    if (name != sb.get("name")->asString()) {
      std::fprintf(stderr, "series %zu name differs: %s vs %s\n", s,
                   name.c_str(), sb.get("name")->asString().c_str());
      return 1;
    }
    const auto& colsA = sa.get("columns")->items();
    const auto& rowsA = sa.get("rows")->items();
    const auto& rowsB = sb.get("rows")->items();
    if (rowsA.size() != rowsB.size()) {
      std::fprintf(stderr, "series %s: row count differs: %zu vs %zu\n",
                   name.c_str(), rowsA.size(), rowsB.size());
      return 1;
    }
    for (std::size_t r = 0; r < rowsA.size(); ++r) {
      for (std::size_t c = 0; c < colsA.size(); ++c) {
        const std::string col = colsA[c].get("name")->asString();
        if (std::find(ignored.begin(), ignored.end(), col) != ignored.end()) {
          continue;
        }
        const std::string va = rowsA[r].items()[c].dump();
        const std::string vb = rowsB[r].items()[c].dump();
        if (va != vb) {
          std::fprintf(stderr,
                       "series %s row %zu column %s differs: %s vs %s\n",
                       name.c_str(), r, col.c_str(), va.c_str(), vb.c_str());
          return 1;
        }
      }
    }
  }
  std::printf("%s == %s (ignoring %zu column(s))\n", pathA, pathB,
              ignored.size());
  return 0;
}

/// Lints scenario files: strict parse + deep validation, no execution.
int lintScenarios(int count, char** paths) {
  for (int i = 0; i < count; ++i) {
    std::string error;
    auto s = pleroma::scenario::Scenario::loadFile(paths[i], &error);
    if (!s.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (!s->validate(&error)) {
      std::fprintf(stderr, "%s: %s\n", paths[i], error.c_str());
      return 1;
    }
    std::printf("%s: ok (%s, %zu phase(s))\n", paths[i],
                s->topologyLabel().c_str(), s->phases.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s BENCH_<name>.json...\n"
                 "       %s --compare-series A.json B.json"
                 " [--ignore-column=NAME]...\n"
                 "       %s --scenario FILE.json...\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "--scenario") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "--scenario needs at least one file\n");
      return 2;
    }
    return lintScenarios(argc - 2, argv + 2);
  }
  if (std::strcmp(argv[1], "--compare-series") == 0) {
    if (argc < 4) {
      std::fprintf(stderr, "--compare-series needs two files\n");
      return 2;
    }
    std::vector<std::string> ignored;
    for (int i = 4; i < argc; ++i) {
      constexpr const char* kPrefix = "--ignore-column=";
      if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
        ignored.emplace_back(argv[i] + std::strlen(kPrefix));
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        return 2;
      }
    }
    return compareSeries(argv[2], argv[3], ignored);
  }
  for (int i = 1; i < argc; ++i) {
    if (!load(argv[i]).has_value()) return 1;
    std::printf("%s: ok\n", argv[i]);
  }
  return 0;
}
