// BenchReporter — the single machine-readable sink every bench binary
// writes through. Emits `BENCH_<name>.json` (schema "pleroma-bench-v1"):
//
//   {
//     "schema": "pleroma-bench-v1",
//     "name": "fig7a",
//     "metadata": { "seed": 42, "topology": "...", "workload": "...",
//                   "git_describe": "...", "threads": 1,
//                   "hardware_concurrency": 8, ... },
//     "series": [ { "name": "...",
//                   "columns": [ {"name": "...", "unit": "..."}, ... ],
//                   "rows": [ [ ... ], ... ] }, ... ],
//     "metrics": { ... }                  // optional object, checked by validate()
//   }
//
// The six metadata keys above are required by validate(); "git_describe",
// "threads" (always 1: every run is single-threaded) and
// "hardware_concurrency" are pre-filled by the constructor, and benches add
// whatever else describes the run. Rows carry typed JSON values plus the
// exact text the bench printed to its TSV, so the JSON is authoritative
// while the human-readable output stays byte-identical.
//
// Output lands in $PLEROMA_BENCH_DIR (default: current directory).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pleroma::obs {

inline constexpr const char* kBenchSchema = "pleroma-bench-v1";

struct Column {
  std::string name;
  std::string unit;  ///< "" for dimensionless
};

/// One table cell: a typed JSON value plus its text rendering. Implicit
/// conversions cover the common cases; pass {json, text} to control both.
struct Cell {
  JsonValue json;
  std::string text;

  Cell(JsonValue j, std::string t) : json(std::move(j)), text(std::move(t)) {}
  Cell(const char* s) : json(s), text(s) {}
  Cell(std::string s) : text(s) { json = JsonValue(std::move(s)); }
  Cell(bool b) : json(b), text(b ? "true" : "false") {}
  Cell(int v) : Cell(static_cast<long long>(v)) {}
  Cell(long v) : Cell(static_cast<long long>(v)) {}
  Cell(long long v) : json(v), text(std::to_string(v)) {}
  Cell(unsigned v) : Cell(static_cast<unsigned long long>(v)) {}
  Cell(unsigned long v) : Cell(static_cast<unsigned long long>(v)) {}
  Cell(unsigned long long v) : json(v), text(std::to_string(v)) {}
  Cell(double v);  ///< text via "%g"
};

class BenchReporter {
 public:
  /// `name` becomes the "name" field and the BENCH_<name>.json filename.
  explicit BenchReporter(std::string name);
  ~BenchReporter();  // writes the report if finish() was not called

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// Sets a metadata value (seed, topology, workload, … — validate()
  /// requires seed/topology/workload/git_describe/threads/
  /// hardware_concurrency; the latter three are pre-filled).
  void meta(const std::string& key, JsonValue v);

  /// Starts a new series; subsequent row() calls append to it.
  void beginSeries(std::string name, std::vector<Column> columns);
  /// Appends one row to the current series; cell count must match the
  /// series' column count (mismatches throw std::logic_error).
  void row(std::vector<Cell> cells);

  JsonValue toJson() const;

  /// $PLEROMA_BENCH_DIR/BENCH_<name>.json ("." when the env var is unset).
  std::string outputPath() const;

  /// Writes the report; returns false on IO failure. Idempotent.
  bool finish();

  /// Structural schema check; on failure explains in *error.
  static bool validate(const JsonValue& doc, std::string* error = nullptr);

 private:
  struct Series {
    std::string name;
    std::vector<Column> columns;
    std::vector<std::vector<Cell>> rows;
  };

  std::string name_;
  JsonValue metadata_ = JsonValue::object();
  std::vector<Series> series_;
  bool finished_ = false;
};

}  // namespace pleroma::obs
