#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#ifndef PLEROMA_GIT_DESCRIBE
#define PLEROMA_GIT_DESCRIBE "unknown"
#endif

namespace pleroma::obs {

Cell::Cell(double v) : json(v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  text = buf;
}

BenchReporter::BenchReporter(std::string name) : name_(std::move(name)) {
  metadata_.set("git_describe", PLEROMA_GIT_DESCRIBE);
  // Every run executes on one thread (DESIGN.md §10); the schema keeps
  // "threads", and "hardware_concurrency" records what the machine offered
  // so wall-clock numbers can be judged from the artifact alone.
  metadata_.set("threads", 1);
  metadata_.set("hardware_concurrency",
                static_cast<long long>(std::thread::hardware_concurrency()));
}

BenchReporter::~BenchReporter() {
  if (!finished_) finish();
}

void BenchReporter::meta(const std::string& key, JsonValue v) {
  metadata_.set(key, std::move(v));
}

void BenchReporter::beginSeries(std::string name, std::vector<Column> columns) {
  Series s;
  s.name = std::move(name);
  s.columns = std::move(columns);
  series_.push_back(std::move(s));
}

void BenchReporter::row(std::vector<Cell> cells) {
  if (series_.empty()) {
    throw std::logic_error("BenchReporter::row before beginSeries");
  }
  Series& s = series_.back();
  if (cells.size() != s.columns.size()) {
    throw std::logic_error("BenchReporter::row: " + std::to_string(cells.size()) +
                           " cells for " + std::to_string(s.columns.size()) +
                           " columns in series '" + s.name + "'");
  }
  s.rows.push_back(std::move(cells));
}

JsonValue BenchReporter::toJson() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kBenchSchema);
  doc.set("name", name_);
  doc.set("metadata", metadata_);
  JsonValue series = JsonValue::array();
  for (const Series& s : series_) {
    JsonValue entry = JsonValue::object();
    entry.set("name", s.name);
    JsonValue columns = JsonValue::array();
    for (const Column& c : s.columns) {
      JsonValue col = JsonValue::object();
      col.set("name", c.name);
      col.set("unit", c.unit);
      columns.push_back(std::move(col));
    }
    entry.set("columns", std::move(columns));
    JsonValue rows = JsonValue::array();
    for (const std::vector<Cell>& r : s.rows) {
      JsonValue row = JsonValue::array();
      for (const Cell& cell : r) row.push_back(cell.json);
      rows.push_back(std::move(row));
    }
    entry.set("rows", std::move(rows));
    series.push_back(std::move(entry));
  }
  doc.set("series", std::move(series));
  return doc;
}

std::string BenchReporter::outputPath() const {
  const char* dir = std::getenv("PLEROMA_BENCH_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (path.back() != '/') path += '/';
  return path + "BENCH_" + name_ + ".json";
}

bool BenchReporter::finish() {
  if (finished_) return true;
  finished_ = true;
  const std::string path = outputPath();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "BenchReporter: cannot open %s\n", path.c_str());
    return false;
  }
  const std::string text = toJson().dump(2);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out << '\n';
  return out.good();
}

bool BenchReporter::validate(const JsonValue& doc, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!doc.isObject()) return fail("document is not an object");
  const JsonValue* schema = doc.get("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->asString() != kBenchSchema) {
    return fail(std::string("\"schema\" must be \"") + kBenchSchema + "\"");
  }
  const JsonValue* name = doc.get("name");
  if (name == nullptr || !name->isString() || name->asString().empty()) {
    return fail("\"name\" must be a non-empty string");
  }
  const JsonValue* meta = doc.get("metadata");
  if (meta == nullptr || !meta->isObject()) {
    return fail("\"metadata\" must be an object");
  }
  for (const char* key : {"seed", "topology", "workload", "git_describe",
                          "threads", "hardware_concurrency"}) {
    const JsonValue* v = meta->get(key);
    if (v == nullptr || v->isNull()) {
      return fail(std::string("metadata is missing \"") + key + "\"");
    }
  }
  const JsonValue* series = doc.get("series");
  if (series == nullptr || !series->isArray()) {
    return fail("\"series\" must be an array");
  }
  for (const JsonValue& s : series->items()) {
    if (!s.isObject()) return fail("series entry is not an object");
    const JsonValue* sname = s.get("name");
    if (sname == nullptr || !sname->isString()) {
      return fail("series entry is missing \"name\"");
    }
    const JsonValue* columns = s.get("columns");
    if (columns == nullptr || !columns->isArray() || columns->items().empty()) {
      return fail("series \"" + sname->asString() +
                  "\": \"columns\" must be a non-empty array");
    }
    for (const JsonValue& c : columns->items()) {
      if (!c.isObject() || c.get("name") == nullptr ||
          !c.get("name")->isString() || c.get("unit") == nullptr ||
          !c.get("unit")->isString()) {
        return fail("series \"" + sname->asString() +
                    "\": every column needs string \"name\" and \"unit\"");
      }
    }
    const JsonValue* rows = s.get("rows");
    if (rows == nullptr || !rows->isArray()) {
      return fail("series \"" + sname->asString() + "\": \"rows\" must be an array");
    }
    const std::size_t width = columns->items().size();
    for (const JsonValue& r : rows->items()) {
      if (!r.isArray() || r.items().size() != width) {
        return fail("series \"" + sname->asString() +
                    "\": every row must have " + std::to_string(width) +
                    " cells");
      }
    }
  }
  const JsonValue* metrics = doc.get("metrics");
  if (metrics != nullptr && !metrics->isObject()) {
    return fail("\"metrics\" must be an object when present");
  }
  return true;
}

}  // namespace pleroma::obs
