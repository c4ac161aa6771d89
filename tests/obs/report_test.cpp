#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pleroma::obs {
namespace {

// Routes BENCH_*.json output into the test's temp dir for the test's
// lifetime (finish() and the reporter destructor both honour it).
struct BenchDirGuard {
  BenchDirGuard() { ::setenv("PLEROMA_BENCH_DIR", ::testing::TempDir().c_str(), 1); }
  ~BenchDirGuard() { ::unsetenv("PLEROMA_BENCH_DIR"); }
};

void setRequiredMeta(BenchReporter& r) {
  r.meta("seed", 42);
  r.meta("topology", "testbed_fat_tree");
  r.meta("workload", "unit_test");
}

TEST(Cell, TextRenderingMatchesTsvConventions) {
  EXPECT_EQ(Cell(12).text, "12");
  EXPECT_EQ(Cell(12).json.asInt(), 12);
  EXPECT_EQ(Cell(3.5).text, "3.5");  // double renders via %g
  EXPECT_EQ(Cell("abc").text, "abc");
  EXPECT_EQ(Cell(true).text, "true");
  EXPECT_EQ(Cell(std::uint64_t{18446744073709551615ULL}).text,
            "18446744073709551615");
  const Cell custom(JsonValue(1.23456), "1.23");
  EXPECT_EQ(custom.text, "1.23");
  EXPECT_DOUBLE_EQ(custom.json.asDouble(), 1.23456);
}

TEST(BenchReporter, ToJsonCarriesSchemaNameMetadataSeries) {
  BenchDirGuard guard;
  BenchReporter r("unit_shape");
  setRequiredMeta(r);
  r.beginSeries("latency", {{"flows", "entries"}, {"delay", "ms"}});
  r.row({1000, Cell(JsonValue(2.5), "2.50")});
  r.row({2000, Cell(JsonValue(2.7), "2.70")});

  const JsonValue doc = r.toJson();
  EXPECT_EQ(doc.get("schema")->asString(), kBenchSchema);
  EXPECT_EQ(doc.get("name")->asString(), "unit_shape");
  EXPECT_EQ(doc.get("metadata")->get("seed")->asInt(), 42);
  EXPECT_TRUE(doc.get("metadata")->contains("git_describe"));  // defaulted
  EXPECT_EQ(doc.get("metadata")->get("threads")->asInt(), 1);  // defaulted
  EXPECT_TRUE(doc.get("metadata")->contains("hardware_concurrency"));
  const JsonValue& series = *doc.get("series");
  ASSERT_EQ(series.items().size(), 1u);
  const JsonValue& s = series.items()[0];
  EXPECT_EQ(s.get("name")->asString(), "latency");
  EXPECT_EQ(s.get("columns")->items().size(), 2u);
  ASSERT_EQ(s.get("rows")->items().size(), 2u);
  EXPECT_EQ(s.get("rows")->items()[0].items()[0].asInt(), 1000);
  EXPECT_DOUBLE_EQ(s.get("rows")->items()[1].items()[1].asDouble(), 2.7);

  std::string err;
  EXPECT_TRUE(BenchReporter::validate(doc, &err)) << err;
  EXPECT_TRUE(r.finish());
}

TEST(BenchReporter, RowWidthMismatchThrows) {
  BenchDirGuard guard;
  BenchReporter r("unit_width");
  setRequiredMeta(r);
  r.beginSeries("s", {{"a", ""}, {"b", ""}});
  EXPECT_THROW(r.row({1}), std::logic_error);
  EXPECT_THROW(r.row({1, 2, 3}), std::logic_error);
  r.row({1, 2});  // correct width still works

  BenchReporter fresh("unit_noseries");
  setRequiredMeta(fresh);
  EXPECT_THROW(fresh.row({1}), std::logic_error);  // row before beginSeries
}

TEST(BenchReporter, FinishWritesValidatableFile) {
  BenchDirGuard guard;
  std::string path;
  {
    BenchReporter r("unit_file");
    setRequiredMeta(r);
    r.beginSeries("s", {{"x", ""}});
    r.row({5});
    path = r.outputPath();
    EXPECT_NE(path.find("BENCH_unit_file.json"), std::string::npos);
    EXPECT_TRUE(r.finish());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  std::string err;
  const auto doc = JsonValue::parse(text.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_TRUE(BenchReporter::validate(*doc, &err)) << err;
}

TEST(BenchReporter, DestructorWritesWhenFinishWasNotCalled) {
  BenchDirGuard guard;
  std::string path;
  {
    BenchReporter r("unit_dtor");
    setRequiredMeta(r);
    path = r.outputPath();
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
}

TEST(BenchReporter, ValidateRejectsBrokenDocuments) {
  std::string err;
  EXPECT_FALSE(BenchReporter::validate(JsonValue(3), &err));

  JsonValue doc = JsonValue::object();
  doc.set("schema", "wrong-schema");
  EXPECT_FALSE(BenchReporter::validate(doc, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);

  doc.set("schema", kBenchSchema);
  doc.set("name", "x");
  JsonValue meta = JsonValue::object();
  meta.set("seed", 1);
  meta.set("topology", "t");
  meta.set("workload", "w");
  doc.set("metadata", meta);
  doc.set("series", JsonValue::array());
  EXPECT_FALSE(BenchReporter::validate(doc, &err));  // missing git_describe
  EXPECT_NE(err.find("git_describe"), std::string::npos);

  meta.set("git_describe", "abc123");
  doc.set("metadata", meta);
  EXPECT_FALSE(BenchReporter::validate(doc, &err));  // missing threads
  EXPECT_NE(err.find("threads"), std::string::npos);

  meta.set("threads", 4);
  meta.set("hardware_concurrency", 8);
  doc.set("metadata", meta);
  EXPECT_TRUE(BenchReporter::validate(doc, &err)) << err;

  // "metrics" is optional, but must be an object when present.
  doc.set("metrics", JsonValue::object());
  EXPECT_TRUE(BenchReporter::validate(doc, &err)) << err;
  doc.set("metrics", 3);
  EXPECT_FALSE(BenchReporter::validate(doc, &err));
  EXPECT_NE(err.find("metrics"), std::string::npos);
  doc.set("metrics", JsonValue::object());

  // A series row narrower than its columns fails.
  JsonValue col = JsonValue::object();
  col.set("name", "a");
  col.set("unit", "");
  JsonValue series = JsonValue::object();
  series.set("name", "s");
  JsonValue cols = JsonValue::array();
  cols.push_back(col);
  series.set("columns", cols);
  JsonValue rows = JsonValue::array();
  rows.push_back(JsonValue::array());  // zero cells for one column
  series.set("rows", rows);
  JsonValue list = JsonValue::array();
  list.push_back(series);
  doc.set("series", list);
  EXPECT_FALSE(BenchReporter::validate(doc, &err));
  EXPECT_NE(err.find("cells"), std::string::npos);
}

}  // namespace
}  // namespace pleroma::obs
