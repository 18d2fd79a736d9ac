#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace p3::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  explicit TempFile(const char* name)
      : path(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  ++c;
  c += 5;
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 10);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, TracksHighWaterMark) {
  Gauge g;
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
}

TEST(Histogram, BucketsByUpperBoundWithOverflow) {
  Histogram h({0.1, 1.0, 10.0});
  h.observe(0.05);   // bucket 0
  h.observe(0.1);    // bucket 0 (<= bound)
  h.observe(0.5);    // bucket 1
  h.observe(10.0);   // bucket 2
  h.observe(100.0);  // overflow
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.05 + 0.1 + 0.5 + 10.0 + 100.0);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow bucket
}

TEST(Histogram, QuantilesAtBucketResolution) {
  Histogram h({0.1, 0.5, 1.0});
  for (int i = 0; i < 90; ++i) h.observe(0.05);  // first bucket
  for (int i = 0; i < 9; ++i) h.observe(0.4);    // second bucket
  h.observe(2.0);                                // overflow
  // Quantiles resolve to the smallest bound covering the rank.
  EXPECT_DOUBLE_EQ(h.p50(), 0.1);
  EXPECT_DOUBLE_EQ(h.p90(), 0.1);
  EXPECT_DOUBLE_EQ(h.p99(), 0.5);
  // Ranks landing in the overflow bucket report 2x the last bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::quantile_from_counts({}, {}, 0.99), 0.0);
}

TEST(Histogram, QuantileFromExternalCounts) {
  // The static form serves windowed deltas (autoscaler): same semantics as
  // the member accessors over an accumulated count vector.
  const std::vector<double> bounds = {0.1, 0.2, 0.4};
  const std::vector<std::int64_t> counts = {5, 0, 4, 1};  // last = overflow
  EXPECT_DOUBLE_EQ(Histogram::quantile_from_counts(bounds, counts, 0.50), 0.1);
  EXPECT_DOUBLE_EQ(Histogram::quantile_from_counts(bounds, counts, 0.90), 0.4);
  EXPECT_DOUBLE_EQ(Histogram::quantile_from_counts(bounds, counts, 0.99), 0.8);
}

TEST(Registry, SnapshotHistogramQuantileRows) {
  Registry r;
  auto& h = r.histogram("lat", {0.5, 1.0});
  for (int i = 0; i < 90; ++i) h.observe(0.2);
  for (int i = 0; i < 10; ++i) h.observe(0.8);
  bool saw_p50 = false, saw_p90 = false, saw_p99 = false;
  for (const auto& row : r.snapshot()) {
    if (row.metric != "lat") continue;
    if (row.field == "p50") {
      saw_p50 = true;
      EXPECT_EQ(row.value, "0.5");
    }
    if (row.field == "p90") saw_p90 = true;
    if (row.field == "p99") {
      saw_p99 = true;
      EXPECT_EQ(row.value, "1");
    }
  }
  EXPECT_TRUE(saw_p50);
  EXPECT_TRUE(saw_p90);
  EXPECT_TRUE(saw_p99);
}

TEST(Histogram, MeanOfEmptyIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(2.0);
  h.observe(4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  Registry r;
  Counter& a = r.counter("a");
  // Creating many more instruments must not invalidate `a` (deque storage).
  for (int i = 0; i < 100; ++i) {
    r.counter("c" + std::to_string(i));
    r.gauge("g" + std::to_string(i));
  }
  Counter& a2 = r.counter("a");
  EXPECT_EQ(&a, &a2);
  ++a;
  EXPECT_EQ(r.counter("a").value(), 1);
}

TEST(Registry, TypeMismatchThrows) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::invalid_argument);
  EXPECT_THROW(r.histogram("x", {1.0}), std::invalid_argument);
  r.gauge("y");
  EXPECT_THROW(r.counter("y"), std::invalid_argument);
}

TEST(Registry, FindWithoutCreation) {
  Registry r;
  EXPECT_EQ(r.find_counter("nope"), nullptr);
  r.counter("c").inc(7);
  ASSERT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(r.find_counter("c")->value(), 7);
  EXPECT_EQ(r.find_gauge("c"), nullptr);  // wrong type
}

TEST(Registry, AtThrowsOnUnknownNameOrWrongType) {
  Registry r;
  r.counter("c");
  r.gauge("g");
  EXPECT_THROW(r.at<Counter>("nope"), std::out_of_range);
  EXPECT_THROW(r.at<Gauge>("c"), std::out_of_range);
  EXPECT_THROW(r.at<Histogram>("c"), std::out_of_range);
  EXPECT_THROW(r.at<Counter>("g"), std::out_of_range);
}

TEST(Registry, CopyIsAValueSnapshot) {
  Registry source;
  Counter& c = source.counter("c");
  Gauge& g = source.gauge("g");
  Histogram& h = source.histogram("h", {1.0});
  c.inc(3);
  g.set(4.0);
  h.observe(0.5);
  const Registry copy = source;
  c.inc(10);
  g.set(9.0);
  h.observe(2.0);
  source.counter("added_later");
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.at<Counter>("c").value(), 3);
  EXPECT_DOUBLE_EQ(copy.at<Gauge>("g").value(), 4.0);
  EXPECT_DOUBLE_EQ(copy.at<Gauge>("g").max(), 4.0);
  EXPECT_EQ(copy.at<Histogram>("h").count(), 1);
  EXPECT_DOUBLE_EQ(copy.at<Histogram>("h").sum(), 0.5);
  EXPECT_EQ(copy.find_counter("added_later"), nullptr);
  EXPECT_EQ(source.at<Counter>("c").value(), 13);
}

TEST(Registry, SnapshotPreservesRegistrationOrder) {
  Registry r;
  r.counter("z.second");
  r.gauge("a.first");  // alphabetically earlier, registered later
  const auto rows = r.snapshot();
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0].metric, "z.second");
  EXPECT_EQ(rows[0].type, "counter");
  EXPECT_EQ(rows[1].metric, "a.first");
  EXPECT_EQ(rows[1].type, "gauge");
}

TEST(Registry, SnapshotHistogramFields) {
  Registry r;
  auto& h = r.histogram("lat", {0.5, 1.0});
  h.observe(0.2);
  h.observe(2.0);
  bool saw_count = false, saw_sum = false, saw_bucket = false;
  for (const auto& row : r.snapshot()) {
    if (row.metric != "lat") continue;
    EXPECT_EQ(row.type, "histogram");
    if (row.field == "count") {
      saw_count = true;
      EXPECT_EQ(row.value, "2");
    }
    if (row.field == "sum") saw_sum = true;
    if (row.field.rfind("le_", 0) == 0) saw_bucket = true;
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_bucket);
}

TEST(Registry, WritesCsvAndJson) {
  Registry r;
  r.counter("protocol.pushes").inc(42);
  r.gauge("w0.depth").set(3.0);

  TempFile csv("obs_registry_test.csv");
  TempFile json("obs_registry_test.json");
  r.write_csv(csv.path);
  r.write_json(json.path);

  const std::string csv_text = slurp(csv.path);
  EXPECT_NE(csv_text.find("metric,type,field,value"), std::string::npos);
  EXPECT_NE(csv_text.find("protocol.pushes,counter,value,42"),
            std::string::npos);

  const std::string json_text = slurp(json.path);
  EXPECT_NE(json_text.find("\"protocol.pushes\""), std::string::npos);
  EXPECT_NE(json_text.find("\"w0.depth\""), std::string::npos);
}

}  // namespace
}  // namespace p3::obs
