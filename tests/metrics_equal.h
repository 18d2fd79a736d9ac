// Whole-registry equality for the determinism tests: two runs of the same
// seed must agree on every counter, gauge and histogram.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "obs/registry.h"

namespace p3::obs {

/// Expects equal snapshot rows (same instruments, order and printed values)
/// and bitwise-equal gauge values, gauge maxima and histogram sums, which
/// the rows print at only 12 digits.
inline void expect_same_metrics(const Registry& a, const Registry& b,
                                const std::string& where) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto rows_a = a.snapshot();
  const auto rows_b = b.snapshot();
  ASSERT_EQ(rows_a.size(), rows_b.size()) << where;
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    const Registry::Row& r = rows_a[i];
    const Registry::Row& s = rows_b[i];
    const std::string what = where + ": " + r.metric + "." + r.field;
    ASSERT_EQ(r.metric + "." + r.field, s.metric + "." + s.field) << where;
    EXPECT_EQ(r.value, s.value) << what;
    if (r.type == "gauge" && r.field == "value") {
      const Gauge& ga = a.at<Gauge>(r.metric);
      const Gauge& gb = b.at<Gauge>(r.metric);
      EXPECT_EQ(bits(ga.value()), bits(gb.value())) << what;
      EXPECT_EQ(bits(ga.max()), bits(gb.max())) << what;
    } else if (r.type == "histogram" && r.field == "sum") {
      EXPECT_EQ(bits(a.at<Histogram>(r.metric).sum()),
                bits(b.at<Histogram>(r.metric).sum()))
          << what;
    }
  }
}

}  // namespace p3::obs
