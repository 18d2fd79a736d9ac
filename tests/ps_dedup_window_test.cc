#include "ps/dedup_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace p3::ps {
namespace {

TEST(DedupWindow, InsertReportsFirstSightingOnly) {
  DedupWindow w;
  EXPECT_TRUE(w.insert(5));
  EXPECT_FALSE(w.insert(5));
  EXPECT_TRUE(w.insert(70'000));  // far past the first word
  EXPECT_TRUE(w.contains(5));
  EXPECT_TRUE(w.contains(70'000));
  EXPECT_FALSE(w.contains(6));
  EXPECT_EQ(w.size(), 2u);
}

TEST(DedupWindow, DropBelowMidWordKeepsTheUpperBits) {
  DedupWindow w;
  for (std::int64_t id = 60; id < 140; ++id) w.insert(id);
  w.drop_below(100);  // lands mid-word (base 64)
  EXPECT_EQ(w.size(), 40u);
  EXPECT_FALSE(w.contains(99));
  EXPECT_TRUE(w.contains(100));
  EXPECT_TRUE(w.contains(139));
  w.drop_below(90);  // a lower floor is a no-op
  EXPECT_EQ(w.size(), 40u);
  EXPECT_THROW(w.insert(10), std::invalid_argument);
}

TEST(DedupWindow, ClearKeepsTheFloor) {
  DedupWindow w;
  for (std::int64_t id = 0; id < 300; id += 3) w.insert(id);
  w.drop_below(200);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.contains(201));
  EXPECT_TRUE(w.insert(201));
  EXPECT_THROW(w.insert(100), std::invalid_argument);
}

TEST(DedupWindow, MatchesASetReferenceOverSeededOperations) {
  // 100k operations against std::set: inserts at or above a rising floor
  // (mostly near the recent frontier, sometimes far ahead, sometimes
  // repeats), floors that creep, land mid-word or jump many words, and
  // occasional clears. insert() results and size() must agree every step.
  DedupWindow w;
  std::set<std::int64_t> ref;
  Rng rng(20260301);
  std::int64_t floor = 0;
  std::int64_t frontier = 0;  // highest id handed out so far
  int jumps = 0;
  int mid_word = 0;
  for (int op = 0; op < 100'000; ++op) {
    const double r = rng.uniform();
    if (r < 0.80) {
      std::int64_t id;
      const double where = rng.uniform();
      if (where < 0.70) {
        id = frontier + static_cast<std::int64_t>(rng.uniform() * 40.0);
      } else if (where < 0.95) {
        // Re-deliveries and late arrivals between the floor and frontier.
        const auto span = static_cast<double>(frontier - floor + 1);
        id = floor + static_cast<std::int64_t>(rng.uniform() * span);
      } else {
        id = frontier + 64 * static_cast<std::int64_t>(rng.uniform() * 300.0);
      }
      frontier = std::max(frontier, id);
      ASSERT_EQ(w.insert(id), ref.insert(id).second) << "op " << op;
    } else if (r < 0.995) {
      std::int64_t next = floor;
      const double how = rng.uniform();
      if (how < 0.6) {
        next += static_cast<std::int64_t>(rng.uniform() * 20.0);
      } else if (how < 0.9) {
        next += 64 * static_cast<std::int64_t>(1 + rng.uniform() * 50.0) +
                static_cast<std::int64_t>(rng.uniform() * 64.0);
        ++jumps;
      } else {
        next = frontier + 1 + static_cast<std::int64_t>(rng.uniform() * 200.0);
        ++jumps;
      }
      if (next % 64 != 0) ++mid_word;
      floor = std::max(floor, next);
      frontier = std::max(frontier, floor);
      w.drop_below(floor);
      ref.erase(ref.begin(), ref.lower_bound(floor));
    } else {
      w.clear();
      ref.clear();
    }
    ASSERT_EQ(w.size(), ref.size()) << "op " << op;
  }
  // The schedule really exercised the interesting floors.
  EXPECT_GT(jumps, 1'000);
  EXPECT_GT(mid_word, 1'000);
  for (std::int64_t id = floor; id <= frontier; ++id) {
    ASSERT_EQ(w.contains(id), ref.count(id) == 1) << "id " << id;
  }
}

}  // namespace
}  // namespace p3::ps
