#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "gpusim/line_set.hpp"
#include "reference_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hrf::gpusim {
namespace {

TEST(Cache, ConstructorValidation) {
  EXPECT_THROW(Cache(1024, 4, 100), hrf::ConfigError);  // line not pow2
  EXPECT_THROW(Cache(0, 1, 128), hrf::ConfigError);     // smaller than a set
  EXPECT_THROW(Cache(128, 3, 128), hrf::ConfigError);   // ways don't divide
  EXPECT_THROW(Cache(1024, 4, 1), hrf::ConfigError);    // tag of line 2^64 - 1 wraps to 0
  EXPECT_NO_THROW(Cache(3 * 1024 * 1024, 16, 128));     // the TITAN Xp L2
}

TEST(Cache, MissThenHit) {
  Cache c(1024, 2, 128);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(64));  // same 128 B line
  EXPECT_FALSE(c.access(128));
}

TEST(Cache, GeometryAccessors) {
  Cache c(1024, 2, 128);
  EXPECT_EQ(c.capacity_bytes(), 1024u);
  EXPECT_EQ(c.line_bytes(), 128u);
  EXPECT_EQ(c.ways(), 2);
  EXPECT_EQ(c.num_sets(), 4u);
}

TEST(Cache, LruEvictsOldestWay) {
  // 4 sets x 2 ways; lines mapping to set 0: line ids 0, 4, 8 (stride 4).
  Cache c(1024, 2, 128);
  EXPECT_FALSE(c.access(0 * 128));
  EXPECT_FALSE(c.access(4 * 128));
  EXPECT_FALSE(c.access(8 * 128));   // evicts line 0
  EXPECT_FALSE(c.access(0 * 128));   // line 0 is gone
  EXPECT_TRUE(c.access(8 * 128));    // line 8 still resident
}

TEST(Cache, LruRefreshOnHit) {
  Cache c(1024, 2, 128);
  c.access(0 * 128);
  c.access(4 * 128);
  c.access(0 * 128);                 // refresh line 0: line 4 is now LRU
  EXPECT_FALSE(c.access(8 * 128));   // evicts line 4
  EXPECT_TRUE(c.access(0 * 128));
  EXPECT_FALSE(c.access(4 * 128));
}

TEST(Cache, SetsAreIndependent) {
  Cache c(1024, 2, 128);
  // Fill set 0 beyond capacity; set 1 must be untouched.
  c.access(1 * 128);  // set 1
  c.access(0 * 128);
  c.access(4 * 128);
  c.access(8 * 128);
  EXPECT_TRUE(c.access(1 * 128));
}

TEST(Cache, FlushForgetsEverything) {
  Cache c(1024, 2, 128);
  c.access(0);
  c.flush();
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, FullyAssociativeWhenOneSet) {
  Cache c(512, 4, 128);  // 4 lines, 4 ways -> 1 set
  EXPECT_EQ(c.num_sets(), 1u);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(c.access(static_cast<std::uint64_t>(i) * 128));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(c.access(static_cast<std::uint64_t>(i) * 128));
  EXPECT_FALSE(c.access(4 * 128));  // evicts line 0 (LRU)
  EXPECT_FALSE(c.access(0 * 128));
}

TEST(Cache, LargeAddressesWork) {
  Cache c(1024, 2, 128);
  const std::uint64_t big = 0x7fffffff0000ULL;
  EXPECT_FALSE(c.access(big));
  EXPECT_TRUE(c.access(big + 1));
}

// The two TITAN Xp geometries: 96 sets (L1) and 1536 sets (L2), neither a
// power of two, so the set index is the multiply-based remainder.
struct Geometry {
  std::size_t capacity;
  int ways;
};
constexpr Geometry kL1{48 * 1024, 4};
constexpr Geometry kL2{3 * 1024 * 1024, 16};

// Plays `lines` through the cache and the division-based reference and
// requires the same hit/miss answer at every access.
void expect_same_hits(Geometry g, const std::vector<std::uint64_t>& lines) {
  Cache c(g.capacity, g.ways, 128);
  reference::Cache ref(g.capacity, g.ways, 128);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool want = ref.access(lines[i] * 128);
    // Alternate the two entry points: they must index the same set.
    const bool got = i % 2 ? c.access_line(lines[i]) : c.access(lines[i] * 128 + i % 128);
    ASSERT_EQ(got, want) << "access " << i << ", line " << lines[i];
  }
}

TEST(Cache, SetIndexMatchesDivisionOnRandomLines) {
  for (const Geometry g : {kL1, kL2}) {
    SCOPED_TRACE(std::to_string(g.capacity / 128 / static_cast<std::size_t>(g.ways)) + " sets");
    Xoshiro256 rng(17);
    std::vector<std::uint64_t> lines;
    // Line ids below, around and above 2^32, drawn from small windows so
    // that lines recur and both hits and evictions happen. Near 2^56 a
    // multiply-based remainder with a 64-bit reciprocal is no longer exact.
    for (const std::uint64_t base : {std::uint64_t{32}, (std::uint64_t{1} << 32) - 2048,
                                     std::uint64_t{1} << 40, std::uint64_t{1} << 56}) {
      for (int i = 0; i < 20000; ++i) lines.push_back(base + rng.bounded(4096));
    }
    expect_same_hits(g, lines);
  }
}

TEST(Cache, SetIndexIsExactAcrossThe32BitBoundary) {
  // ways + 1 lines that share one set under `%` evict the first of them;
  // each chain straddles or starts at a boundary line id.
  for (const Geometry g : {kL1, kL2}) {
    const std::uint64_t sets = g.capacity / 128 / static_cast<std::size_t>(g.ways);
    for (const std::uint64_t anchor : {(std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
                                       std::uint64_t{1} << 40, std::uint64_t{1} << 56}) {
      SCOPED_TRACE(std::to_string(sets) + " sets, anchor " + std::to_string(anchor));
      std::vector<std::uint64_t> lines;
      const std::uint64_t first = anchor - sets * static_cast<std::uint64_t>(g.ways / 2);
      for (int k = 0; k <= g.ways; ++k) lines.push_back(first + sets * static_cast<std::uint64_t>(k));
      lines.push_back(first);       // evicted: misses
      lines.push_back(anchor);      // still resident: hits
      lines.push_back(anchor + 1);  // the next set: misses
      expect_same_hits(g, lines);

      Cache c(g.capacity, g.ways, 128);
      for (const std::uint64_t line : lines) c.access_line(line);
      EXPECT_TRUE(c.access_line(anchor));
      EXPECT_FALSE(c.access_line(first + sets));  // evicted by the re-touch of `first`
    }
  }
}

// Checks, on copies of `c`, that set 0 of a `sets`-set cache holds exactly
// `order`, most recent first: k misses must leave its first ways - k lines
// and evict the rest.
void expect_lru_order(const Cache& c, const std::vector<std::uint64_t>& order,
                      std::uint64_t sets) {
  const auto ways = static_cast<std::size_t>(c.ways());
  for (std::size_t k = 1; k <= ways; ++k) {
    Cache probe = c;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_FALSE(probe.access_line(sets * (1'000'000 + i)));  // lines never used elsewhere
    }
    // Least recent first, so no hit evicts another kept line.
    const std::size_t kept = std::min(order.size(), ways - k);
    for (std::size_t i = kept; i-- > 0;) {
      EXPECT_TRUE(probe.access_line(order[i])) << "line " << order[i] << " lost";
    }
    if (kept < order.size()) {
      EXPECT_FALSE(probe.access_line(order[kept])) << "line " << order[kept] << " kept";
    }
  }
}

// A hit at LRU position p must move that line to the front and shift the
// p lines before it back by one; a miss must shift every way and drop the
// LRU line. For each way count, hit every position in turn, each followed
// by a miss and by a re-touch of the line that miss evicted, and require
// the reference's answer at every access and the full LRU order after it.
TEST(Cache, HitsAtEveryWayPositionMatchTheReference) {
  for (const int ways : {1, 4, 16}) {
    SCOPED_TRACE(std::to_string(ways) + " ways");
    constexpr std::uint64_t kSets = 4;
    const std::size_t capacity = kSets * static_cast<std::size_t>(ways) * 128;
    Cache c(capacity, ways, 128);
    reference::Cache ref(capacity, ways, 128);
    std::vector<std::uint64_t> order;  // set 0's lines, most recent first
    std::uint64_t next_line = 0;
    // Touches `line` (in set 0) on both caches and mirrors LRU order.
    const auto touch = [&](std::uint64_t line, bool want) {
      EXPECT_EQ(ref.access(line * 128), want) << "line " << line;
      EXPECT_EQ(c.access_line(line), want) << "line " << line;
      std::erase(order, line);
      order.insert(order.begin(), line);
      if (order.size() > static_cast<std::size_t>(ways)) order.pop_back();
      expect_lru_order(c, order, kSets);
    };
    for (int round = 0; round < 3; ++round) {
      for (int p = 0; p < ways; ++p) {
        while (order.size() < static_cast<std::size_t>(ways)) touch(kSets * next_line++, false);
        touch(order[static_cast<std::size_t>(p)], true);
        const std::uint64_t lru = order.back();
        touch(kSets * next_line++, false);  // evicts `lru`
        touch(lru, false);
        // A line of another set leaves set 0 alone.
        const std::uint64_t other = 1 + kSets * static_cast<std::uint64_t>(round);
        EXPECT_EQ(c.access_line(other), ref.access(other * 128));
        expect_lru_order(c, order, kSets);
      }
    }
  }
}

TEST(LineSet, MatchesAHashSetOnAnyIdAndForgetsOnClear) {
  // Consecutive ids, ids far apart, both ends of the 64-bit range (the
  // largest id's +1 key wraps to the empty marker) and enough ids to grow
  // the table several times.
  std::vector<std::uint64_t> ids{0, 1, std::numeric_limits<std::uint64_t>::max(),
                                 std::numeric_limits<std::uint64_t>::max() - 1};
  Xoshiro256 rng(5);
  for (int i = 0; i < 6000; ++i) ids.push_back(1000 + static_cast<std::uint64_t>(i));
  for (int i = 0; i < 6000; ++i) ids.push_back(rng.next());
  for (int i = 0; i < 6000; ++i) ids.push_back(ids[rng.bounded(ids.size())]);  // repeats
  LineSet set;
  for (int pass = 0; pass < 2; ++pass) {
    std::unordered_set<std::uint64_t> want;
    for (const std::uint64_t id : ids) ASSERT_EQ(set.insert(id), want.insert(id).second) << id;
    set.clear();
  }
}

}  // namespace
}  // namespace hrf::gpusim
