#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "reference_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hrf::gpusim {
namespace {

TEST(Cache, ConstructorValidation) {
  EXPECT_THROW(Cache(1024, 4, 100), hrf::ConfigError);  // line not pow2
  EXPECT_THROW(Cache(0, 1, 128), hrf::ConfigError);     // smaller than a set
  EXPECT_THROW(Cache(128, 3, 128), hrf::ConfigError);   // ways don't divide
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

}  // namespace
}  // namespace hrf::gpusim
