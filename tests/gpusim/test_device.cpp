#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../common/affinity.hpp"
#include "gpusim/device_array.hpp"
#include "reference_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hrf::gpusim {
namespace {

DeviceConfig tiny_config() {
  DeviceConfig cfg = DeviceConfig::titan_xp();
  cfg.num_sms = 2;
  return cfg;
}

TEST(Device, AllocIsAlignedAndMonotonic) {
  Device d(tiny_config());
  const std::uint64_t a = d.alloc(100);
  const std::uint64_t b = d.alloc(100);
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GT(a, 0u);  // address 0 stays invalid
}

TEST(Device, CoalescedWarpLoadIsOneTransaction) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(4096);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 4;
  d.warp_load(0, addrs, 0xffffffffu, 4);
  EXPECT_EQ(d.counters().gld_requests, 1u);
  EXPECT_EQ(d.counters().gld_transactions, 1u);  // 32 x 4B = one 128 B line
}

TEST(Device, ScatteredWarpLoadIsManyTransactions) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(1 << 20);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 4096;
  d.warp_load(0, addrs, 0xffffffffu, 4);
  EXPECT_EQ(d.counters().gld_transactions, 32u);
  EXPECT_DOUBLE_EQ(d.counters().transactions_per_request(), 32.0);
}

TEST(Device, InactiveLanesDoNotIssue) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(1 << 20);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 4096;
  d.warp_load(0, addrs, 0x3u, 4);  // only lanes 0 and 1
  EXPECT_EQ(d.counters().gld_transactions, 2u);
}

TEST(Device, EmptyMaskIsFree) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  d.warp_load(0, addrs, 0u, 4);
  EXPECT_EQ(d.counters().gld_requests, 0u);
  EXPECT_EQ(d.counters().warp_instructions, 0u);
}

TEST(Device, CacheHierarchyCountsHits) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(4096);
  for (int l = 0; l < 32; ++l) addrs[l] = base;
  d.warp_load(0, addrs, 0xffffffffu, 4);  // cold: DRAM
  EXPECT_EQ(d.counters().dram_transactions, 1u);
  d.warp_load(0, addrs, 0xffffffffu, 4);  // warm: L1
  EXPECT_EQ(d.counters().l1_hits, 1u);
  // Same line from a different SM: misses its L1, hits shared L2.
  d.warp_load(1, addrs, 0xffffffffu, 4);
  EXPECT_EQ(d.counters().l2_hits, 1u);
  EXPECT_EQ(d.counters().dram_transactions, 1u);
}

TEST(Device, FlushCachesForcesDram) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  for (int l = 0; l < 32; ++l) addrs[l] = d.alloc(0) + 4;
  d.warp_load(0, addrs, 0xffffffffu, 4);
  d.flush_caches();
  d.warp_load(0, addrs, 0xffffffffu, 4);
  EXPECT_EQ(d.counters().dram_transactions, 2u);
}

TEST(Device, BranchUniformityDetection) {
  Device d(tiny_config());
  d.warp_branch(0, 0xffffffffu, 0xffffffffu);  // all taken: uniform
  d.warp_branch(0, 0x0u, 0xffffffffu);         // none taken: uniform
  d.warp_branch(0, 0x1u, 0xffffffffu);         // split: divergent
  d.warp_branch(0, 0x1u, 0x1u);                // only active lane takes: uniform
  d.warp_branch(0, 0x2u, 0x3u);                // split among active: divergent
  EXPECT_EQ(d.counters().branches, 5u);
  EXPECT_EQ(d.counters().divergent_branches, 2u);
  EXPECT_DOUBLE_EQ(d.counters().branch_efficiency(), 0.6);
}

TEST(Device, BranchWithNoActiveLanesIgnored) {
  Device d(tiny_config());
  d.warp_branch(0, 0x5u, 0x0u);
  EXPECT_EQ(d.counters().branches, 0u);
}

TEST(Device, SharedMemoryCountsAsInstructions) {
  Device d(tiny_config());
  d.smem_load(0, 3);
  d.smem_store(0, 2);
  EXPECT_EQ(d.counters().smem_loads, 3u);
  EXPECT_EQ(d.counters().smem_stores, 2u);
  EXPECT_EQ(d.counters().warp_instructions, 5u);
}

TEST(Device, StoreCountsTransactionsWithoutCacheInstall) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(4096);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l);
  d.warp_store(0, addrs, 0xffffffffu, 1);
  EXPECT_EQ(d.counters().gst_requests, 1u);
  EXPECT_EQ(d.counters().gst_transactions, 1u);
  // The store must not have warmed the read caches.
  d.warp_load(0, addrs, 0x1u, 1);
  EXPECT_EQ(d.counters().dram_transactions, 1u);
}

TEST(Device, ResetCountersZeroesEverything) {
  Device d(tiny_config());
  d.smem_load(0, 5);
  d.warp_branch(0, 1, 3);
  d.reset_counters();
  EXPECT_EQ(d.counters().warp_instructions, 0u);
  EXPECT_EQ(d.counters().branches, 0u);
}

TEST(Device, TimingRooflinePicksTheLimiter) {
  DeviceConfig cfg = tiny_config();
  Device compute_bound(cfg);
  compute_bound.add_instructions(0, 1'000'000);
  EXPECT_EQ(compute_bound.estimate().limiter, "compute");
  EXPECT_GT(compute_bound.estimate().seconds, 0.0);

  Device mem_bound(cfg);
  // Stream many distinct lines through: all DRAM.
  std::array<std::uint64_t, 32> addrs{};
  std::uint64_t base = mem_bound.alloc(1 << 26);
  for (int rep = 0; rep < 2000; ++rep) {
    for (int l = 0; l < 32; ++l) {
      addrs[l] = base + (static_cast<std::uint64_t>(rep) * 32 + l) * 4096;
    }
    mem_bound.warp_load(0, addrs, 0xffffffffu, 4);
  }
  EXPECT_EQ(mem_bound.estimate().limiter, "dram");
}

TEST(Device, TimingScalesWithWork) {
  Device d(tiny_config());
  d.add_instructions(0, 1000);
  const double t1 = d.estimate().seconds;
  d.add_instructions(0, 9000);
  const double t2 = d.estimate().seconds;
  EXPECT_NEAR(t2 / t1, 10.0, 1e-9);
}

TEST(Device, DivergencePenaltyAddsComputeCycles) {
  DeviceConfig cfg = tiny_config();
  cfg.divergence_penalty = 10.0;
  Device d(cfg);
  d.warp_branch(0, 0x1u, 0x3u);  // divergent
  const Timing t = d.estimate();
  // 1 instruction + 10 penalty cycles over (2 SMs * 4 issue).
  EXPECT_NEAR(t.compute_cycles, 11.0 / 8.0, 1e-12);
}

TEST(Device, ConfigValidation) {
  DeviceConfig cfg = tiny_config();
  cfg.num_sms = 0;
  EXPECT_THROW(Device{cfg}, hrf::ConfigError);
}

TEST(DeviceArray, AddressesAreContiguousTyped) {
  Device d(tiny_config());
  const std::vector<float> host{1.f, 2.f, 3.f};
  DeviceArray<float> arr(d, host);
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_FLOAT_EQ(arr[1], 2.f);
  EXPECT_EQ(arr.addr(2) - arr.addr(0), 8u);
  EXPECT_EQ(arr.addr(0), arr.base());
}

TEST(DeviceArray, DistinctArraysDoNotOverlap) {
  Device d(tiny_config());
  const std::vector<std::int32_t> a(100), b(100);
  DeviceArray<std::int32_t> da(d, a), db(d, b);
  EXPECT_GE(db.base(), da.base() + 100 * sizeof(std::int32_t));
}

TEST(Device, TemporalHintServesRetouchesFromL2) {
  DeviceConfig cfg = tiny_config();
  cfg.l1_for_global_loads = false;
  Device d(cfg);
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t hot = d.alloc(128);
  const std::uint64_t cold_base = d.alloc(1 << 22);

  // Touch the hot line with the temporal hint, evict it from L2 with a
  // large sweep, touch it again: a default load would pay DRAM twice, the
  // temporal hint pays DRAM once and L2 after.
  for (auto& a : addrs) a = hot;
  d.warp_load(0, addrs, 0xffffffffu, 8, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().dram_transactions, 1u);
  for (int rep = 0; rep < 40000; ++rep) {
    for (int l = 0; l < 32; ++l) {
      addrs[l] = cold_base + (static_cast<std::uint64_t>(rep) * 32 + l) * 128 % (1 << 22);
    }
    d.warp_load(0, addrs, 0xffffffffu, 4);
  }
  const std::uint64_t dram_before = d.counters().dram_transactions;
  for (auto& a : addrs) a = hot;
  d.warp_load(0, addrs, 0xffffffffu, 8, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().dram_transactions, dram_before);  // served as L2 hit
}

TEST(Device, AtomicRmwCountsLoadStoreAndSerialization) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(4096);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 4;
  d.warp_atomic_rmw(0, addrs, 0xffffffffu, 4);
  EXPECT_EQ(d.counters().atomic_transactions, 1u);  // one coalesced line
  EXPECT_EQ(d.counters().gld_transactions, 1u);
  EXPECT_EQ(d.counters().gst_transactions, 1u);
  const Timing t = d.estimate();
  EXPECT_DOUBLE_EQ(t.atomic_cycles, tiny_config().atomic_rmw_cycles);
}

TEST(Device, AtomicCyclesAreAdditive) {
  DeviceConfig cfg = tiny_config();
  cfg.atomic_rmw_cycles = 100.0;
  Device d(cfg);
  d.add_instructions(0, 800);  // 100 compute cycles at 8 issue/cycle
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(1 << 16);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 4096;
  d.warp_atomic_rmw(0, addrs, 0xffffffffu, 4);  // 32 lines -> 3200 atomic cycles
  const Timing t = d.estimate();
  EXPECT_DOUBLE_EQ(t.atomic_cycles, 3200.0);
  EXPECT_GE(t.cycles, t.atomic_cycles);  // added on top of the roofline max
}

TEST(Device, TemporalHintFirstTouchStillPaysDram) {
  Device d(tiny_config());
  std::array<std::uint64_t, 32> addrs{};
  const std::uint64_t base = d.alloc(4096);
  for (int l = 0; l < 32; ++l) addrs[l] = base + static_cast<std::uint64_t>(l) * 128;
  d.warp_load(0, addrs, 0xffffffffu, 8, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().dram_transactions, 32u);
}

TEST(Device, MaskBitsPastTheAddressSpanAreIgnored) {
  Device d(tiny_config());
  const std::uint64_t base = d.alloc(1 << 16);
  const std::array<std::uint64_t, 3> addrs{base, base + 4096, base + 8192};
  d.warp_load(0, addrs, 0xfffffff9u, 4);  // lanes 0 and 3-31; only lane 0 exists
  EXPECT_EQ(d.counters().gld_requests, 1u);
  EXPECT_EQ(d.counters().gld_transactions, 1u);
  d.warp_load(0, addrs, 0xfffffff8u, 4);  // no existing lane: a request, no transaction
  EXPECT_EQ(d.counters().gld_requests, 2u);
  EXPECT_EQ(d.counters().gld_transactions, 1u);
}

// Random warp operations of each address shape, replayed on the device and
// on the reference model (tests/gpusim/reference_model.hpp); every counter
// must agree after every operation, so the transaction count, the L1 / L2 /
// DRAM split and the LRU state behind later hits all match.
TEST(Device, CoalescingMatchesTheReferenceModel) {
  DeviceConfig cfg = tiny_config();
  cfg.l1_bytes = 4 * 1024;  // 8 sets x 4 ways: evictions within a few ops
  cfg.l2_bytes = 96 * 1024;
  Device d(cfg);
  reference::Device ref(cfg);
  Xoshiro256 rng(23);

  std::array<std::uint64_t, 32> addrs{};
  // Bases below 2^32 lines, just under and above it, and at 2^40 lines.
  const std::uint64_t bases[] = {std::uint64_t{1} << 20, ((std::uint64_t{1} << 32) - 16) * 128,
                                 std::uint64_t{1} << 47};
  using Shape = std::function<std::uint64_t(std::uint64_t base, int lane)>;
  const Shape shapes[] = {
      // ascending, element-sized and line-sized strides (feature reads,
      // root-subtree staging)
      [&](std::uint64_t b, int l) { return b + static_cast<std::uint64_t>(l) * 112; },
      [&](std::uint64_t b, int l) { return b + static_cast<std::uint64_t>(l) * 128; },
      // descending
      [&](std::uint64_t b, int l) { return b + static_cast<std::uint64_t>(31 - l) * 200; },
      // duplicate-heavy: four lines, any order
      [&](std::uint64_t b, int) { return b + rng.bounded(4) * 128 + rng.bounded(32) * 4; },
      // all lanes on one line
      [&](std::uint64_t b, int) { return b + rng.bounded(128); },
      // scattered over a few hundred lines
      [&](std::uint64_t b, int) { return b + rng.bounded(400) * 128 + rng.bounded(16) * 8; },
  };

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t base = bases[rng.bounded(3)] + rng.bounded(64) * 128;
    const Shape& shape = shapes[rng.bounded(std::size(shapes))];
    for (int l = 0; l < 32; ++l) addrs[static_cast<std::size_t>(l)] = shape(base, l);
    // Full, sparse and random masks; spans shorter than 32 keep mask bits
    // past their end, which must be ignored.
    const std::uint32_t masks[] = {0xffffffffu,
                                   static_cast<std::uint32_t>(rng.next() & rng.next() & rng.next()),
                                   static_cast<std::uint32_t>(rng.next())};
    const std::uint32_t mask = masks[rng.bounded(3)];
    const std::size_t lanes = rng.bernoulli(0.25) ? 1 + rng.bounded(31) : 32;
    const std::span<const std::uint64_t> span(addrs.data(), lanes);
    const int sm = static_cast<int>(rng.bounded(4));  // wraps the 2 SMs
    const auto hint = rng.bernoulli(0.2) ? Device::LoadHint::kTemporal : Device::LoadHint::kDefault;
    switch (rng.bounded(4)) {
      case 0:
      case 1:
        d.warp_load(sm, span, mask, 4, hint);
        ref.warp_load(sm, span, mask, hint);
        break;
      case 2:
        d.warp_store(sm, span, mask, 4);
        ref.warp_store(span, mask);
        break;
      default:
        d.warp_atomic_rmw(sm, span, mask, 4);
        ref.warp_atomic_rmw(sm, span, mask);
        break;
    }
    ASSERT_EQ(d.counters(), ref.counters()) << "after op " << op;
  }
  EXPECT_GT(d.counters().l1_hits, 0u);
  EXPECT_GT(d.counters().l2_hits, 0u);
  EXPECT_GT(d.counters().dram_transactions, 0u);
}

// Replays one warp load on the device and the reference and requires equal
// counters; returns the transactions the load added.
std::uint64_t load_both(Device& d, reference::Device& ref, std::span<const std::uint64_t> addrs,
                        std::uint32_t mask,
                        Device::LoadHint hint = Device::LoadHint::kDefault) {
  const std::uint64_t before = d.counters().gld_transactions;
  d.warp_load(0, addrs, mask, 4, hint);
  ref.warp_load(0, addrs, mask, hint);
  EXPECT_EQ(d.counters(), ref.counters());
  return d.counters().gld_transactions - before;
}

// The coalescer deduplicates lines near the first active lane's line
// through a 64-line bitmap and scans for the rest. Put lanes exactly at
// the window's edges and one line past them, on both sides, each twice,
// and mix duplicated near and far lines in every order.
TEST(Device, CoalescerWindowEdgesMatchTheReferenceModel) {
  Device d(tiny_config());
  reference::Device ref(tiny_config());
  const std::uint64_t first = 1 << 20;  // line id of the first active lane
  const auto at = [](std::uint64_t line) { return line * 128 + 8; };
  std::array<std::uint64_t, 32> addrs{};

  for (const int delta : {31, 32, 33}) {
    SCOPED_TRACE("first +- " + std::to_string(delta));
    const std::uint64_t below = first - static_cast<std::uint64_t>(delta);
    const std::uint64_t above = first + static_cast<std::uint64_t>(delta);
    // first, above, below, then each again: 3 distinct lines.
    const std::uint64_t lines[] = {first, above, below, above, below, first};
    for (std::size_t l = 0; l < 32; ++l) addrs[l] = at(lines[l % 6]);
    EXPECT_EQ(load_both(d, ref, addrs, 0xffffffffu), 3u);
    // The window follows the first *active* lane: with lane 0 off, the
    // first active lane reads `above`, so `below` sits 2 x delta away.
    EXPECT_EQ(load_both(d, ref, addrs, 0xfffffffeu), 3u);
    EXPECT_EQ(load_both(d, ref, addrs, 0x0000001cu), 2u);  // lanes 2-4
  }

  // Descending lanes, one line apart (all near) and three apart (the far
  // ones descend, so each is scanned for).
  for (const std::uint64_t step : {1u, 3u}) {
    for (std::size_t l = 0; l < 32; ++l) addrs[l] = at(first - step * l);
    EXPECT_EQ(load_both(d, ref, addrs, 0xffffffffu), 32u);
    for (std::size_t l = 0; l < 32; ++l) addrs[l] = at(first - step * (l / 2));
    EXPECT_EQ(load_both(d, ref, addrs, 0xffffffffu), 16u);
  }

  // Near and far duplicates interleaved, far lines out of order.
  const std::uint64_t mixed[] = {first,       first + 40, first + 5,  first + 40,
                                 first - 50,  first + 5,  first - 50, first + 100,
                                 first + 40,  first - 32, first + 31, first - 33,
                                 first + 100, first - 33, first + 32, first + 32};
  for (std::size_t l = 0; l < 32; ++l) addrs[l] = at(mixed[l % 16]);
  EXPECT_EQ(load_both(d, ref, addrs, 0xffffffffu), 9u);

  // Random lanes within 40 lines of the first, so both sides of both edges
  // are hit often, under random masks.
  Xoshiro256 rng(31);
  for (int op = 0; op < 4000; ++op) {
    for (auto& a : addrs) a = at(first - 40 + rng.bounded(81));
    load_both(d, ref, addrs, static_cast<std::uint32_t>(rng.next()) | 1u);
    load_both(d, ref, addrs, static_cast<std::uint32_t>(rng.next()));
  }
}

// A small L2 (2 sets x 16 ways) with L1 off, so kTemporal lines leave L2
// after a few dozen other lines.
DeviceConfig small_l2_config() {
  DeviceConfig cfg = tiny_config();
  cfg.l1_for_global_loads = false;
  cfg.l2_bytes = 4 * 1024;
  return cfg;
}

TEST(Device, TemporalRetouchAfterL2EvictionMatchesTheReferenceModel) {
  Device d(small_l2_config());
  reference::Device ref(small_l2_config());
  const std::uint64_t hot = d.alloc(128);
  const std::uint64_t sweep = d.alloc(64 * 128);
  const std::array<std::uint64_t, 1> hot_addr{hot};
  std::array<std::uint64_t, 32> addrs{};

  load_both(d, ref, hot_addr, 1u, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().dram_transactions, 1u);
  load_both(d, ref, hot_addr, 1u, Device::LoadHint::kTemporal);  // still in L2
  EXPECT_EQ(d.counters().l2_hits, 1u);
  for (int half = 0; half < 2; ++half) {  // 64 other lines: evicts `hot`
    for (std::size_t l = 0; l < 32; ++l) addrs[l] = sweep + (32 * half + l) * 128;
    load_both(d, ref, addrs, 0xffffffffu);
  }
  // A default load of the evicted line pays DRAM; a kTemporal one is a
  // re-touch by a concurrent block and an L2 hit.
  const Counters before = d.counters();
  load_both(d, ref, hot_addr, 1u, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().l2_hits, before.l2_hits + 1);
  EXPECT_EQ(d.counters().dram_transactions, before.dram_transactions);
}

TEST(Device, TemporalLinesBeyondTheAllocationsMatchTheReferenceModel) {
  Device d(small_l2_config());
  reference::Device ref(small_l2_config());
  // Never-allocated addresses: page zero, far past the bump pointer, the
  // top of the 64-bit space, and 3000 lines spread across it (enough to
  // grow the temporal set several times); each twice, with L2 long
  // evicted by the second pass.
  std::vector<std::uint64_t> far{0, std::uint64_t{1} << 40,
                                 std::numeric_limits<std::uint64_t>::max()};
  Xoshiro256 rng(41);
  for (int i = 0; i < 3000; ++i) far.push_back(rng.next());
  std::array<std::uint64_t, 32> addrs{};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < far.size(); i += 32) {
      for (std::size_t l = 0; l < 32; ++l) addrs[l] = far[(i + l) % far.size()];
      load_both(d, ref, addrs, 0xffffffffu, Device::LoadHint::kTemporal);
    }
  }
  // Each of the 3003 lines pays DRAM once; every other transaction (the
  // second pass, and the first pass's last warp wrapping onto its first
  // five lines) is an L2 hit.
  EXPECT_EQ(d.counters().dram_transactions, 3003u);
  EXPECT_EQ(d.counters().l2_hits, d.counters().gld_transactions - 3003u);
}

TEST(Device, FlushCachesForgetsTemporalLines) {
  Device d(small_l2_config());
  reference::Device ref(small_l2_config());
  const std::array<std::uint64_t, 1> addr{d.alloc(128)};
  load_both(d, ref, addr, 1u, Device::LoadHint::kTemporal);
  d.flush_caches();
  ref.flush_caches();
  // Out of L2 and out of the temporal set: a first touch again.
  load_both(d, ref, addr, 1u, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().dram_transactions, 2u);
  load_both(d, ref, addr, 1u, Device::LoadHint::kTemporal);
  EXPECT_EQ(d.counters().l2_hits, 1u);
}

TEST(SimThreads, OnePerBusySmCappedByCpus) {
  struct Case {
    int active_sms, cpus, want;
  };
  const Case cases[] = {
      {0, 4, 1},   // an empty grid still runs on the caller
      {1, 4, 1},   // one block: the caller alone
      {1, 0, 1},   // no CPU count known
      {4, 4, 4},   // a 1024-row launch on 4 CPUs
      {30, 4, 4},  // a full TITAN Xp grid on 4 CPUs
      {2, 64, 2},  // more CPUs than busy SMs
      {30, 1, 1},  // a thread pinned to one CPU
  };
  for (const Case& c : cases) {
    EXPECT_EQ(sim_threads(c.active_sms, c.cpus), c.want)
        << "active_sms " << c.active_sms << ", cpus " << c.cpus;
  }
}

TEST(RunBlocks, OneBlockRunsOnTheCallingThread) {
  Device d(tiny_config());
  std::thread::id ran_on;
  int calls = 0;
  d.run_blocks(1, [&](int sm, std::size_t b) {
    EXPECT_EQ(sm, 0);
    EXPECT_EQ(b, 0u);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(RunBlocks, FourBlocksUseMoreThanOneThreadGivenTwoCpus) {
  if (testing_affinity::allowed_cpus().size() < 2) GTEST_SKIP() << "needs 2 CPUs";
  DeviceConfig cfg = tiny_config();
  cfg.num_sms = 4;
  Device d(cfg);
  std::mutex mu;
  std::vector<std::thread::id> threads;
  std::atomic<bool> second_thread{false};
  d.run_blocks(4, [&](int, std::size_t) {
    {
      const std::lock_guard lock(mu);
      threads.push_back(std::this_thread::get_id());
      if (threads.back() != threads.front()) second_thread = true;
    }
    // Hold the first thread here so it cannot run every SM itself before
    // the others start.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!second_thread && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(second_thread);
}

TEST(RunBlocks, EachSmRunsItsBlocksInOrderOnOneThread) {
  DeviceConfig cfg = tiny_config();
  cfg.num_sms = 4;
  Device d(cfg);
  struct Ran {
    int sm;
    std::size_t block;
    std::thread::id thread;
  };
  std::mutex mu;
  std::vector<Ran> ran;  // in the order the blocks ran
  constexpr std::size_t kBlocks = 19;
  d.run_blocks(kBlocks, [&](int sm, std::size_t b) {
    const std::lock_guard lock(mu);
    ran.push_back({sm, b, std::this_thread::get_id()});
  });
  ASSERT_EQ(ran.size(), kBlocks);
  std::vector<bool> seen(kBlocks, false);
  for (int sm = 0; sm < cfg.num_sms; ++sm) {
    std::vector<Ran> mine;
    for (const Ran& r : ran) {
      if (r.sm == sm) mine.push_back(r);
    }
    ASSERT_FALSE(mine.empty()) << "SM " << sm;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].block, static_cast<std::size_t>(sm) + 4 * i) << "SM " << sm;
      EXPECT_EQ(mine[i].thread, mine[0].thread) << "SM " << sm;
      seen[mine[i].block] = true;
    }
  }
  for (std::size_t b = 0; b < kBlocks; ++b) EXPECT_TRUE(seen[b]) << "block " << b;
}

TEST(RunBlocks, TheLowestFailingBlocksExceptionReachesTheCaller) {
  DeviceConfig cfg = tiny_config();
  cfg.num_sms = 4;
  Device d(cfg);
  std::array<std::uint64_t, 32> addrs{};
  for (std::size_t l = 0; l < 32; ++l) addrs[l] = d.alloc(128);
  std::atomic<int> ran_on_sm1{0};
  try {
    d.run_blocks(12, [&](int sm, std::size_t b) {
      d.warp_load(sm, addrs, 0xffffffffu, 4);
      if (sm == 1) ++ran_on_sm1;
      if (b == 5 || b == 6) throw std::runtime_error("block " + std::to_string(b));
    });
    FAIL() << "run_blocks swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "block 5");
  }
  EXPECT_EQ(ran_on_sm1, 2);  // blocks 1 and 5; block 9 never ran
  // The device serves direct operations again: a load of a line never
  // touched resolves at once, in DRAM.
  const Counters before = d.counters();
  const std::array<std::uint64_t, 1> fresh{d.alloc(128)};
  d.warp_load(3, fresh, 0x1u, 4);
  EXPECT_EQ(d.counters().dram_transactions, before.dram_transactions + 1);
}

// Loads issued inside run_blocks resolve in L2 in block order whatever
// the thread count: the reference model, fed the same loads block by
// block, must agree on every counter, with an L2 small enough that the
// order decides what it still holds.
TEST(RunBlocks, MissesReachL2InBlockOrder) {
  DeviceConfig cfg = small_l2_config();
  cfg.num_sms = 3;
  Device d(cfg);
  reference::Device ref(cfg);
  constexpr std::size_t kBlocks = 10;
  const std::uint64_t base = d.alloc(256 * 128);
  const auto block_addrs = [&](std::size_t b, int warp) {
    std::array<std::uint64_t, 32> addrs{};
    Xoshiro256 rng(b * 16 + static_cast<std::size_t>(warp));
    for (auto& a : addrs) a = base + rng.bounded(256) * 128;
    return addrs;
  };
  const auto hint_of = [](std::size_t b, int warp) {
    return (b + static_cast<std::size_t>(warp)) % 3 == 0 ? Device::LoadHint::kTemporal
                                                         : Device::LoadHint::kDefault;
  };
  d.run_blocks(kBlocks, [&](int sm, std::size_t b) {
    for (int warp = 0; warp < 8; ++warp) {
      d.warp_load(sm, block_addrs(b, warp), 0xffffffffu, 4, hint_of(b, warp));
    }
  });
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (int warp = 0; warp < 8; ++warp) {
      ref.warp_load(static_cast<int>(b % 3), block_addrs(b, warp), 0xffffffffu, hint_of(b, warp));
    }
  }
  EXPECT_EQ(d.counters(), ref.counters());
  EXPECT_GT(d.counters().l2_hits, 0u);
}

}  // namespace
}  // namespace hrf::gpusim
