#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/config.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/line_set.hpp"

namespace hrf::gpusim {

/// Roofline time estimate for one kernel execution (see Device::estimate).
struct Timing {
  double cycles = 0.0;
  double seconds = 0.0;
  double compute_cycles = 0.0;
  double dram_cycles = 0.0;
  double l2_cycles = 0.0;
  double atomic_cycles = 0.0;  // additive: serialized at the L2 atomic units
  std::string limiter;         // "compute" | "dram" | "l2"

  bool operator==(const Timing&) const = default;
};

/// The simulated GPU.
///
/// Kernels drive it with warp-level operations:
///  * warp_load / warp_store — per-lane byte addresses + an active mask;
///    the device coalesces the access into 128-byte transactions, probes
///    the SM's L1 and the shared L2, and counts where each transaction was
///    serviced.
///  * smem_load / smem_store — shared-memory traffic (no cache model;
///    charged as issue work).
///  * warp_branch — records whether a data-dependent branch was uniform
///    across the warp's active lanes (nvprof branch_efficiency).
///  * add_instructions — issue-work proxy for arithmetic/control.
///
/// estimate() turns the counters into cycles with a throughput roofline:
/// a memory-bound kernel pays DRAM/L2 bandwidth for its transaction
/// volume; a compute-bound kernel pays instruction issue. This abstracts
/// away latency (assumed hidden by the millions of resident queries) but
/// preserves exactly the effects the paper measures: transaction counts,
/// coalescing quality, shared-memory offload and branch divergence.
class Device {
 public:
  explicit Device(const DeviceConfig& config);

  const DeviceConfig& config() const { return cfg_; }

  /// Bump allocation in the simulated global address space, 256 B aligned
  /// (matches cudaMalloc alignment guarantees).
  std::uint64_t alloc(std::size_t bytes);

  /// Cache-behaviour hint for warp_load.
  ///
  /// kTemporal marks streaming loads that all concurrently resident blocks
  /// issue at about the same time (e.g. the hybrid kernel's cooperative
  /// root-subtree staging at each tree boundary): the first touch of a
  /// line pays DRAM, re-touches are served by L2 even if the simulator's
  /// sequential block ordering would have evicted the line in between.
  /// This corrects the one place where sequential-block simulation is
  /// systematically more pessimistic than concurrent-block hardware.
  enum class LoadHint { kDefault, kTemporal };

  /// Warp-level global load: lane i reads `elem_bytes` at `addrs[i]` when
  /// active_mask bit i is set. Counts one request plus one transaction per
  /// distinct 128-byte line touched.
  void warp_load(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                 std::size_t elem_bytes, LoadHint hint = LoadHint::kDefault);

  /// Warp-level global store (write-through accounting; no cache install).
  void warp_store(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                  std::size_t elem_bytes);

  /// Warp-level atomic read-modify-write (atomicAdd & co.): counts the
  /// load and store traffic plus an atomic transaction per distinct line,
  /// which estimate() charges with the L2 serialization cost.
  void warp_atomic_rmw(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                       std::size_t elem_bytes);

  /// Shared-memory access by one warp (count = warp-level instructions).
  void smem_load(std::uint64_t count = 1);
  void smem_store(std::uint64_t count = 1);

  /// Data-dependent branch: divergent when active lanes disagree.
  void warp_branch(std::uint32_t taken_mask, std::uint32_t active_mask);

  /// Charges `n` generic warp instructions (address math, compares, ...).
  void add_instructions(std::uint64_t n) { counters_.warp_instructions += n; }

  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }
  void flush_caches();

  /// Roofline estimate over the counters accumulated since the last reset.
  Timing estimate() const;

 private:
  /// Writes the distinct line ids touched by the lanes of `active_mask`
  /// (lanes past addrs.size() ignored) to `lines` in first-appearance
  /// order, which is the order the caches see them; returns their count.
  /// Lines within [first - 32, first + 31] of the first active lane's line
  /// are deduplicated through a 64-bit bitmap, which covers any warp
  /// reading consecutive rows or nodes. Farther lines are new when above
  /// every farther line so far, and are scanned for otherwise.
  int coalesce(std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
               std::uint64_t (&lines)[32]) const;
  /// Counts one load request of `n` transactions and probes the caches.
  void load_lines(int sm, const std::uint64_t* lines, int n, LoadHint hint);
  /// Counts one store request of `n` transactions.
  void store_lines(int n);

  DeviceConfig cfg_;
  int line_shift_;  // log2(cfg_.line_bytes)
  Counters counters_;
  std::vector<Cache> l1_;  // one per SM
  Cache l2_;
  LineSet temporal_lines_;  // see LoadHint::kTemporal
  std::uint64_t next_addr_;
};

}  // namespace hrf::gpusim
