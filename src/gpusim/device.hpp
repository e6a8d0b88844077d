#pragma once

#include <cstdint>
#include <functional>
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

/// Host threads that simulate a launch whose blocks occupy `active_sms`
/// SMs, when the calling thread may run on `cpus` CPUs: one per busy SM,
/// at most one per CPU, and at least one.
int sim_threads(int active_sms, int cpus);

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
///
/// Every operation names the SM that issues it; an `sm` past the last SM
/// wraps to sm mod num_sms. Each SM owns its L1 and its counters. Outside
/// run_blocks an operation runs to completion, L2 included; inside it, see
/// run_blocks.
class Device {
 public:
  explicit Device(const DeviceConfig& config);

  const DeviceConfig& config() const { return cfg_; }

  /// Bump allocation in the simulated global address space, 256 B aligned
  /// (matches cudaMalloc alignment guarantees).
  std::uint64_t alloc(std::size_t bytes);

  /// Runs a grid of `num_blocks` thread blocks: fn(sm, b) once per block
  /// b, which is resident on SM b mod num_sms. The counters and cache
  /// state it leaves are those of running the blocks one after another in
  /// ascending order, whatever the number of host threads:
  ///  1. Each busy SM's blocks run in ascending order on one host thread,
  ///     sim_threads(busy SMs, CPUs of the caller's affinity mask) threads
  ///     in all, the caller among them. Loads probe the SM's L1 as they
  ///     issue; each L1 miss is logged, by block.
  ///  2. After every thread has joined, the caller replays the logged
  ///     misses through the L2 in block order.
  /// A block touches only its SM's L1 and counters, and no kernel branches
  /// on where a load hit, so the replay meets the L2 in exactly the order
  /// a serial run would. `fn` must write no host data another block reads
  /// or writes. An exception thrown by a block stops its SM's later blocks
  /// and, after the join, the lowest such block's exception is rethrown.
  void run_blocks(std::size_t num_blocks, const std::function<void(int sm, std::size_t b)>& fn);

  /// Cache-behaviour hint for warp_load.
  ///
  /// kTemporal marks streaming loads that all concurrently resident blocks
  /// issue at about the same time (e.g. the hybrid kernel's cooperative
  /// root-subtree staging at each tree boundary): the first touch of a
  /// line pays DRAM, re-touches are served by L2 even if the simulated
  /// block ordering would have evicted the line in between. This corrects
  /// the one place where block-ordered simulation is systematically more
  /// pessimistic than concurrent-block hardware.
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
  void smem_load(int sm, std::uint64_t count);
  void smem_store(int sm, std::uint64_t count);

  /// Data-dependent branch: divergent when active lanes disagree.
  void warp_branch(int sm, std::uint32_t taken_mask, std::uint32_t active_mask);

  /// Charges `n` generic warp instructions (address math, compares, ...).
  void add_instructions(int sm, std::uint64_t n) { sm_of(sm).counters.warp_instructions += n; }

  /// The counters of every SM, summed.
  Counters counters() const;
  void reset_counters();
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
  /// What one SM owns. Aligned so that SMs simulated on different host
  /// threads share no cache line.
  struct alignas(64) Sm {
    Cache l1;
    Counters counters;
    /// L1 misses not yet resolved in L2, in issue order, each encoded as
    /// line << 1 | (hint == kTemporal). Line ids fit in 63 bits because
    /// lines are at least 2 bytes.
    std::vector<std::uint64_t> misses;
  };

  Sm& sm_of(int sm) {
    return sms_[static_cast<std::size_t>(sm < cfg_.num_sms ? sm : wrap_sm(sm))];
  }
  /// sm mod num_sms, out of line: kernels never issue past the last SM.
  [[gnu::cold]] int wrap_sm(int sm) const;
  /// Counts one load request of `n` transactions, probes the SM's L1 and
  /// logs its misses; outside run_blocks, resolves them at once.
  void load_lines(Sm& s, const std::uint64_t* lines, int n, LoadHint hint);
  /// Counts one store request of `n` transactions.
  static void store_lines(Sm& s, int n);
  /// Probes the L2 (then the temporal set) for s.misses[begin, end) in
  /// order and counts where each was serviced.
  void resolve_misses(Sm& s, std::size_t begin, std::size_t end);

  DeviceConfig cfg_;
  int line_shift_;  // log2(cfg_.line_bytes)
  std::vector<Sm> sms_;
  Cache l2_;
  LineSet temporal_lines_;  // see LoadHint::kTemporal
  std::uint64_t next_addr_;
  bool in_launch_ = false;  // run_blocks phase 1: misses wait for the replay
  /// Per block of the running launch: the end of its misses in its SM's log.
  std::vector<std::size_t> block_misses_end_;
};

}  // namespace hrf::gpusim
