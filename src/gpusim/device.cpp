#include "gpusim/device.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace hrf::gpusim {

Device::Device(const DeviceConfig& config)
    : cfg_(config),
      line_shift_(std::countr_zero(config.line_bytes)),
      l2_(config.l2_bytes, config.l2_ways, config.line_bytes),
      next_addr_(1 << 12) {  // leave page zero unused so address 0 is invalid
  fault_point("resource:gpu");  // models cuInit/cudaMalloc failing at launch
  require(config.num_sms >= 1, "device needs at least one SM");
  require(config.warp_size >= 1 && config.warp_size <= 32, "warp_size must be in [1,32]");
  l1_.reserve(static_cast<std::size_t>(config.num_sms));
  for (int s = 0; s < config.num_sms; ++s) {
    l1_.emplace_back(config.l1_bytes, config.l1_ways, config.line_bytes);
  }
}

std::uint64_t Device::alloc(std::size_t bytes) {
  const std::uint64_t base = align_up(next_addr_, 256);
  next_addr_ = base + bytes;
  return base;
}

int Device::coalesce(std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                     std::uint64_t (&lines)[32]) const {
  if (addrs.size() < 32) active_mask &= (1u << addrs.size()) - 1;
  if (active_mask == 0) return 0;
  // Elements are naturally aligned and smaller than a line, so no element
  // straddles two lines and a warp touches at most 32.
  // Bit i of `near` marks line window_base + i. The unsigned offset wraps,
  // so one compare tests both ends of the window.
  const std::uint64_t window_base =
      (addrs[static_cast<std::size_t>(std::countr_zero(active_mask))] >> line_shift_) - 32;
  std::uint64_t near = 0;
  std::uint64_t max_far = 0;
  int n = 0;
  for (; active_mask != 0; active_mask &= active_mask - 1) {
    const std::uint64_t line = addrs[static_cast<std::size_t>(std::countr_zero(active_mask))] >>
                               line_shift_;
    const std::uint64_t offset = line - window_base;
    if (offset < 64) [[likely]] {
      // Branch-free: whether a lane repeats a line is data-dependent and
      // would mispredict often. A repeat is written and then overwritten.
      const std::uint64_t bit = std::uint64_t{1} << offset;
      lines[n] = line;
      n += (near & bit) == 0;
      near |= bit;
      continue;
    }
    if (line > max_far) {
      max_far = line;  // above every far line so far, so not among them
    } else if (std::find(lines, lines + n, line) != lines + n) {
      continue;
    }
    lines[n++] = line;
  }
  return n;
}

void Device::load_lines(int sm, const std::uint64_t* lines, int n, LoadHint hint) {
  // Tallies live in locals: counters_ could alias the caches' tag stores,
  // so incrementing it per probe would store it on every probe.
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram = 0;
  const bool use_l1 = cfg_.l1_for_global_loads;
  Cache& l1 = l1_[static_cast<std::size_t>(sm % cfg_.num_sms)];
  for (int j = 0; j < n; ++j) {
    if (use_l1 && l1.access_line(lines[j])) {
      ++l1_hits;
    } else if (l2_.access_line(lines[j])) {
      ++l2_hits;
    } else if (hint == LoadHint::kTemporal && !temporal_lines_.insert(lines[j])) {
      ++l2_hits;  // re-touch by another concurrently resident block
    } else {
      ++dram;
    }
  }
  ++counters_.gld_requests;
  ++counters_.warp_instructions;
  counters_.gld_transactions += static_cast<std::uint64_t>(n);
  counters_.l1_hits += l1_hits;
  counters_.l2_hits += l2_hits;
  counters_.dram_transactions += dram;
}

void Device::store_lines(int n) {
  ++counters_.gst_requests;
  ++counters_.warp_instructions;
  counters_.gst_transactions += static_cast<std::uint64_t>(n);
}

void Device::warp_load(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                       std::size_t elem_bytes, LoadHint hint) {
  (void)elem_bytes;
  if (active_mask == 0) return;
  std::uint64_t lines[32];
  load_lines(sm, lines, coalesce(addrs, active_mask, lines), hint);
}

void Device::warp_store(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                        std::size_t elem_bytes) {
  (void)sm;
  (void)elem_bytes;
  if (active_mask == 0) return;
  std::uint64_t lines[32];
  store_lines(coalesce(addrs, active_mask, lines));
}

void Device::warp_atomic_rmw(int sm, std::span<const std::uint64_t> addrs,
                             std::uint32_t active_mask, std::size_t elem_bytes) {
  (void)elem_bytes;
  if (active_mask == 0) return;
  // The read half probes the caches like a load; the write half counts
  // store traffic; each distinct line is one serialized atomic.
  std::uint64_t lines[32];
  const int n = coalesce(addrs, active_mask, lines);
  load_lines(sm, lines, n, LoadHint::kDefault);
  counters_.atomic_transactions += static_cast<std::uint64_t>(n);
  store_lines(n);
}

void Device::smem_load(std::uint64_t count) {
  counters_.smem_loads += count;
  counters_.warp_instructions += count;
}

void Device::smem_store(std::uint64_t count) {
  counters_.smem_stores += count;
  counters_.warp_instructions += count;
}

void Device::warp_branch(std::uint32_t taken_mask, std::uint32_t active_mask) {
  if (active_mask == 0) return;
  ++counters_.branches;
  ++counters_.warp_instructions;
  const std::uint32_t taken = taken_mask & active_mask;
  if (taken != 0 && taken != active_mask) ++counters_.divergent_branches;
}

void Device::flush_caches() {
  for (Cache& c : l1_) c.flush();
  l2_.flush();
  temporal_lines_.clear();
}

Timing Device::estimate() const {
  Timing t;
  const double issue_rate = static_cast<double>(cfg_.num_sms) * cfg_.issue_per_sm_per_cycle;
  const double divergence_extra =
      static_cast<double>(counters_.divergent_branches) * cfg_.divergence_penalty;
  t.compute_cycles =
      (static_cast<double>(counters_.warp_instructions) + divergence_extra) / issue_rate;

  const double dram_bytes_per_cycle = cfg_.dram_bandwidth_gbps / cfg_.clock_ghz;
  const double dram_bytes = static_cast<double>(counters_.dram_transactions + counters_.gst_transactions) *
                            static_cast<double>(cfg_.line_bytes);
  t.dram_cycles = dram_bytes / dram_bytes_per_cycle;

  // Every L1 miss moves a line across the L2 interface (L2 hit or fill).
  const double l2_bytes =
      static_cast<double>(counters_.l2_hits + counters_.dram_transactions +
                          counters_.gst_transactions) *
      static_cast<double>(cfg_.line_bytes);
  t.l2_cycles = l2_bytes / (dram_bytes_per_cycle * cfg_.l2_bandwidth_multiplier);

  // Atomic RMWs serialize at the L2 atomic units and cannot overlap with
  // each other, so they add on top of the bandwidth/issue roofline.
  t.atomic_cycles = static_cast<double>(counters_.atomic_transactions) * cfg_.atomic_rmw_cycles;

  t.cycles = std::max({t.compute_cycles, t.dram_cycles, t.l2_cycles}) + t.atomic_cycles;
  t.limiter = t.cycles - t.atomic_cycles == t.compute_cycles ? "compute"
              : t.cycles - t.atomic_cycles == t.dram_cycles  ? "dram"
                                                             : "l2";
  t.seconds = t.cycles / (cfg_.clock_ghz * 1e9);
  return t;
}

}  // namespace hrf::gpusim
