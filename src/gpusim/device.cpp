#include "gpusim/device.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <system_error>
#include <thread>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace hrf::gpusim {

namespace {

/// CPUs the calling thread's affinity mask allows; threads it starts
/// inherit the mask.
int affinity_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());  // mask wider than cpu_set_t
}

}  // namespace

int sim_threads(int active_sms, int cpus) { return std::max(1, std::min(active_sms, cpus)); }

Device::Device(const DeviceConfig& config)
    : cfg_(config),
      line_shift_(std::countr_zero(config.line_bytes)),
      l2_(config.l2_bytes, config.l2_ways, config.line_bytes),
      next_addr_(1 << 12) {  // leave page zero unused so address 0 is invalid
  fault_point("resource:gpu");  // models cuInit/cudaMalloc failing at launch
  require(config.num_sms >= 1, "device needs at least one SM");
  require(config.warp_size >= 1 && config.warp_size <= 32, "warp_size must be in [1,32]");
  sms_.reserve(static_cast<std::size_t>(config.num_sms));
  for (int s = 0; s < config.num_sms; ++s) {
    sms_.push_back({Cache(config.l1_bytes, config.l1_ways, config.line_bytes), {}, {}});
  }
}

void Device::run_blocks(std::size_t num_blocks,
                        const std::function<void(int sm, std::size_t b)>& fn) {
  const auto num_sms = static_cast<std::size_t>(cfg_.num_sms);
  const std::size_t active_sms = std::min(num_blocks, num_sms);
  block_misses_end_.assign(num_blocks, 0);
  struct Failure {
    std::size_t block;
    std::exception_ptr error;
  };
  std::vector<Failure> failures(active_sms, Failure{num_blocks, nullptr});

  // Phase 1: each thread takes the next SM and runs its blocks in order.
  std::atomic<std::size_t> next_sm{0};
  const auto run_sms = [&] {
    for (std::size_t s; (s = next_sm.fetch_add(1, std::memory_order_relaxed)) < active_sms;) {
      for (std::size_t b = s; b < num_blocks; b += num_sms) {
        try {
          fn(static_cast<int>(s), b);
        } catch (...) {
          failures[s] = {b, std::current_exception()};
          break;
        }
        block_misses_end_[b] = sms_[s].misses.size();
      }
    }
  };
  {
    const int threads = sim_threads(static_cast<int>(active_sms), affinity_cpus());
    std::vector<std::jthread> team;  // joined on scope exit
    team.reserve(static_cast<std::size_t>(threads - 1));
    in_launch_ = true;
    for (int t = 1; t < threads; ++t) {
      try {
        team.emplace_back(run_sms);
      } catch (const std::system_error&) {
        break;  // no thread to spare: the threads running take the rest
      }
    }
    run_sms();
  }
  in_launch_ = false;

  const auto first_failure = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.block < b.block; });
  if (first_failure != failures.end() && first_failure->error) {
    for (Sm& s : sms_) s.misses.clear();
    std::rethrow_exception(first_failure->error);
  }

  // Phase 2: block b's misses follow those of block b - num_sms in its
  // SM's log.
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t begin = b >= num_sms ? block_misses_end_[b - num_sms] : 0;
    resolve_misses(sms_[b % num_sms], begin, block_misses_end_[b]);
  }
  for (std::size_t s = 0; s < active_sms; ++s) sms_[s].misses.clear();
}

int Device::wrap_sm(int sm) const { return sm % cfg_.num_sms; }

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

void Device::load_lines(Sm& s, const std::uint64_t* lines, int n, LoadHint hint) {
  // Tallies live in locals: s.counters could alias the L1's tag store, so
  // incrementing it per probe would store it on every probe.
  std::uint64_t l1_hits = 0;
  const bool use_l1 = cfg_.l1_for_global_loads;
  const std::uint64_t temporal = hint == LoadHint::kTemporal ? 1 : 0;
  for (int j = 0; j < n; ++j) {
    if (use_l1 && s.l1.access_line(lines[j])) {
      ++l1_hits;
    } else {
      s.misses.push_back(lines[j] << 1 | temporal);
    }
  }
  ++s.counters.gld_requests;
  ++s.counters.warp_instructions;
  s.counters.gld_transactions += static_cast<std::uint64_t>(n);
  s.counters.l1_hits += l1_hits;
  if (!in_launch_) {
    resolve_misses(s, 0, s.misses.size());
    s.misses.clear();
  }
}

void Device::resolve_misses(Sm& s, std::size_t begin, std::size_t end) {
  std::uint64_t l2_hits = 0;
  std::uint64_t dram = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t line = s.misses[i] >> 1;
    if (l2_.access_line(line)) {
      ++l2_hits;
    } else if ((s.misses[i] & 1) != 0 && !temporal_lines_.insert(line)) {
      ++l2_hits;  // re-touch by another concurrently resident block
    } else {
      ++dram;
    }
  }
  s.counters.l2_hits += l2_hits;
  s.counters.dram_transactions += dram;
}

void Device::store_lines(Sm& s, int n) {
  ++s.counters.gst_requests;
  ++s.counters.warp_instructions;
  s.counters.gst_transactions += static_cast<std::uint64_t>(n);
}

void Device::warp_load(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                       std::size_t elem_bytes, LoadHint hint) {
  (void)elem_bytes;
  if (active_mask == 0) return;
  std::uint64_t lines[32];
  load_lines(sm_of(sm), lines, coalesce(addrs, active_mask, lines), hint);
}

void Device::warp_store(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                        std::size_t elem_bytes) {
  (void)elem_bytes;
  if (active_mask == 0) return;
  std::uint64_t lines[32];
  store_lines(sm_of(sm), coalesce(addrs, active_mask, lines));
}

void Device::warp_atomic_rmw(int sm, std::span<const std::uint64_t> addrs,
                             std::uint32_t active_mask, std::size_t elem_bytes) {
  (void)elem_bytes;
  if (active_mask == 0) return;
  // The read half probes the caches like a load; the write half counts
  // store traffic; each distinct line is one serialized atomic.
  Sm& s = sm_of(sm);
  std::uint64_t lines[32];
  const int n = coalesce(addrs, active_mask, lines);
  load_lines(s, lines, n, LoadHint::kDefault);
  s.counters.atomic_transactions += static_cast<std::uint64_t>(n);
  store_lines(s, n);
}

void Device::smem_load(int sm, std::uint64_t count) {
  Counters& c = sm_of(sm).counters;
  c.smem_loads += count;
  c.warp_instructions += count;
}

void Device::smem_store(int sm, std::uint64_t count) {
  Counters& c = sm_of(sm).counters;
  c.smem_stores += count;
  c.warp_instructions += count;
}

void Device::warp_branch(int sm, std::uint32_t taken_mask, std::uint32_t active_mask) {
  if (active_mask == 0) return;
  Counters& c = sm_of(sm).counters;
  ++c.branches;
  ++c.warp_instructions;
  const std::uint32_t taken = taken_mask & active_mask;
  if (taken != 0 && taken != active_mask) ++c.divergent_branches;
}

Counters Device::counters() const {
  Counters sum;
  for (const Sm& s : sms_) sum += s.counters;
  return sum;
}

void Device::reset_counters() {
  for (Sm& s : sms_) s.counters = Counters{};
}

void Device::flush_caches() {
  for (Sm& s : sms_) s.l1.flush();
  l2_.flush();
  temporal_lines_.clear();
}

Timing Device::estimate() const {
  const Counters c = counters();
  Timing t;
  const double issue_rate = static_cast<double>(cfg_.num_sms) * cfg_.issue_per_sm_per_cycle;
  const double divergence_extra =
      static_cast<double>(c.divergent_branches) * cfg_.divergence_penalty;
  t.compute_cycles = (static_cast<double>(c.warp_instructions) + divergence_extra) / issue_rate;

  const double dram_bytes_per_cycle = cfg_.dram_bandwidth_gbps / cfg_.clock_ghz;
  const double dram_bytes = static_cast<double>(c.dram_transactions + c.gst_transactions) *
                            static_cast<double>(cfg_.line_bytes);
  t.dram_cycles = dram_bytes / dram_bytes_per_cycle;

  // Every L1 miss moves a line across the L2 interface (L2 hit or fill).
  const double l2_bytes =
      static_cast<double>(c.l2_hits + c.dram_transactions + c.gst_transactions) *
      static_cast<double>(cfg_.line_bytes);
  t.l2_cycles = l2_bytes / (dram_bytes_per_cycle * cfg_.l2_bandwidth_multiplier);

  // Atomic RMWs serialize at the L2 atomic units and cannot overlap with
  // each other, so they add on top of the bandwidth/issue roofline.
  t.atomic_cycles = static_cast<double>(c.atomic_transactions) * cfg_.atomic_rmw_cycles;

  t.cycles = std::max({t.compute_cycles, t.dram_cycles, t.l2_cycles}) + t.atomic_cycles;
  t.limiter = t.cycles - t.atomic_cycles == t.compute_cycles ? "compute"
              : t.cycles - t.atomic_cycles == t.dram_cycles  ? "dram"
                                                             : "l2";
  t.seconds = t.cycles / (cfg_.clock_ghz * 1e9);
  return t;
}

}  // namespace hrf::gpusim
