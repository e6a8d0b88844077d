#pragma once

// The straightforward form of the simulator's memory model, kept as the
// reference its optimized form is checked against: a division for every
// set index and an O(lanes x lines) duplicate scan over all 32 lanes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "gpusim/config.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"

namespace hrf::gpusim::reference {

class Cache {
 public:
  Cache(std::size_t capacity_bytes, int ways, std::size_t line_bytes)
      : line_(line_bytes),
        ways_(ways),
        sets_(capacity_bytes / line_bytes / static_cast<std::size_t>(ways)),
        tags_(capacity_bytes / line_bytes, 0) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t tag = addr / line_;
    std::uint64_t* way = tags_.data() + (tag % sets_) * static_cast<std::size_t>(ways_);
    for (int i = 0; i < ways_; ++i) {
      if (way[i] == tag + 1) {
        for (int j = i; j > 0; --j) way[j] = way[j - 1];
        way[0] = tag + 1;
        return true;
      }
    }
    for (int j = ways_ - 1; j > 0; --j) way[j] = way[j - 1];
    way[0] = tag + 1;
    return false;
  }

  void flush() { tags_.assign(tags_.size(), 0); }

 private:
  std::size_t line_;
  int ways_;
  std::size_t sets_;
  std::vector<std::uint64_t> tags_;
};

class Device {
 public:
  explicit Device(const DeviceConfig& cfg) : cfg_(cfg), l2_(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes) {
    for (int s = 0; s < cfg.num_sms; ++s) l1_.emplace_back(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
  }

  void warp_load(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
                 gpusim::Device::LoadHint hint = gpusim::Device::LoadHint::kDefault) {
    if (active_mask == 0) return;
    ++counters_.gld_requests;
    ++counters_.warp_instructions;
    std::uint64_t lines[32];
    const int n = coalesce(addrs, active_mask, lines);
    counters_.gld_transactions += static_cast<std::uint64_t>(n);
    Cache& l1 = l1_[static_cast<std::size_t>(sm % cfg_.num_sms)];
    for (int j = 0; j < n; ++j) {
      const std::uint64_t byte_addr = lines[j] * cfg_.line_bytes;
      if (cfg_.l1_for_global_loads && l1.access(byte_addr)) {
        ++counters_.l1_hits;
      } else if (l2_.access(byte_addr)) {
        ++counters_.l2_hits;
      } else if (hint == gpusim::Device::LoadHint::kTemporal &&
                 !temporal_lines_.insert(byte_addr).second) {
        ++counters_.l2_hits;
      } else {
        ++counters_.dram_transactions;
      }
    }
  }

  void warp_store(std::span<const std::uint64_t> addrs, std::uint32_t active_mask) {
    if (active_mask == 0) return;
    ++counters_.gst_requests;
    ++counters_.warp_instructions;
    std::uint64_t lines[32];
    counters_.gst_transactions += static_cast<std::uint64_t>(coalesce(addrs, active_mask, lines));
  }

  void warp_atomic_rmw(int sm, std::span<const std::uint64_t> addrs, std::uint32_t active_mask) {
    if (active_mask == 0) return;
    const std::uint64_t before = counters_.gld_transactions;
    warp_load(sm, addrs, active_mask);
    counters_.atomic_transactions += counters_.gld_transactions - before;
    warp_store(addrs, active_mask);
  }

  void flush_caches() {
    for (Cache& c : l1_) c.flush();
    l2_.flush();
    temporal_lines_.clear();
  }

  const Counters& counters() const { return counters_; }

 private:
  int coalesce(std::span<const std::uint64_t> addrs, std::uint32_t active_mask,
               std::uint64_t (&lines)[32]) const {
    int n = 0;
    for (std::size_t i = 0; i < addrs.size() && i < 32; ++i) {
      if (!(active_mask & (1u << i))) continue;
      const std::uint64_t line = addrs[i] / cfg_.line_bytes;
      bool seen = false;
      for (int j = 0; j < n; ++j) seen = seen || lines[j] == line;
      if (!seen) lines[n++] = line;
    }
    return n;
  }

  DeviceConfig cfg_;
  Counters counters_;
  std::vector<Cache> l1_;
  Cache l2_;
  std::unordered_set<std::uint64_t> temporal_lines_;
};

}  // namespace hrf::gpusim::reference
