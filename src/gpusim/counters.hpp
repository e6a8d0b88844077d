#pragma once

#include <cstdint>

namespace hrf::gpusim {

/// Hardware-counter analogue collected by the simulator. Field names follow
/// nvprof metrics where one exists (gld = global load).
struct Counters {
  // Warp-level global load/store instructions executed.
  std::uint64_t gld_requests = 0;
  std::uint64_t gst_requests = 0;
  // 128-byte transactions those requests decomposed into (the coalescing
  // metric: transactions/request = 1 means perfectly coalesced).
  std::uint64_t gld_transactions = 0;
  std::uint64_t gst_transactions = 0;
  // Where load transactions were serviced.
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_transactions = 0;
  // Shared memory accesses (warp-level).
  std::uint64_t smem_loads = 0;
  std::uint64_t smem_stores = 0;
  // Branch uniformity (nvprof branch_efficiency).
  std::uint64_t branches = 0;
  std::uint64_t divergent_branches = 0;
  // Global atomic read-modify-write transactions (L2-serialized).
  std::uint64_t atomic_transactions = 0;
  // Issue-cycle proxy for everything else.
  std::uint64_t warp_instructions = 0;

  /// nvprof-style branch efficiency: uniform branches / all branches.
  double branch_efficiency() const {
    return branches ? 1.0 - static_cast<double>(divergent_branches) / static_cast<double>(branches)
                    : 1.0;
  }

  /// Average transactions needed per global load request (1 = coalesced,
  /// up to 32 = fully scattered).
  double transactions_per_request() const {
    return gld_requests ? static_cast<double>(gld_transactions) / static_cast<double>(gld_requests)
                        : 0.0;
  }

  bool operator==(const Counters&) const = default;

  Counters& operator+=(const Counters& o) {
    gld_requests += o.gld_requests;
    gst_requests += o.gst_requests;
    gld_transactions += o.gld_transactions;
    gst_transactions += o.gst_transactions;
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    dram_transactions += o.dram_transactions;
    smem_loads += o.smem_loads;
    smem_stores += o.smem_stores;
    branches += o.branches;
    divergent_branches += o.divergent_branches;
    atomic_transactions += o.atomic_transactions;
    warp_instructions += o.warp_instructions;
    return *this;
  }
};

}  // namespace hrf::gpusim
