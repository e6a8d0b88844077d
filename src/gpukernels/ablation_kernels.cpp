#include "gpukernels/ablation_kernels.hpp"

#include <algorithm>
#include <numeric>

#include "gpukernels/common.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;
using detail::Residency;

KernelResult run_tree_per_block(gpusim::Device& device, const HierarchicalForest& forest,
                                QueryView queries) {
  detail::Launch launch(device, forest, queries);
  const detail::DeviceSubtrees subtrees(device, forest);

  const auto& cfg = device.config();
  // Global vote matrix: with blocks partitioned by TREE, different blocks
  // update the same query's votes -> global atomics instead of registers.
  const gpusim::DeviceArray<std::uint32_t> votes_buf(device, launch.votes);
  detail::SubtreeWalk walk(device, subtrees, launch);
  std::uint64_t vote_addrs[kWarpSize] = {};

  // Grid: one block per tree; each block's warps sweep all queries.
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const int sm = static_cast<int>(t % static_cast<std::size_t>(cfg.num_sms));
    for (std::size_t first = 0; first < launch.q.count(); first += kWarpSize) {
      const std::uint32_t warp_mask = detail::lane_mask(launch.q.count() - first);
      walk.enter<Residency::kGlobal>(sm, warp_mask, forest.root_subtree(t));
      walk.run<Residency::kGlobal>(sm, first, warp_mask, [&](std::uint32_t leaf_mask) {
        // atomicAdd on the global vote matrix: one scattered read + write
        // per finishing lane — Optimization 2's structural cost.
        detail::for_each_lane(leaf_mask, [&](int l) {
          vote_addrs[l] = votes_buf.addr((first + static_cast<std::size_t>(l)) * launch.k +
                                         walk.leaf_class(l));
        });
        device.warp_atomic_rmw(sm, vote_addrs, leaf_mask, sizeof(std::uint32_t));
      });
    }
  }
  return launch.finish(device);
}

std::vector<std::uint32_t> presort_queries(QueryView queries, int bins) {
  require(bins >= 2 && bins <= 256, "presort bins must be in [2, 256]");
  const std::size_t nq = queries.num_samples();
  const std::size_t nf = queries.num_features();

  // Per-feature min/max for uniform binning (one pass).
  std::vector<float> lo(nf, 0.f), hi(nf, 0.f);
  for (std::size_t f = 0; f < nf; ++f) {
    lo[f] = hi[f] = queries.sample(0)[f];
  }
  for (std::size_t i = 1; i < nq; ++i) {
    const auto row = queries.sample(i);
    for (std::size_t f = 0; f < nf; ++f) {
      lo[f] = std::min(lo[f], row[f]);
      hi[f] = std::max(hi[f], row[f]);
    }
  }

  const auto code = [&](std::size_t i, std::size_t f) {
    const float range = hi[f] - lo[f];
    if (range <= 0.f) return 0;
    const auto c = static_cast<int>((queries.sample(i)[f] - lo[f]) / range * bins);
    return std::min(c, bins - 1);
  };

  std::vector<std::uint32_t> order(nq);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    for (std::size_t f = 0; f < nf; ++f) {
      const int ca = code(a, f);
      const int cb = code(b, f);
      if (ca != cb) return ca < cb;
    }
    return a < b;
  });
  return order;
}

Dataset permute_queries(QueryView queries, std::span<const std::uint32_t> order) {
  require(order.size() == queries.num_samples(), "permutation size != query count");
  Dataset out(queries.num_samples(), queries.num_features());
  for (std::uint32_t i : order) out.push_back(queries.sample(i), 0);
  return out;
}

}  // namespace hrf::gpukernels
