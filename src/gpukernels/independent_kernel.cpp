#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"

namespace hrf::gpukernels {

/// Independent code variant (paper §3.2, first kernel in Fig. 4): one
/// thread per query; all subtree data stays in global memory
/// (detail::SubtreeWalk).
KernelResult run_independent(gpusim::Device& device, const HierarchicalForest& forest,
                             QueryView queries) {
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const detail::DeviceQueries q(device, queries);
  const detail::DeviceSubtrees subtrees(device, forest);

  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(q.count() * k, 0);
  detail::SubtreeWalk walk(device, subtrees, q, votes, k);

  const auto& cfg = device.config();
  detail::for_each_warp(cfg, q.count(), [&](int sm, std::size_t first, std::uint32_t warp_mask) {
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      detail::for_each_lane(warp_mask, [&](int l) { walk.subtree[l] = forest.root_subtree(t); });
      walk.enter(sm, warp_mask);
      walk.run(sm, first, warp_mask);
    }
  });

  KernelResult r;
  r.predictions = detail::finalize_votes(device, votes, q.count(), k);
  r.counters = device.counters();
  r.timing = device.estimate();
  return r;
}

}  // namespace hrf::gpukernels
