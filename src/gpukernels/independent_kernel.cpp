#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"

namespace hrf::gpukernels {

using detail::Residency;

/// Independent code variant (paper §3.2, first kernel in Fig. 4): one
/// thread per query; all subtree data stays in global memory
/// (detail::SubtreeWalk in Residency::kGlobal).
KernelResult run_independent(gpusim::Device& device, const HierarchicalForest& forest,
                             QueryView queries) {
  detail::Launch launch(device, forest, queries);
  const detail::DeviceSubtrees subtrees(device, forest);

  detail::for_each_warp(device, launch.q.count(),
                        [&](int sm, std::size_t first, std::uint32_t warp_mask) {
    detail::SubtreeWalk walk(device, subtrees, launch);
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      walk.enter<Residency::kGlobal>(sm, warp_mask, forest.root_subtree(t));
      walk.run<Residency::kGlobal>(sm, first, warp_mask);
    }
  });
  return launch.finish(device);
}

}  // namespace hrf::gpukernels
