#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::Residency;

/// Hybrid code variant (paper §3.2, third kernel in Fig. 4).
///
/// Stage 1: each thread block cooperatively stages the current tree's root
/// subtree (depth RSD, packed 8-byte nodes) into shared memory with
/// coalesced loads; every query traverses it from shared memory. Stage 2:
/// lanes leaving the root subtree continue independently through
/// global-memory subtrees exactly like the independent kernel. The root
/// subtree must fit in shared memory: (2^RSD - 1) * 8 B <= 48 KB, i.e.
/// RSD <= 12 on the TITAN Xp — which is why Table 2 stops at RSD 12.
KernelResult run_hybrid(gpusim::Device& device, const HierarchicalForest& forest,
                        QueryView queries) {
  const auto& cfg = device.config();
  detail::Launch launch(device, forest, queries);

  // Shared-memory capacity check mirrors the real kernel's launch failure.
  fault_point("resource:gpu-smem");
  const std::size_t root_nodes = complete_tree_nodes(forest.config().effective_root_depth());
  const std::size_t smem_needed = root_nodes * sizeof(PackedNode);
  if (smem_needed > cfg.shared_mem_per_block) {
    throw ResourceError("hybrid kernel: root subtree (" + std::to_string(smem_needed) +
                        " B) exceeds shared memory (" +
                        std::to_string(cfg.shared_mem_per_block) + " B); reduce RSD");
  }

  const detail::DeviceSubtrees subtrees(device, forest);

  detail::for_each_block(device, launch.q.count(), [&](int sm, std::size_t b) {
    detail::SubtreeWalk walk(device, subtrees, launch);
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      const std::uint32_t root = forest.root_subtree(t);
      // Stage 1a: every resident block stages this subtree around the same
      // time on real hardware, so re-touches land in L2 (see LoadHint).
      subtrees.stage(device, sm, forest.subtree_node_offset(root),
                     complete_tree_nodes(forest.subtree_depth(root)),
                     gpusim::Device::LoadHint::kTemporal);

      detail::for_each_warp_of(cfg, launch.q.count(), b, [&](std::size_t, std::size_t first,
                                                            std::uint32_t warp_mask) {
        // Stage 1b: all lanes walk the root subtree out of shared memory.
        walk.enter<Residency::kShared>(sm, warp_mask, root);
        const std::uint32_t left = walk.run<Residency::kShared>(sm, first, warp_mask).left;
        // Stage 2: lanes that left it walk on independently.
        walk.enter<Residency::kGlobal>(sm, left);
        walk.run<Residency::kGlobal>(sm, first, left);
      });
    }
  });
  return launch.finish(device);
}

}  // namespace hrf::gpukernels
