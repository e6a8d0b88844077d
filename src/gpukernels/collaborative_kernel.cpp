#include <algorithm>

#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;
using detail::Residency;

namespace {
constexpr std::uint32_t kDone = 0xffffffffu;
}

/// Collaborative code variant (paper §3.2, second kernel in Fig. 4):
/// subtrees are batch-loaded into shared memory and *all* queries are
/// walked through *every* subtree of the current tree in lock step; a
/// query that is not "present" in the subtree idles through the guard
/// branch. This trades one coalesced load per subtree for massive wasted
/// work on deep levels — the paper measures a 10-20x slowdown vs. the
/// independent variant, which this model reproduces.
KernelResult run_collaborative(gpusim::Device& device, const HierarchicalForest& forest,
                               QueryView queries) {
  const auto& cfg = device.config();
  detail::Launch launch(device, forest, queries);

  // Shared-memory batch capacity in packed 8-byte nodes (§3.2: 48 bits of
  // attributes per node, padded to the 8 B the hardware loads). The largest
  // subtree the kernel stages, root subtrees included, must fit one batch.
  const std::size_t batch_nodes_cap = cfg.shared_mem_per_block / sizeof(PackedNode);
  const HierConfig& hc = forest.config();
  const std::size_t largest_nodes =
      complete_tree_nodes(std::max(hc.subtree_depth, hc.effective_root_depth()));
  if (largest_nodes > batch_nodes_cap) {
    throw ResourceError("collaborative kernel: largest subtree (" +
                        std::to_string(largest_nodes * sizeof(PackedNode)) +
                        " B) exceeds shared memory (" +
                        std::to_string(cfg.shared_mem_per_block) + " B); reduce SD/RSD");
  }

  const detail::DeviceSubtrees subtrees(device, forest, Residency::kShared);
  const auto instructions_per_step = static_cast<std::uint64_t>(cfg.instructions_per_step);

  detail::for_each_block(device, launch.q.count(), [&](int sm, std::size_t b) {
    detail::SubtreeWalk walk(device, subtrees, launch);
    // Per block lane: the subtree its query walks next, or kDone.
    std::vector<std::uint32_t> pending(static_cast<std::size_t>(cfg.block_size));
    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      const std::uint32_t st_end = forest.tree_subtree_begin()[t + 1];
      std::fill(pending.begin(), pending.end(), forest.root_subtree(t));

      for (std::uint32_t batch_first = forest.root_subtree(t); batch_first < st_end;) {
        // Grow the batch until shared memory is full.
        std::uint32_t batch_last = batch_first;
        std::size_t batch_nodes = 0;
        while (batch_last < st_end) {
          const std::size_t n = complete_tree_nodes(forest.subtree_depth(batch_last));
          if (batch_nodes + n > batch_nodes_cap) break;
          batch_nodes += n;
          ++batch_last;
        }
        subtrees.stage(device, sm, forest.subtree_node_offset(batch_first), batch_nodes);

        // Walk every query through every subtree of the batch.
        for (std::uint32_t st = batch_first; st < batch_last; ++st) {
          detail::for_each_warp_of(cfg, launch.q.count(), b, [&](std::size_t w, std::size_t first,
                                                                std::uint32_t warp_mask) {
            std::uint32_t* const lane_pending = pending.data() + w * kWarpSize;
            // Presence guard: every lane pays this branch for every
            // subtree — the variant's structural overhead.
            std::uint32_t present = 0;
            detail::for_each_lane(warp_mask, [&](int l) {
              if (lane_pending[l] == st) present |= 1u << l;
            });
            device.warp_branch(sm, present, warp_mask);
            device.add_instructions(sm, 1);
            if (present == 0) return;

            walk.enter<Residency::kShared>(sm, present, st);
            const auto end = walk.run<Residency::kShared>(sm, first, present);
            detail::for_each_lane(present, [&](int l) {
              lane_pending[l] = (end.left & 1u << l) != 0 ? walk.subtree[l] : kDone;
            });
            // Lock-step waste (paper §3.2.1): the warp walks the *full*
            // subtree pipeline even when its present lanes exit early —
            // non-present and finished lanes idle through the remaining
            // levels, still occupying issue slots and shared-memory reads.
            for (int s = end.steps; s < forest.subtree_depth(st); ++s) {
              device.smem_load(sm, 1);
              device.add_instructions(sm, instructions_per_step + 1);
            }
          });
        }
        batch_first = batch_last;
      }
    }
  });
  return launch.finish(device);
}

}  // namespace hrf::gpukernels
