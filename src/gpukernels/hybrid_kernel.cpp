#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

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
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const auto& cfg = device.config();

  // Shared-memory capacity check mirrors the real kernel's launch failure.
  fault_point("resource:gpu-smem");
  const std::size_t root_nodes = complete_tree_nodes(forest.config().effective_root_depth());
  const std::size_t smem_needed = root_nodes * sizeof(PackedNode);
  if (smem_needed > cfg.shared_mem_per_block) {
    throw ResourceError("hybrid kernel: root subtree (" + std::to_string(smem_needed) +
                        " B) exceeds shared memory (" +
                        std::to_string(cfg.shared_mem_per_block) + " B); reduce RSD");
  }

  const detail::DeviceQueries q(device, queries);
  const detail::DeviceSubtrees subtrees(device, forest);

  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(q.count() * k, 0);
  detail::SubtreeWalk walk(device, subtrees, q, votes, k);

  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  const std::size_t num_blocks = (q.count() + block_size - 1) / block_size;
  const std::size_t warps_per_block = block_size / kWarpSize;
  const auto instructions_per_step = static_cast<std::uint64_t>(cfg.instructions_per_step);
  std::uint64_t addrs[kWarpSize] = {};
  std::uint64_t hop_addrs[kWarpSize] = {};

  for (std::size_t b = 0; b < num_blocks; ++b) {
    const int sm = static_cast<int>(b % static_cast<std::size_t>(cfg.num_sms));

    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      const std::uint32_t root_st = forest.root_subtree(t);
      const std::uint32_t off0 = forest.subtree_node_offset(root_st);
      const int d0 = forest.subtree_depth(root_st);
      const std::uint32_t n0 = static_cast<std::uint32_t>(complete_tree_nodes(d0));
      const std::uint32_t bottom0 = static_cast<std::uint32_t>(pow2(d0 - 1) - 1);
      const std::uint32_t coff0 = forest.connection_offset(root_st);

      // --- Stage 1a: cooperative, coalesced staging of the root subtree:
      // consecutive lanes load consecutive packed nodes (one 128 B
      // transaction per 16 nodes).
      for (std::uint32_t base = 0; base < n0; base += kWarpSize) {
        const std::uint32_t mask = detail::lane_mask(n0 - base);
        detail::for_each_lane(mask, [&](int l) {
          addrs[l] = subtrees.nodes.addr(off0 + base + static_cast<std::uint32_t>(l));
        });
        // Every resident block stages this subtree around the same time
        // on real hardware, so re-touches land in L2 (see LoadHint).
        device.warp_load(sm, addrs, mask, sizeof(PackedNode),
                         gpusim::Device::LoadHint::kTemporal);
        device.smem_store(1);
      }

      // --- Stages 1b + 2, per warp of the block.
      for (std::size_t w = 0; w < warps_per_block; ++w) {
        const std::size_t first = b * block_size + w * kWarpSize;
        if (first >= q.count()) break;

        // Stage 1b: all lanes walk the root subtree out of shared memory;
        // lanes leaving it through the bottom level hop to a gmem subtree.
        std::uint32_t pos[kWarpSize] = {};
        std::uint32_t active = detail::lane_mask(q.count() - first);
        std::uint32_t stage2_mask = 0;
        while (active != 0) {
          // One host pass per step; the device calls below replay it in order.
          std::uint32_t leaf_mask = 0;
          std::uint32_t hop_mask = 0;
          detail::for_each_lane(active, [&](int l) {
            const PackedNode n = subtrees.nodes[off0 + pos[l]];
            const std::size_t row = first + static_cast<std::size_t>(l);
            if (n.feature == kLeafFeature) {
              leaf_mask |= 1u << l;
              ++votes[row * k + static_cast<std::uint8_t>(n.value)];
              return;
            }
            const auto f = static_cast<std::size_t>(n.feature);
            addrs[l] = q.addr(row, f);
            const std::uint32_t right = !(q.value(row, f) < n.value);
            if (pos[l] >= bottom0) {
              hop_mask |= 1u << l;
              const std::uint32_t ci = coff0 + 2 * (pos[l] - bottom0) + right;
              hop_addrs[l] = subtrees.connection.addr(ci);
              walk.subtree[l] = static_cast<std::uint32_t>(subtrees.connection[ci]);
            } else {
              pos[l] = 2 * pos[l] + 1 + right;
            }
          });

          device.smem_load(1);  // one packed node read from shared memory
          device.warp_branch(leaf_mask, active);
          active &= ~leaf_mask;
          if (active == 0) break;
          device.warp_load(sm, addrs, active, sizeof(float));
          device.add_instructions(1);  // left/right pick compiles to a predicated select
          device.warp_branch(hop_mask, active);
          if (hop_mask != 0) device.warp_load(sm, hop_addrs, hop_mask, sizeof(std::int32_t));
          stage2_mask |= hop_mask;
          active &= ~hop_mask;
          device.add_instructions(instructions_per_step);
        }

        // Stage 2: independent traversal of the remaining subtrees.
        if (stage2_mask != 0) {
          walk.enter(sm, stage2_mask);
          walk.run(sm, first, stage2_mask);
        }
      }
    }
  }

  KernelResult r;
  r.predictions = detail::finalize_votes(device, votes, q.count(), k);
  r.counters = device.counters();
  r.timing = device.estimate();
  return r;
}

}  // namespace hrf::gpukernels
