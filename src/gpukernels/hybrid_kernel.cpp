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
                        const Dataset& queries) {
  return run_hybrid(device, forest, DeviceImage(forest), queries);
}

KernelResult run_hybrid(gpusim::Device& device, const HierarchicalForest& forest,
                        const DeviceImage& image, const Dataset& queries) {
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

  const detail::QueryView q(device, queries);
  const std::span<const PackedNode> packed = detail::image_nodes(forest, image);
  const gpusim::DeviceArray<PackedNode> nodes(device, packed);
  const gpusim::DeviceArray<std::uint32_t> node_offset(device, forest.subtree_node_offsets());
  const gpusim::DeviceArray<std::uint8_t> subtree_depth(device, forest.subtree_depths());
  const gpusim::DeviceArray<std::uint32_t> conn_offset(device, forest.connection_offsets());
  const gpusim::DeviceArray<std::int32_t> connection(device, forest.subtree_connection());

  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(q.count() * k, 0);

  struct Lane {
    std::uint32_t subtree = 0;
    std::uint32_t pos = 0;
    std::uint32_t off = 0;
    std::uint32_t bottom_first = 0;
    std::uint32_t coff = 0;
  };

  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  const std::size_t num_blocks = (q.count() + block_size - 1) / block_size;
  const std::size_t warps_per_block = block_size / kWarpSize;

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
      {
        std::uint64_t addrs[kWarpSize];
        for (std::uint32_t base = 0; base < n0; base += kWarpSize) {
          std::uint32_t mask = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            const std::uint32_t i = base + static_cast<std::uint32_t>(l);
            if (i < n0) {
              mask |= 1u << l;
              addrs[l] = nodes.addr(off0 + i);
            }
          }
          // Every resident block stages this subtree around the same time
          // on real hardware, so re-touches land in L2 (see LoadHint).
          device.warp_load(sm, addrs, mask, sizeof(PackedNode),
                           gpusim::Device::LoadHint::kTemporal);
          device.smem_store(1);
        }
      }

      // --- Stages 1b + 2, per warp of the block.
      for (std::size_t w = 0; w < warps_per_block; ++w) {
        const std::size_t first = b * block_size + w * kWarpSize;
        if (first >= q.count()) break;
        std::uint32_t warp_mask = 0;
        for (int l = 0; l < kWarpSize; ++l) {
          if (first + static_cast<std::size_t>(l) < q.count()) warp_mask |= 1u << l;
        }

        Lane lanes[kWarpSize];
        std::uint64_t addrs[kWarpSize] = {};

        // Stage 1b: all lanes walk the root subtree out of shared memory.
        std::uint32_t pos1[kWarpSize] = {};
        std::uint32_t active = warp_mask;  // lanes still inside the root subtree
        std::uint32_t stage2_mask = 0;     // lanes that hopped to a gmem subtree
        while (active != 0) {
          device.smem_load(1);  // one packed node read from shared memory
          std::uint32_t leaf_mask = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            if ((active & (1u << l)) && packed[off0 + pos1[l]].feature == kLeafFeature) {
              leaf_mask |= 1u << l;
            }
          }
          device.warp_branch(leaf_mask, active);
          for (int l = 0; l < kWarpSize; ++l) {
            if (leaf_mask & (1u << l)) {
              ++votes[(first + static_cast<std::size_t>(l)) * k +
                      static_cast<std::uint8_t>(packed[off0 + pos1[l]].value)];
            }
          }
          active &= ~leaf_mask;
          if (active == 0) break;

          for (int l = 0; l < kWarpSize; ++l) {
            if (!(active & (1u << l))) continue;
            const auto f = static_cast<std::size_t>(packed[off0 + pos1[l]].feature);
            addrs[l] = q.addr(first + static_cast<std::size_t>(l), f);
          }
          device.warp_load(sm, addrs, active, sizeof(float));

          std::uint32_t hop_mask = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            if (!(active & (1u << l))) continue;
            const PackedNode& n = packed[off0 + pos1[l]];
            const bool go_left =
                q.value(first + static_cast<std::size_t>(l),
                        static_cast<std::size_t>(n.feature)) < n.value;
            if (pos1[l] >= bottom0) {
              hop_mask |= 1u << l;
              const std::uint32_t ci = coff0 + 2 * (pos1[l] - bottom0) + (go_left ? 0u : 1u);
              addrs[l] = connection.addr(ci);
              lanes[l].subtree = static_cast<std::uint32_t>(connection[ci]);
            } else {
              pos1[l] = 2 * pos1[l] + (go_left ? 1u : 2u);
            }
          }
          device.add_instructions(1);  // left/right pick compiles to a predicated select
          device.warp_branch(hop_mask, active);
          if (hop_mask != 0) device.warp_load(sm, addrs, hop_mask, sizeof(std::int32_t));
          stage2_mask |= hop_mask;
          active &= ~hop_mask;
          device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step));
        }

        // Stage 2: independent traversal of the remaining subtrees.
        const auto enter_subtree = [&](std::uint32_t mask) {
          for (int l = 0; l < kWarpSize; ++l) addrs[l] = node_offset.addr(lanes[l].subtree);
          device.warp_load(sm, addrs, mask, sizeof(std::uint32_t));
          for (int l = 0; l < kWarpSize; ++l) addrs[l] = subtree_depth.addr(lanes[l].subtree);
          device.warp_load(sm, addrs, mask, sizeof(std::uint8_t));
          for (int l = 0; l < kWarpSize; ++l) addrs[l] = conn_offset.addr(lanes[l].subtree);
          device.warp_load(sm, addrs, mask, sizeof(std::uint32_t));
          for (int l = 0; l < kWarpSize; ++l) {
            if (!(mask & (1u << l))) continue;
            Lane& ln = lanes[l];
            ln.pos = 0;
            ln.off = node_offset[ln.subtree];
            ln.bottom_first = static_cast<std::uint32_t>(pow2(subtree_depth[ln.subtree] - 1) - 1);
            ln.coff = conn_offset[ln.subtree];
          }
        };

        active = stage2_mask;
        if (active != 0) enter_subtree(active);
        while (active != 0) {
          for (int l = 0; l < kWarpSize; ++l) {
            addrs[l] = nodes.addr(lanes[l].off + lanes[l].pos);
          }
          device.warp_load(sm, addrs, active, sizeof(PackedNode));

          std::uint32_t leaf_mask = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            if ((active & (1u << l)) &&
                packed[lanes[l].off + lanes[l].pos].feature == kLeafFeature) {
              leaf_mask |= 1u << l;
            }
          }
          device.warp_branch(leaf_mask, active);
          for (int l = 0; l < kWarpSize; ++l) {
            if (leaf_mask & (1u << l)) {
              ++votes[(first + static_cast<std::size_t>(l)) * k +
                      static_cast<std::uint8_t>(packed[lanes[l].off + lanes[l].pos].value)];
            }
          }
          active &= ~leaf_mask;
          if (active == 0) break;

          for (int l = 0; l < kWarpSize; ++l) {
            if (!(active & (1u << l))) continue;
            const auto f =
                static_cast<std::size_t>(packed[lanes[l].off + lanes[l].pos].feature);
            addrs[l] = q.addr(first + static_cast<std::size_t>(l), f);
          }
          device.warp_load(sm, addrs, active, sizeof(float));

          std::uint32_t hop_mask = 0;
          for (int l = 0; l < kWarpSize; ++l) {
            if (!(active & (1u << l))) continue;
            Lane& ln = lanes[l];
            const PackedNode& n = packed[ln.off + ln.pos];
            const bool go_left =
                q.value(first + static_cast<std::size_t>(l),
                        static_cast<std::size_t>(n.feature)) < n.value;
            if (ln.pos >= ln.bottom_first) {
              hop_mask |= 1u << l;
              const std::uint32_t ci =
                  ln.coff + 2 * (ln.pos - ln.bottom_first) + (go_left ? 0u : 1u);
              addrs[l] = connection.addr(ci);
              ln.subtree = static_cast<std::uint32_t>(connection[ci]);
            } else {
              ln.pos = 2 * ln.pos + (go_left ? 1u : 2u);
            }
          }
          device.add_instructions(1);  // left/right pick compiles to a predicated select
          device.warp_branch(hop_mask, active);
          if (hop_mask != 0) {
            device.warp_load(sm, addrs, hop_mask, sizeof(std::int32_t));
            enter_subtree(hop_mask);
          }
          device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step));
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
