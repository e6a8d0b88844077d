#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

/// Independent code variant (paper §3.2, first kernel in Fig. 4): one
/// thread per query; all subtree data stays in global memory. A step costs
/// ONE packed node load (feature + value travel together, §3.2's 48-bit
/// node record) plus the query-feature read — children are found
/// arithmetically (2n+1 / 2n+2). The CSR-like indirection (connection
/// entry + subtree metadata) is paid only when crossing to the next
/// subtree, i.e. once every SD levels.
KernelResult run_independent(gpusim::Device& device, const HierarchicalForest& forest,
                             const Dataset& queries) {
  return run_independent(device, forest, DeviceImage(forest), queries);
}

KernelResult run_independent(gpusim::Device& device, const HierarchicalForest& forest,
                             const DeviceImage& image, const Dataset& queries) {
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const detail::QueryView q(device, queries);
  const std::span<const PackedNode> packed = detail::image_nodes(forest, image);
  const gpusim::DeviceArray<PackedNode> nodes(device, packed);
  const gpusim::DeviceArray<std::uint32_t> node_offset(device, forest.subtree_node_offsets());
  const gpusim::DeviceArray<std::uint8_t> subtree_depth(device, forest.subtree_depths());
  const gpusim::DeviceArray<std::uint32_t> conn_offset(device, forest.connection_offsets());
  const gpusim::DeviceArray<std::int32_t> connection(device, forest.subtree_connection());

  const auto& cfg = device.config();
  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(q.count() * k, 0);

  struct Lane {
    std::uint32_t subtree = 0;
    std::uint32_t pos = 0;
    std::uint32_t off = 0;
    std::uint32_t bottom_first = 0;
    std::uint32_t coff = 0;
  };

  detail::for_each_warp(cfg, q.count(), [&](int sm, std::size_t first, std::uint32_t warp_mask) {
    Lane lanes[kWarpSize];
    std::uint64_t addrs[kWarpSize] = {};

    // Loads the per-subtree metadata for every lane in `mask` (node offset,
    // depth, connection offset) — the indirect accesses paid per hop.
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
        ln.bottom_first =
            static_cast<std::uint32_t>(pow2(subtree_depth[ln.subtree] - 1) - 1);
        ln.coff = conn_offset[ln.subtree];
      }
    };

    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      for (int l = 0; l < kWarpSize; ++l) {
        lanes[l].subtree = forest.root_subtree(t);
      }
      enter_subtree(warp_mask);

      std::uint32_t active = warp_mask;
      while (active != 0) {
        // One packed node load per step; within a subtree these sit in one
        // contiguous array, so nearby positions share cache lines.
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

        // Query feature + comparison.
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
              q.value(first + static_cast<std::size_t>(l), static_cast<std::size_t>(n.feature)) <
              n.value;
          if (ln.pos >= ln.bottom_first) {
            hop_mask |= 1u << l;  // bottom-level inner node: cross subtrees
            addrs[l] = connection.addr(ln.coff + 2 * (ln.pos - ln.bottom_first) +
                                       (go_left ? 0u : 1u));
          } else {
            ln.pos = 2 * ln.pos + (go_left ? 1u : 2u);
          }
        }
        device.add_instructions(1);  // left/right pick compiles to a predicated select
        device.warp_branch(hop_mask, active);
        if (hop_mask != 0) {
          device.warp_load(sm, addrs, hop_mask, sizeof(std::int32_t));
          for (int l = 0; l < kWarpSize; ++l) {
            if (!(hop_mask & (1u << l))) continue;
            Lane& ln = lanes[l];
            const PackedNode& n = packed[ln.off + ln.pos];
            const bool go_left =
                q.value(first + static_cast<std::size_t>(l),
                        static_cast<std::size_t>(n.feature)) < n.value;
            const std::uint32_t ci = ln.coff + 2 * (ln.pos - ln.bottom_first) + (go_left ? 0u : 1u);
            ln.subtree = static_cast<std::uint32_t>(connection[ci]);
          }
          enter_subtree(hop_mask);
        }
        device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step));
      }
    }
  });

  KernelResult r;
  r.predictions = detail::finalize_votes(device, votes, q.count(), k);
  r.counters = device.counters();
  r.timing = device.estimate();
  return r;
}

}  // namespace hrf::gpukernels
