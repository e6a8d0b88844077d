#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

/// cuML FIL stand-in (paper's §4.3 comparison point): one query per
/// thread, iterating all trees; each traversal step costs a single 16-byte
/// node load plus the query-feature load. No separate topology arrays —
/// this is what makes FIL ~4-5x faster than CSR, and what larger-SD
/// hierarchical layouts beat by adding shared-memory residency.
KernelResult run_fil_baseline(gpusim::Device& device, const Forest& forest,
                              const DeviceImage& image, QueryView queries) {
  require(image.fil_tree_offset().size() == forest.tree_count() + 1,
          "device image was not prepared from this forest");
  const std::span<const FilNode> fil_nodes = image.fil_nodes();
  const std::span<const std::uint32_t> fil_tree_offset = image.fil_tree_offset();
  detail::Launch launch(device, forest, queries);
  const detail::DeviceQueries& q = launch.q;
  const gpusim::DeviceArray<FilNode> nodes(device, fil_nodes);
  const gpusim::DeviceArray<std::uint32_t> tree_offset(device, fil_tree_offset);

  const auto& cfg = device.config();
  const auto instructions_per_step = static_cast<std::uint64_t>(cfg.instructions_per_step);
  detail::for_each_warp(device, q.count(), [&](int sm, std::size_t first, std::uint32_t warp_mask) {
    std::uint64_t node_addrs[kWarpSize] = {};
    std::uint64_t feature_addrs[kWarpSize] = {};
    std::uint32_t lane_node[kWarpSize] = {};

    for (std::size_t t = 0; t < forest.tree_count(); ++t) {
      const std::uint64_t offset_addr = tree_offset.addr(t);
      device.warp_load(sm, {&offset_addr, 1}, 1u, sizeof(std::uint32_t));
      const std::uint32_t base = fil_tree_offset[t];
      detail::for_each_lane(warp_mask, [&](int l) { lane_node[l] = base; });

      std::uint32_t active = warp_mask;
      while (active != 0) {
        // One host pass per step; the device calls below replay it in order.
        std::uint32_t leaf_mask = 0;
        detail::for_each_lane(active, [&](int l) {
          node_addrs[l] = nodes.addr(lane_node[l]);
          const FilNode& n = fil_nodes[lane_node[l]];
          const std::size_t row = first + static_cast<std::size_t>(l);
          if (n.feature == kLeafFeature) {
            leaf_mask |= 1u << l;
            launch.vote(row, static_cast<std::uint8_t>(n.value));
            return;
          }
          const auto f = static_cast<std::size_t>(n.feature);
          feature_addrs[l] = q.addr(row, f);
          lane_node[l] = base + static_cast<std::uint32_t>(n.left) + !(q.value(row, f) < n.value);
        });
        device.warp_load(sm, node_addrs, active, sizeof(FilNode));
        device.warp_branch(sm, leaf_mask, active);
        active &= ~leaf_mask;
        if (active == 0) break;

        device.warp_load(sm, feature_addrs, active, sizeof(float));
        device.add_instructions(sm, 1);  // left/right pick compiles to a predicated select
        device.add_instructions(sm, instructions_per_step);
      }
    }
  });

  return launch.finish(device);
}

}  // namespace hrf::gpukernels
