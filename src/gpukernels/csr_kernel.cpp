#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

/// CSR baseline (paper §2.3, Fig. 2): each thread walks every tree for its
/// query. Per inner-node step the thread loads feature_id[n], value[n],
/// the query feature, children_arr_idx[n] and children_arr[idx + dir] —
/// two of which are the indirect topology accesses the hierarchical layout
/// eliminates. Warps reconverge at the end of each tree's while-loop, so a
/// warp pays the longest lane path per tree (lock-step divergence).
KernelResult run_csr(gpusim::Device& device, const CsrForest& csr, QueryView queries) {
  detail::Launch launch(device, csr, queries);
  const detail::DeviceQueries& q = launch.q;
  const gpusim::DeviceArray<std::int32_t> feature_id(device, csr.feature_id());
  const gpusim::DeviceArray<float> value(device, csr.value());
  const gpusim::DeviceArray<std::int32_t> children_arr(device, csr.children_arr());
  const gpusim::DeviceArray<std::int32_t> children_arr_idx(device, csr.children_arr_idx());
  const gpusim::DeviceArray<std::int32_t> tree_root(device, csr.tree_root());

  const auto& cfg = device.config();
  const auto instructions_per_step = static_cast<std::uint64_t>(cfg.instructions_per_step);
  detail::for_each_warp(device, q.count(), [&](int sm, std::size_t first, std::uint32_t warp_mask) {
    std::uint32_t lane_node[kWarpSize] = {};
    std::uint64_t fid_addrs[kWarpSize] = {};
    std::uint64_t value_addrs[kWarpSize] = {};
    std::uint64_t feature_addrs[kWarpSize] = {};
    std::uint64_t idx_addrs[kWarpSize] = {};
    std::uint64_t child_addrs[kWarpSize] = {};

    for (std::size_t t = 0; t < csr.num_trees(); ++t) {
      // Uniform per-warp read of the tree root (one lane broadcasts).
      const std::uint64_t root_addr = tree_root.addr(t);
      device.warp_load(sm, {&root_addr, 1}, 1u, sizeof(std::int32_t));
      const auto root = static_cast<std::uint32_t>(tree_root[t]);
      detail::for_each_lane(warp_mask, [&](int l) { lane_node[l] = root; });

      std::uint32_t active = warp_mask;
      while (active != 0) {
        // feature_id[n] and value[n] for all active lanes; the leaf check
        // splits the warp when some lanes are done.
        std::uint32_t leaf_mask = 0;
        detail::for_each_lane(active, [&](int l) {
          const std::uint32_t n = lane_node[l];
          fid_addrs[l] = feature_id.addr(n);
          value_addrs[l] = value.addr(n);
          if (feature_id[n] == kLeafFeature) {
            leaf_mask |= 1u << l;
            launch.vote(first + static_cast<std::size_t>(l), static_cast<std::uint8_t>(value[n]));
          }
        });
        device.warp_load(sm, fid_addrs, active, sizeof(std::int32_t));
        device.warp_load(sm, value_addrs, active, sizeof(float));
        device.warp_branch(sm, leaf_mask, active);
        active &= ~leaf_mask;
        if (active == 0) break;

        // Query feature for the comparison, then the indirect topology:
        // children_arr_idx[n] and children_arr[idx + dir].
        detail::for_each_lane(active, [&](int l) {
          const std::uint32_t n = lane_node[l];
          const std::size_t row = first + static_cast<std::size_t>(l);
          const auto f = static_cast<std::size_t>(feature_id[n]);
          feature_addrs[l] = q.addr(row, f);
          idx_addrs[l] = children_arr_idx.addr(n);
          const auto idx = static_cast<std::size_t>(children_arr_idx[n]) +
                           !(q.value(row, f) < value[n]);
          child_addrs[l] = children_arr.addr(idx);
          lane_node[l] = static_cast<std::uint32_t>(children_arr[idx]);
        });
        device.warp_load(sm, feature_addrs, active, sizeof(float));
        device.warp_load(sm, idx_addrs, active, sizeof(std::int32_t));
        device.add_instructions(sm, 1);  // left/right pick compiles to a predicated select
        device.warp_load(sm, child_addrs, active, sizeof(std::int32_t));
        device.add_instructions(sm, instructions_per_step);
      }
    }
  });

  return launch.finish(device);
}

}  // namespace hrf::gpukernels
