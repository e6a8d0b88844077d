#include "gpukernels/ablation_kernels.hpp"

#include <algorithm>
#include <numeric>

#include "gpukernels/common.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

KernelResult run_tree_per_block(gpusim::Device& device, const HierarchicalForest& forest,
                                const Dataset& queries) {
  return run_tree_per_block(device, forest, DeviceImage(forest), queries);
}

KernelResult run_tree_per_block(gpusim::Device& device, const HierarchicalForest& forest,
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
  // Global vote matrix: with blocks partitioned by TREE, different blocks
  // update the same query's votes -> global atomics instead of registers.
  const gpusim::DeviceArray<std::uint32_t> votes_buf(device, votes);

  struct Lane {
    std::uint32_t subtree = 0;
    std::uint32_t pos = 0;
    std::uint32_t off = 0;
    std::uint32_t bottom_first = 0;
    std::uint32_t coff = 0;
  };

  // Grid: one block per tree; each block's warps sweep all queries.
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const int sm = static_cast<int>(t % static_cast<std::size_t>(cfg.num_sms));
    for (std::size_t first = 0; first < q.count(); first += kWarpSize) {
      std::uint32_t warp_mask = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (first + static_cast<std::size_t>(l) < q.count()) warp_mask |= 1u << l;
      }
      Lane lanes[kWarpSize];
      std::uint64_t addrs[kWarpSize] = {};

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

      for (int l = 0; l < kWarpSize; ++l) lanes[l].subtree = forest.root_subtree(t);
      enter_subtree(warp_mask);

      std::uint32_t active = warp_mask;
      while (active != 0) {
        for (int l = 0; l < kWarpSize; ++l) addrs[l] = nodes.addr(lanes[l].off + lanes[l].pos);
        device.warp_load(sm, addrs, active, sizeof(PackedNode));

        std::uint32_t leaf_mask = 0;
        for (int l = 0; l < kWarpSize; ++l) {
          if ((active & (1u << l)) &&
              packed[lanes[l].off + lanes[l].pos].feature == kLeafFeature) {
            leaf_mask |= 1u << l;
          }
        }
        device.warp_branch(leaf_mask, active);
        if (leaf_mask != 0) {
          // atomicAdd on the global vote matrix: one scattered read +
          // write per finishing lane — Optimization 2's structural cost.
          for (int l = 0; l < kWarpSize; ++l) {
            if (!(leaf_mask & (1u << l))) continue;
            const std::size_t qi = first + static_cast<std::size_t>(l);
            const auto cls =
                static_cast<std::uint8_t>(packed[lanes[l].off + lanes[l].pos].value);
            ++votes[qi * k + cls];
            addrs[l] = votes_buf.addr(qi * k + cls);
          }
          device.warp_atomic_rmw(sm, addrs, leaf_mask, sizeof(std::uint32_t));
        }
        active &= ~leaf_mask;
        if (active == 0) break;

        for (int l = 0; l < kWarpSize; ++l) {
          if (!(active & (1u << l))) continue;
          const auto f = static_cast<std::size_t>(packed[lanes[l].off + lanes[l].pos].feature);
          addrs[l] = q.addr(first + static_cast<std::size_t>(l), f);
        }
        device.warp_load(sm, addrs, active, sizeof(float));

        std::uint32_t hop_mask = 0;
        for (int l = 0; l < kWarpSize; ++l) {
          if (!(active & (1u << l))) continue;
          Lane& ln = lanes[l];
          const PackedNode& n = packed[ln.off + ln.pos];
          const bool go_left = q.value(first + static_cast<std::size_t>(l),
                                       static_cast<std::size_t>(n.feature)) < n.value;
          if (ln.pos >= ln.bottom_first) {
            hop_mask |= 1u << l;
            const std::uint32_t ci = ln.coff + 2 * (ln.pos - ln.bottom_first) + (go_left ? 0u : 1u);
            addrs[l] = connection.addr(ci);
            ln.subtree = static_cast<std::uint32_t>(connection[ci]);
          } else {
            ln.pos = 2 * ln.pos + (go_left ? 1u : 2u);
          }
        }
        device.add_instructions(1);
        device.warp_branch(hop_mask, active);
        if (hop_mask != 0) {
          device.warp_load(sm, addrs, hop_mask, sizeof(std::int32_t));
          enter_subtree(hop_mask);
        }
        device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step));
      }
    }
  }

  KernelResult r;
  r.predictions = detail::finalize_votes(device, votes, q.count(), k);
  r.counters = device.counters();
  r.timing = device.estimate();
  return r;
}

std::vector<std::uint32_t> presort_queries(const Dataset& queries, int bins) {
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

Dataset permute_queries(const Dataset& queries, std::span<const std::uint32_t> order) {
  require(order.size() == queries.num_samples(), "permutation size != query count");
  Dataset out(queries.num_samples(), queries.num_features(), queries.num_classes());
  out.set_name(queries.name() + "/sorted");
  for (std::uint32_t i : order) out.push_back(queries.sample(i), queries.label(i));
  return out;
}

}  // namespace hrf::gpukernels
