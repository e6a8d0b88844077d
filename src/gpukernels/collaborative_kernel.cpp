#include "gpukernels/common.hpp"
#include "gpukernels/kernels.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels {

using detail::kWarpSize;

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
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const auto& cfg = device.config();
  const detail::DeviceQueries q(device, queries);
  const gpusim::DeviceArray<PackedNode> nodes(device, forest.nodes());
  const gpusim::DeviceArray<std::int32_t> connection(device, forest.subtree_connection());

  // Shared-memory batch capacity in packed 8-byte nodes (§3.2: 48 bits of
  // attributes per node, padded to the 8 B the hardware loads).
  const std::size_t batch_nodes_cap = cfg.shared_mem_per_block / sizeof(PackedNode);
  require(batch_nodes_cap >= complete_tree_nodes(forest.config().subtree_depth),
          "collaborative kernel: one subtree must fit in shared memory");

  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(q.count() * k, 0);

  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  const std::size_t num_blocks = (q.count() + block_size - 1) / block_size;
  const std::size_t warps_per_block = block_size / kWarpSize;

  // Per-lane traversal state, indexed [warp][lane] within the block.
  std::vector<std::uint32_t> pending(block_size);
  std::uint64_t addrs[kWarpSize] = {};
  std::uint64_t hop_addrs[kWarpSize] = {};

  for (std::size_t b = 0; b < num_blocks; ++b) {
    const int sm = static_cast<int>(b % static_cast<std::size_t>(cfg.num_sms));

    for (std::size_t t = 0; t < forest.num_trees(); ++t) {
      const std::uint32_t st_begin = forest.tree_subtree_begin()[t];
      const std::uint32_t st_end = forest.tree_subtree_begin()[t + 1];
      for (std::size_t i = 0; i < block_size; ++i) pending[i] = st_begin;

      std::uint32_t batch_first = st_begin;
      while (batch_first < st_end) {
        // Grow the batch until shared memory is full.
        std::uint32_t batch_last = batch_first;
        std::size_t batch_nodes = 0;
        while (batch_last < st_end) {
          const std::size_t n = complete_tree_nodes(forest.subtree_depth(batch_last));
          if (batch_nodes + n > batch_nodes_cap) break;
          batch_nodes += n;
          ++batch_last;
        }

        // Cooperative, coalesced staging of the whole batch.
        const std::uint32_t base_off = forest.subtree_node_offset(batch_first);
        for (std::size_t chunk = 0; chunk < batch_nodes; chunk += kWarpSize) {
          const std::uint32_t mask = detail::lane_mask(batch_nodes - chunk);
          detail::for_each_lane(mask, [&](int l) {
            addrs[l] = nodes.addr(base_off + chunk + static_cast<std::size_t>(l));
          });
          device.warp_load(sm, addrs, mask, sizeof(PackedNode));
          device.smem_store(1);
        }

        // Walk every query through every subtree of the batch.
        for (std::uint32_t st = batch_first; st < batch_last; ++st) {
          const std::uint32_t off = forest.subtree_node_offset(st);
          const int d = forest.subtree_depth(st);
          const std::uint32_t bottom_first = static_cast<std::uint32_t>(pow2(d - 1) - 1);
          const std::uint32_t coff = forest.connection_offset(st);

          for (std::size_t w = 0; w < warps_per_block; ++w) {
            const std::size_t first = b * block_size + w * kWarpSize;
            if (first >= q.count()) break;
            const std::uint32_t warp_mask = detail::lane_mask(q.count() - first);
            std::uint32_t* const lane_pending = pending.data() + w * kWarpSize;

            // Presence guard: every lane pays this branch for every
            // subtree — the variant's structural overhead.
            std::uint32_t present = 0;
            detail::for_each_lane(warp_mask, [&](int l) {
              if (lane_pending[l] == st) present |= 1u << l;
            });
            device.warp_branch(present, warp_mask);
            device.add_instructions(1);
            if (present == 0) continue;

            std::uint32_t pos[kWarpSize] = {};
            std::uint32_t active = present;
            int steps_taken = 0;
            while (active != 0) {
              ++steps_taken;
              // One host pass per step; the device calls below replay it in order.
              std::uint32_t leaf_mask = 0;
              std::uint32_t hop_mask = 0;
              detail::for_each_lane(active, [&](int l) {
                const PackedNode n = nodes[off + pos[l]];
                const std::size_t row = first + static_cast<std::size_t>(l);
                if (n.feature == kLeafFeature) {
                  leaf_mask |= 1u << l;
                  ++votes[row * k + static_cast<std::uint8_t>(n.value)];
                  lane_pending[l] = kDone;
                  return;
                }
                const auto f = static_cast<std::size_t>(n.feature);
                addrs[l] = q.addr(row, f);
                const std::uint32_t right = !(q.value(row, f) < n.value);
                if (pos[l] >= bottom_first) {
                  hop_mask |= 1u << l;
                  const std::uint32_t ci = coff + 2 * (pos[l] - bottom_first) + right;
                  hop_addrs[l] = connection.addr(ci);
                  lane_pending[l] = static_cast<std::uint32_t>(connection[ci]);
                } else {
                  pos[l] = 2 * pos[l] + 1 + right;
                }
              });

              device.smem_load(1);
              device.warp_branch(leaf_mask, active);
              active &= ~leaf_mask;
              if (active == 0) break;
              device.warp_load(sm, addrs, active, sizeof(float));
              device.add_instructions(1);  // left/right pick compiles to a predicated select
              device.warp_branch(hop_mask, active);
              if (hop_mask != 0) device.warp_load(sm, hop_addrs, hop_mask, sizeof(std::int32_t));
              active &= ~hop_mask;
              device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step));
            }
            // Lock-step waste (paper §3.2.1): the warp walks the *full*
            // subtree pipeline even when its present lanes exit early —
            // non-present and finished lanes idle through the remaining
            // levels, still occupying issue slots and shared-memory reads.
            for (int s = steps_taken; s < d; ++s) {
              device.smem_load(1);
              device.add_instructions(static_cast<std::uint64_t>(cfg.instructions_per_step) + 1);
            }
          }
        }
        batch_first = batch_last;
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
