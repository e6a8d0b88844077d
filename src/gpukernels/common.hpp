#pragma once

// Internal helpers shared by the simulated GPU kernels. Not part of the
// public API (bench/test code should use kernels.hpp).

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_array.hpp"
#include "gpukernels/kernels.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf::gpukernels::detail {

inline constexpr int kWarpSize = 32;

/// Query rows mirrored on the device (row-major, as the paper stores it).
struct DeviceQueries {
  QueryView host;
  gpusim::DeviceArray<float> features;

  DeviceQueries(gpusim::Device& device, QueryView queries)
      : host(queries), features(device, queries.features()) {
    require(queries.num_samples() > 0, "no queries to classify");
  }

  std::size_t count() const { return host.num_samples(); }
  std::size_t width() const { return host.num_features(); }
  float value(std::size_t q, std::size_t f) const { return features[q * width() + f]; }
  std::uint64_t addr(std::size_t q, std::size_t f) const {
    return features.addr(q * width() + f);
  }
};

/// Mask of the first `count` lanes of a warp (all of them from 32 up).
inline std::uint32_t lane_mask(std::size_t count) {
  return count >= kWarpSize ? ~0u : (1u << count) - 1;
}

/// Calls fn(lane) for each set bit of `mask`, lowest lane first, so
/// per-lane host work is proportional to the active lanes.
template <typename Fn>
void for_each_lane(std::uint32_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) fn(std::countr_zero(mask));
}

/// Iterates the kernel grid: one thread per query, `block_size` threads per
/// block, block b resident on SM (b mod num_sms). `fn(sm, first_query,
/// active_mask)` is invoked once per warp; the mask covers lanes whose
/// query id is in range.
template <typename Fn>
void for_each_warp(const gpusim::DeviceConfig& cfg, std::size_t num_queries, Fn&& fn) {
  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  const std::size_t num_blocks = (num_queries + block_size - 1) / block_size;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const int sm = static_cast<int>(b % static_cast<std::size_t>(cfg.num_sms));
    for (std::size_t w = 0; w < block_size / kWarpSize; ++w) {
      const std::size_t first = b * block_size + w * kWarpSize;
      if (first >= num_queries) break;
      fn(sm, first, lane_mask(num_queries - first));
    }
  }
}

/// A hierarchical layout's node records and subtree topology mirrored on
/// the device, in this allocation order, for the kernels whose lanes walk
/// subtrees out of global memory.
struct DeviceSubtrees {
  gpusim::DeviceArray<PackedNode> nodes;
  gpusim::DeviceArray<std::uint32_t> node_offset;
  gpusim::DeviceArray<std::uint8_t> subtree_depth;
  gpusim::DeviceArray<std::uint32_t> conn_offset;
  gpusim::DeviceArray<std::int32_t> connection;

  DeviceSubtrees(gpusim::Device& device, const HierarchicalForest& forest)
      : nodes(device, forest.nodes()),
        node_offset(device, forest.subtree_node_offsets()),
        subtree_depth(device, forest.subtree_depths()),
        conn_offset(device, forest.connection_offsets()),
        connection(device, forest.subtree_connection()) {}
};

/// The independent traversal of paper §3.2 for one warp at a time, shared
/// by the independent kernel, the hybrid kernel's stage 2 and
/// tree-per-block: every lane walks its own subtree out of global memory.
/// A step costs ONE packed node load (feature + value travel together,
/// §3.2's 48-bit node record) plus the query-feature read; children are
/// found arithmetically (2n+1 / 2n+2). The CSR-like indirection
/// (connection entry + subtree metadata) is paid only when crossing to the
/// next subtree, i.e. once every SD levels.
class SubtreeWalk {
 public:
  SubtreeWalk(gpusim::Device& device, const DeviceSubtrees& st, const DeviceQueries& q,
              std::vector<std::uint32_t>& votes, std::size_t num_classes)
      : device_(device), st_(st), q_(q), votes_(votes), k_(num_classes) {}

  /// Lane l's subtree, read by enter().
  std::uint32_t subtree[kWarpSize] = {};

  /// Loads the per-subtree metadata for every lane in `mask` (node offset,
  /// depth, connection offset) — the indirect accesses paid per hop — and
  /// puts those lanes at their subtree's root.
  void enter(int sm, std::uint32_t mask) {
    for_each_lane(mask, [&](int l) {
      const std::uint32_t s = subtree[l];
      off_addr_[l] = st_.node_offset.addr(s);
      depth_addr_[l] = st_.subtree_depth.addr(s);
      coff_addr_[l] = st_.conn_offset.addr(s);
      pos_[l] = 0;
      off_[l] = st_.node_offset[s];
      bottom_first_[l] = static_cast<std::uint32_t>(pow2(st_.subtree_depth[s] - 1) - 1);
      coff_[l] = st_.conn_offset[s];
    });
    device_.warp_load(sm, off_addr_, mask, sizeof(std::uint32_t));
    device_.warp_load(sm, depth_addr_, mask, sizeof(std::uint8_t));
    device_.warp_load(sm, coff_addr_, mask, sizeof(std::uint32_t));
  }

  /// Walks the lanes in `active` (entered, lane 0 = query `first`) to
  /// their leaves and counts their votes. `on_leaves(leaf_mask)` runs right
  /// after each step's leaf branch, while leaf_class() still reads the
  /// leaves just reached.
  template <typename OnLeaves>
  void run(int sm, std::size_t first, std::uint32_t active, OnLeaves&& on_leaves) {
    const auto instructions_per_step =
        static_cast<std::uint64_t>(device_.config().instructions_per_step);
    while (active != 0) {
      // One host pass per step; the device calls below replay it in order.
      std::uint32_t leaf_mask = 0;
      std::uint32_t hop_mask = 0;
      for_each_lane(active, [&](int l) {
        const std::uint32_t node = off_[l] + pos_[l];
        node_addr_[l] = st_.nodes.addr(node);
        const PackedNode n = st_.nodes[node];
        const std::size_t row = first + static_cast<std::size_t>(l);
        if (n.feature == kLeafFeature) {
          leaf_mask |= 1u << l;
          ++votes_[row * k_ + static_cast<std::uint8_t>(n.value)];
          return;
        }
        const auto f = static_cast<std::size_t>(n.feature);
        feature_addr_[l] = q_.addr(row, f);
        const std::uint32_t right = !(q_.value(row, f) < n.value);
        if (pos_[l] >= bottom_first_[l]) {
          hop_mask |= 1u << l;  // bottom-level inner node: cross subtrees
          const std::uint32_t ci = coff_[l] + 2 * (pos_[l] - bottom_first_[l]) + right;
          hop_addr_[l] = st_.connection.addr(ci);
          subtree[l] = static_cast<std::uint32_t>(st_.connection[ci]);
        } else {
          pos_[l] = 2 * pos_[l] + 1 + right;
        }
      });

      // Within a subtree the nodes sit in one contiguous array, so nearby
      // positions share cache lines.
      device_.warp_load(sm, node_addr_, active, sizeof(PackedNode));
      device_.warp_branch(leaf_mask, active);
      on_leaves(leaf_mask);
      active &= ~leaf_mask;
      if (active == 0) break;

      device_.warp_load(sm, feature_addr_, active, sizeof(float));
      device_.add_instructions(1);  // left/right pick compiles to a predicated select
      device_.warp_branch(hop_mask, active);
      if (hop_mask != 0) {
        device_.warp_load(sm, hop_addr_, hop_mask, sizeof(std::int32_t));
        enter(sm, hop_mask);
      }
      device_.add_instructions(instructions_per_step);
    }
  }

  void run(int sm, std::size_t first, std::uint32_t active) {
    run(sm, first, active, [](std::uint32_t) {});
  }

  /// The class vote of the leaf lane l stands on.
  std::uint8_t leaf_class(int l) const {
    return static_cast<std::uint8_t>(st_.nodes[off_[l] + pos_[l]].value);
  }

 private:
  gpusim::Device& device_;
  const DeviceSubtrees& st_;
  const DeviceQueries& q_;
  std::vector<std::uint32_t>& votes_;
  std::size_t k_;
  // Per lane: node offset of its subtree, position in it, first node of
  // the subtree's bottom level, and its first connection entry.
  std::uint32_t off_[kWarpSize] = {};
  std::uint32_t pos_[kWarpSize] = {};
  std::uint32_t bottom_first_[kWarpSize] = {};
  std::uint32_t coff_[kWarpSize] = {};
  // Per-lane addresses of each warp-wide load.
  std::uint64_t off_addr_[kWarpSize] = {};
  std::uint64_t depth_addr_[kWarpSize] = {};
  std::uint64_t coff_addr_[kWarpSize] = {};
  std::uint64_t node_addr_[kWarpSize] = {};
  std::uint64_t feature_addr_[kWarpSize] = {};
  std::uint64_t hop_addr_[kWarpSize] = {};
};

/// Writes out per-query majority votes as the kernel's final global store
/// and returns the predictions. `votes` is a row-major (query x class)
/// histogram; the winner rule is Forest::vote_winner (ties to the higher
/// class id = Fig. 1a's `tmp < N/2 ? A : B` in the binary case).
inline std::vector<std::uint8_t> finalize_votes(gpusim::Device& device,
                                                const std::vector<std::uint32_t>& votes,
                                                std::size_t num_queries,
                                                std::size_t num_classes) {
  std::vector<std::uint8_t> out(num_queries);
  gpusim::DeviceArray<std::uint8_t> result_buf(device, out);
  for_each_warp(device.config(), num_queries, [&](int sm, std::size_t first, std::uint32_t active) {
    std::uint64_t addrs[kWarpSize] = {};
    for_each_lane(active, [&](int l) {
      const std::size_t q = first + static_cast<std::size_t>(l);
      out[q] = Forest::vote_winner({votes.data() + q * num_classes, num_classes});
      addrs[l] = result_buf.addr(q);
    });
    device.warp_store(sm, addrs, active, 1);
  });
  return out;
}

}  // namespace hrf::gpukernels::detail
