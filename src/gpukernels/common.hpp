#pragma once

// Internal helpers shared by the simulated GPU kernels. Not part of the
// public API (bench/test code should use kernels.hpp).
//
// Every kernel opens and closes a Launch. The hierarchical kernels share
// one per-node step, SubtreeWalk::run, and differ in where the subtree a
// lane steps through resides (paper §3.2):
//   - Residency::kShared, staged by the block: collaborative (every
//     subtree) and hybrid stage 1 (each tree's root subtree);
//   - Residency::kGlobal, read from global memory: independent, hybrid
//     stage 2 and tree-per-block.

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

  DeviceQueries(gpusim::Device& device, QueryView queries, std::size_t model_features)
      : host(queries), features(device, queries.features()) {
    require(model_features == queries.num_features(), "query width != forest features");
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

/// Runs the kernel grid, one thread per query and `block_size` threads
/// per block: fn(sm, b) runs once per block b, which is resident on SM
/// (b mod num_sms). Blocks of different SMs may run on different host
/// threads (gpusim::Device::run_blocks), so fn keeps its scratch inside.
template <typename Fn>
void for_each_block(gpusim::Device& device, std::size_t num_queries, Fn&& fn) {
  device.run_blocks(ceil_div(num_queries, static_cast<std::size_t>(device.config().block_size)),
                    fn);
}

/// Iterates block b's warps that hold a query: fn(w, first_query,
/// active_mask) per warp w; the mask covers lanes whose query id is in
/// range.
template <typename Fn>
void for_each_warp_of(const gpusim::DeviceConfig& cfg, std::size_t num_queries, std::size_t b,
                      Fn&& fn) {
  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  for (std::size_t w = 0; w < block_size / kWarpSize; ++w) {
    const std::size_t first = b * block_size + w * kWarpSize;
    if (first >= num_queries) break;
    fn(w, first, lane_mask(num_queries - first));
  }
}

/// Runs the whole grid warp by warp: fn(sm, first_query, active_mask),
/// each block's warps in order (see for_each_block).
template <typename Fn>
void for_each_warp(gpusim::Device& device, std::size_t num_queries, Fn&& fn) {
  for_each_block(device, num_queries, [&](int sm, std::size_t b) {
    for_each_warp_of(device.config(), num_queries, b,
                     [&](std::size_t, std::size_t first, std::uint32_t mask) {
                       fn(sm, first, mask);
                     });
  });
}

/// The prologue and tail every kernel shares: construction checks the
/// query width and mirrors the queries on the device; finish() writes out
/// the per-query majority votes as the kernel's final global store and
/// reports the launch's counters and modeled time.
struct Launch {
  DeviceQueries q;
  std::size_t k;                     // classes
  std::vector<std::uint32_t> votes;  // row-major (query x class) histogram

  template <typename Model>
  Launch(gpusim::Device& device, const Model& model, QueryView queries)
      : q(device, queries, model.num_features()),
        k(static_cast<std::size_t>(model.num_classes())),
        votes(q.count() * k, 0) {}

  void vote(std::size_t row, std::uint8_t cls) { ++votes[row * k + cls]; }

  /// The winner rule is Forest::vote_winner (ties to the higher class id =
  /// Fig. 1a's `tmp < N/2 ? A : B` in the binary case). Runs on the calling
  /// thread: stores probe no cache, so there is nothing to replay.
  KernelResult finish(gpusim::Device& device) const {
    KernelResult r;
    r.predictions.resize(q.count());
    const gpusim::DeviceArray<std::uint8_t> result_buf(device, r.predictions);
    const auto& cfg = device.config();
    for (std::size_t first = 0; first < q.count(); first += kWarpSize) {
      const std::uint32_t active = lane_mask(q.count() - first);
      std::uint64_t addrs[kWarpSize] = {};
      for_each_lane(active, [&](int l) {
        const std::size_t row = first + static_cast<std::size_t>(l);
        r.predictions[row] = Forest::vote_winner({votes.data() + row * k, k});
        addrs[l] = result_buf.addr(row);
      });
      const std::size_t block = first / static_cast<std::size_t>(cfg.block_size);
      device.warp_store(static_cast<int>(block % static_cast<std::size_t>(cfg.num_sms)), addrs,
                        active, 1);
    }
    r.counters = device.counters();
    r.timing = device.estimate();
    return r;
  }
};

/// Where the subtree a lane steps through resides.
enum class Residency {
  kShared,  // staged by the block: a node read is one smem load
  kGlobal,  // in global memory: a node read is one packed-node warp load
};

/// A hierarchical layout's node records, per-subtree metadata and
/// connection table mirrored on the device, in this allocation order. A
/// kernel whose walks never reach Residency::kGlobal (collaborative) reads
/// the metadata as block-uniform values, so it mirrors only the nodes and
/// the connection table.
struct DeviceSubtrees {
  const HierarchicalForest& forest;
  gpusim::DeviceArray<PackedNode> nodes;
  gpusim::DeviceArray<std::uint32_t> node_offset;
  gpusim::DeviceArray<std::uint8_t> subtree_depth;
  gpusim::DeviceArray<std::uint32_t> conn_offset;
  gpusim::DeviceArray<std::int32_t> connection;

  DeviceSubtrees(gpusim::Device& device, const HierarchicalForest& f,
                 Residency reaches = Residency::kGlobal)
      : forest(f), nodes(device, f.nodes()) {
    if (reaches == Residency::kGlobal) {
      node_offset = {device, f.subtree_node_offsets()};
      subtree_depth = {device, f.subtree_depths()};
      conn_offset = {device, f.connection_offsets()};
    }
    connection = {device, f.subtree_connection()};
  }

  /// Cooperative, coalesced staging of nodes [first, first + count) into
  /// the block's shared memory: consecutive lanes load consecutive packed
  /// nodes (one 128 B transaction per 16 nodes), one store per warp load.
  void stage(gpusim::Device& device, int sm, std::size_t first, std::size_t count,
             gpusim::Device::LoadHint hint = gpusim::Device::LoadHint::kDefault) const {
    std::uint64_t addrs[kWarpSize] = {};
    for (std::size_t chunk = 0; chunk < count; chunk += kWarpSize) {
      const std::uint32_t mask = lane_mask(count - chunk);
      for_each_lane(mask, [&](int l) {
        addrs[l] = nodes.addr(first + chunk + static_cast<std::size_t>(l));
      });
      device.warp_load(sm, addrs, mask, sizeof(PackedNode), hint);
      device.smem_store(sm, 1);
    }
  }
};

/// One warp's lanes walking subtrees, the per-node step of paper §3.2. A
/// step costs ONE packed node read (feature + value travel together,
/// §3.2's 48-bit node record) plus the query-feature read; children are
/// found arithmetically (2n+1 / 2n+2). The connection entry is paid only
/// when crossing to the next subtree, i.e. once every SD levels, and in
/// global residency so are the next subtree's metadata.
class SubtreeWalk {
 public:
  SubtreeWalk(gpusim::Device& device, const DeviceSubtrees& st, Launch& launch)
      : device_(device), st_(st), launch_(launch) {}

  /// Lane l's subtree, read by enter() and written by a hop.
  std::uint32_t subtree[kWarpSize] = {};

  /// Puts the lanes in `mask` at their subtree's root. In global
  /// residency this loads the subtree metadata (node offset, depth,
  /// connection offset), the indirect accesses paid per hop; a staged
  /// subtree's metadata is uniform across the block and costs nothing.
  template <Residency R>
  void enter(int sm, std::uint32_t mask) {
    for_each_lane(mask, [&](int l) { place(l, root_of(subtree[l])); });
    load_metadata<R>(sm, mask);
  }

  /// enter() with every lane in `mask` at subtree `s`, looked up once.
  template <Residency R>
  void enter(int sm, std::uint32_t mask, std::uint32_t s) {
    const Root root = root_of(s);
    for_each_lane(mask, [&](int l) {
      subtree[l] = s;
      place(l, root);
    });
    load_metadata<R>(sm, mask);
  }

  struct End {
    std::uint32_t left = 0;  // lanes that hopped out of a staged subtree
    int steps = 0;           // steps the warp took
  };

  /// Walks the lanes in `active` (entered, lane 0 = query `first`) and
  /// counts the votes of those reaching a leaf. In global residency a lane
  /// hops on until it reaches a leaf; in shared residency a lane that
  /// leaves the staged subtree stops, in End::left, with subtree[l] set to
  /// the next one. `on_leaves(leaf_mask)` runs right after each step's leaf
  /// branch, while leaf_class() still reads the leaves just reached.
  template <Residency R, typename OnLeaves>
  End run(int sm, std::size_t first, std::uint32_t active, OnLeaves&& on_leaves) {
    const auto instructions_per_step =
        static_cast<std::uint64_t>(device_.config().instructions_per_step);
    End end;
    while (active != 0) {
      ++end.steps;
      // One host pass per step; the device calls below replay it in order.
      std::uint32_t leaf_mask = 0;
      std::uint32_t hop_mask = 0;
      // for_each_lane open-coded: GCC at -O2 keeps a lambda this size out
      // of line, one call per lane.
      for (std::uint32_t lanes = active; lanes != 0; lanes &= lanes - 1) {
        const int l = std::countr_zero(lanes);
        const std::uint32_t node = off_[l] + pos_[l];
        if constexpr (R == Residency::kGlobal) node_addr_[l] = st_.nodes.addr(node);
        const PackedNode n = st_.nodes[node];
        const std::size_t row = first + static_cast<std::size_t>(l);
        if (n.feature == kLeafFeature) {
          leaf_mask |= 1u << l;
          launch_.vote(row, static_cast<std::uint8_t>(n.value));
          continue;
        }
        const auto f = static_cast<std::size_t>(n.feature);
        feature_addr_[l] = launch_.q.addr(row, f);
        const std::uint32_t right = !(launch_.q.value(row, f) < n.value);
        if (pos_[l] >= bottom_first_[l]) {
          hop_mask |= 1u << l;  // bottom-level inner node: cross subtrees
          const std::uint32_t ci = coff_[l] + 2 * (pos_[l] - bottom_first_[l]) + right;
          hop_addr_[l] = st_.connection.addr(ci);
          subtree[l] = static_cast<std::uint32_t>(st_.connection[ci]);
        } else {
          pos_[l] = 2 * pos_[l] + 1 + right;
        }
      }

      if constexpr (R == Residency::kShared) {
        device_.smem_load(sm, 1);
      } else {
        // Within a subtree the nodes sit in one contiguous array, so
        // nearby positions share cache lines.
        device_.warp_load(sm, node_addr_, active, sizeof(PackedNode));
      }
      device_.warp_branch(sm, leaf_mask, active);
      on_leaves(leaf_mask);
      active &= ~leaf_mask;
      if (active == 0) break;

      device_.warp_load(sm, feature_addr_, active, sizeof(float));
      device_.add_instructions(sm, 1);  // left/right pick compiles to a predicated select
      device_.warp_branch(sm, hop_mask, active);
      if (hop_mask != 0) {
        device_.warp_load(sm, hop_addr_, hop_mask, sizeof(std::int32_t));
        if constexpr (R == Residency::kGlobal) {
          enter<R>(sm, hop_mask);
        } else {
          end.left |= hop_mask;
          active &= ~hop_mask;
        }
      }
      device_.add_instructions(sm, instructions_per_step);
    }
    return end;
  }

  template <Residency R>
  End run(int sm, std::size_t first, std::uint32_t active) {
    return run<R>(sm, first, active, [](std::uint32_t) {});
  }

  /// The class vote of the leaf lane l stands on.
  std::uint8_t leaf_class(int l) const {
    return static_cast<std::uint8_t>(st_.nodes[off_[l] + pos_[l]].value);
  }

 private:
  /// A subtree's node offset, the position of its bottom level's first
  /// node, and its first connection entry.
  struct Root {
    std::uint32_t off, bottom_first, coff;
  };

  Root root_of(std::uint32_t s) const {
    return {st_.forest.subtree_node_offset(s),
            static_cast<std::uint32_t>(pow2(st_.forest.subtree_depth(s) - 1) - 1),
            st_.forest.connection_offset(s)};
  }

  void place(int l, const Root& r) {
    pos_[l] = 0;
    off_[l] = r.off;
    bottom_first_[l] = r.bottom_first;
    coff_[l] = r.coff;
  }

  template <Residency R>
  void load_metadata(int sm, std::uint32_t mask) {
    if constexpr (R == Residency::kGlobal) {
      for_each_lane(mask, [&](int l) {
        off_addr_[l] = st_.node_offset.addr(subtree[l]);
        depth_addr_[l] = st_.subtree_depth.addr(subtree[l]);
        coff_addr_[l] = st_.conn_offset.addr(subtree[l]);
      });
      device_.warp_load(sm, off_addr_, mask, sizeof(std::uint32_t));
      device_.warp_load(sm, depth_addr_, mask, sizeof(std::uint8_t));
      device_.warp_load(sm, coff_addr_, mask, sizeof(std::uint32_t));
    }
  }

  gpusim::Device& device_;
  const DeviceSubtrees& st_;
  Launch& launch_;
  // Per lane: its position in its subtree, and that subtree's Root fields.
  std::uint32_t pos_[kWarpSize] = {};
  std::uint32_t off_[kWarpSize] = {};
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

}  // namespace hrf::gpukernels::detail
