#pragma once

// The gpu-sim device image of a model: the node records a kernel launch
// reads, packed once when the model is installed instead of on every
// launch (paper §3.2: the layout is built offline and stays resident on
// the device; a launch only ships queries).
//
// The paper stores a subtree node's attributes in 48 bits (§3.2: the
// collaborative capacity formula divides shared memory by 48 bits/node),
// i.e. feature id and value travel in ONE memory access. The CSR baseline
// keeps the separate feature_id / value / children arrays of Fig. 2 —
// that asymmetry (1 packed load vs 4 scattered loads per step) is a large
// part of the hierarchical layout's GPU win.

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::gpukernels {

struct PackedNode {
  std::int32_t feature;  // kLeafFeature marks a tree leaf (or padding)
  float value;           // threshold, or the leaf's class vote
};
static_assert(sizeof(PackedNode) == 8);

/// cuML FIL "sparse16" style node: 16 bytes, children stored adjacently so
/// one aligned load fetches everything a traversal step needs.
struct FilNode {
  std::int32_t feature = kLeafFeature;  // -1 marks a leaf
  float value = 0.0f;                   // threshold or leaf vote
  std::int32_t left = -1;               // tree-local index; right = left + 1
  std::int32_t pad = 0;
};
static_assert(sizeof(FilNode) == 16);

/// Built once from a layout (hierarchical variants) or a forest (FIL
/// baseline), then immutable: any number of concurrent launches may read
/// one image. Kernels still take the layout itself for the topology
/// arrays (subtree offsets, depths, connections), which they mirror onto
/// the device unchanged. Holds no pointer into its source, so copies and
/// moves of an owner stay valid.
class DeviceImage {
 public:
  /// Interleaves the layout's attribute arrays into PackedNodes.
  explicit DeviceImage(const HierarchicalForest& layout);
  /// Flattens the forest into FIL's per-tree node arrays in BFS order
  /// (children of a node adjacent, levels contiguous).
  explicit DeviceImage(const Forest& forest);

  /// Hierarchical variants: one record per layout node slot.
  std::span<const PackedNode> nodes() const { return nodes_; }
  /// FIL baseline: the node records and each tree's start offset (T+1).
  std::span<const FilNode> fil_nodes() const { return fil_nodes_; }
  std::span<const std::uint32_t> fil_tree_offset() const { return fil_tree_offset_; }

 private:
  std::vector<PackedNode> nodes_;
  std::vector<FilNode> fil_nodes_;
  std::vector<std::uint32_t> fil_tree_offset_;
};

}  // namespace hrf::gpukernels
