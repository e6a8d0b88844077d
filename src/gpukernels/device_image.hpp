#pragma once

// The FIL baseline's gpu-sim device image: cuML FIL's own 16-byte node
// format, built once from the Forest when a model is installed instead of
// on every launch (paper §3.2: the layout is built offline and stays
// resident on the device; a launch only ships queries). The hierarchical
// variants need no image: their kernels read the layout's packed node
// records (HierarchicalForest::nodes()) directly.

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"

namespace hrf::gpukernels {

/// cuML FIL "sparse16" style node: 16 bytes, children stored adjacently so
/// one aligned load fetches everything a traversal step needs.
struct FilNode {
  std::int32_t feature = kLeafFeature;  // -1 marks a leaf
  float value = 0.0f;                   // threshold or leaf vote
  std::int32_t left = -1;               // tree-local index; right = left + 1
  std::int32_t pad = 0;
};
static_assert(sizeof(FilNode) == 16);

/// Built once from a forest, then immutable: any number of concurrent
/// launches may read one image. Holds no pointer into its source, so
/// copies and moves of an owner stay valid.
class DeviceImage {
 public:
  /// Flattens the forest into FIL's per-tree node arrays in BFS order
  /// (children of a node adjacent, levels contiguous).
  explicit DeviceImage(const Forest& forest);

  /// The node records and each tree's start offset (T+1).
  std::span<const FilNode> fil_nodes() const { return fil_nodes_; }
  std::span<const std::uint32_t> fil_tree_offset() const { return fil_tree_offset_; }

 private:
  std::vector<FilNode> fil_nodes_;
  std::vector<std::uint32_t> fil_tree_offset_;
};

}  // namespace hrf::gpukernels
