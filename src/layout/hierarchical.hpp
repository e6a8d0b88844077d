#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"

namespace hrf {

/// Tuning parameters of the hierarchical layout (paper §3.1).
struct HierConfig {
  /// Maximum depth of non-root subtrees (the paper's SD; evaluated at 4/6/8).
  int subtree_depth = 6;
  /// Maximum depth of each tree's root subtree (the paper's RSD; Table 2
  /// evaluates 8/10/12). Must be >= 1. Defaults to subtree_depth when 0.
  int root_subtree_depth = 0;

  int effective_root_depth() const {
    return root_subtree_depth > 0 ? root_subtree_depth : subtree_depth;
  }
};

/// One hierarchical node slot: feature id and threshold stored together,
/// so a traversal step is one memory access (paper §3.2: the node record
/// is 48 bits of attributes, padded here to the 8 bytes the hardware
/// loads). The CSR baseline keeps the separate feature_id / value /
/// children arrays of Fig. 2; that asymmetry (one packed load against four
/// scattered ones per step) is a large part of the hierarchical layout's
/// GPU win.
struct PackedNode {
  std::int32_t feature;  // kLeafFeature marks a tree leaf (or padding)
  float value;           // threshold, or the leaf's class vote
};
static_assert(sizeof(PackedNode) == 8);

/// Size/padding report for the hierarchical encoding (drives Fig. 6).
struct HierStats {
  std::size_t num_subtrees = 0;
  std::size_t stored_nodes = 0;    // incl. padding
  std::size_t real_nodes = 0;      // original tree nodes
  std::size_t padding_nodes = 0;   // stored - real
  std::size_t connection_entries = 0;
  double padding_ratio = 0.0;      // padding / stored
};

/// The paper's hierarchical decision tree layout (§3.1, Fig. 3).
///
/// Each tree is cut into triangle-shaped subtrees of maximum depth SD (the
/// root subtree may use a larger depth RSD). Every subtree is padded to a
/// *complete binary tree*, so it is stored as a fixed-size array in which
/// the children of (subtree-local) node n sit at 2n+1 / 2n+2 — no
/// indirection. Only hops *between* subtrees consult CSR-like arrays:
/// `connection_offset[st]` locates the subtree's bottom-level slots inside
/// `subtree_connection`, which stores the global id of the child subtree
/// rooted at each bottom-level node's left/right child (-1 when absent).
///
/// Subtree ids are global across the forest; `tree_subtree_begin[t]` is the
/// id of tree t's root subtree. A subtree shorter than its depth cap (cut
/// early because the tree has no nodes below) stores `2^depth - 1` slots
/// for its actual depth and has no connection entries: by construction all
/// its bottom-level real nodes are tree leaves.
///
/// Node attribute encoding matches CSR: `feature == -1` marks a tree leaf
/// (and padding slots, which are unreachable), `value` is the comparison
/// threshold or the leaf's class vote. Every reader (CPU, simulated GPU
/// and FPGA kernels) walks the one packed node array.
class HierarchicalForest {
 public:
  /// Builds the hierarchical encoding of a validated forest.
  /// Throws ConfigError for out-of-range depths (SD/RSD in [1, 24]).
  static HierarchicalForest build(const Forest& forest, const HierConfig& config);

  /// Reassembles an encoding from raw arrays (deserialization path); runs
  /// validate(). Throws FormatError on inconsistency.
  static HierarchicalForest from_parts(
      HierConfig config, std::size_t num_features, int num_classes, std::size_t real_nodes,
      std::vector<std::uint32_t> subtree_node_offset, std::vector<std::uint8_t> subtree_depth,
      std::vector<std::uint32_t> connection_offset, std::vector<std::int32_t> subtree_connection,
      std::vector<PackedNode> nodes, std::vector<std::uint32_t> tree_subtree_begin);

  const HierConfig& config() const { return config_; }
  std::size_t num_trees() const { return tree_subtree_begin_.size() - 1; }
  std::size_t num_subtrees() const { return subtree_depth_.size(); }
  std::size_t num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }

  // --- per-subtree tables -------------------------------------------------
  /// Offset of subtree `st`'s node 0 inside nodes().
  std::uint32_t subtree_node_offset(std::size_t st) const { return subtree_node_offset_[st]; }
  /// Actual depth of subtree `st` (1 = single node). Node count = 2^depth-1.
  int subtree_depth(std::size_t st) const { return subtree_depth_[st]; }
  /// First entry of subtree `st`'s bottom-level connections (2 per slot).
  std::uint32_t connection_offset(std::size_t st) const { return connection_offset_[st]; }

  std::span<const std::uint32_t> subtree_node_offsets() const { return subtree_node_offset_; }
  std::span<const std::uint8_t> subtree_depths() const { return subtree_depth_; }
  std::span<const std::uint32_t> connection_offsets() const { return connection_offset_; }
  std::span<const std::int32_t> subtree_connection() const { return subtree_connection_; }
  /// One record per stored node slot, padding included.
  std::span<const PackedNode> nodes() const { return nodes_; }
  std::span<const std::uint32_t> tree_subtree_begin() const { return tree_subtree_begin_; }

  /// Root subtree id of tree `t`.
  std::uint32_t root_subtree(std::size_t t) const { return tree_subtree_begin_[t]; }

  /// Leaf value reached by `query` on tree `t` (scalar reference traversal;
  /// the GPU/FPGA kernels re-implement this walk on their machine models).
  float traverse_tree(std::size_t t, std::span<const float> query) const;

  /// Majority-vote classification using the hierarchical encoding.
  std::uint8_t classify(std::span<const float> query) const;

  /// Bytes occupied by all arrays (the Fig. 6 numerator).
  std::size_t memory_bytes() const;

  /// Original (unpadded) node count, preserved across serialization.
  std::size_t real_nodes() const { return real_nodes_; }

  HierStats stats() const;

  /// Structural self-check: offsets monotone, depths within caps,
  /// connections reference valid subtrees of the same tree, every real
  /// bottom-level inner node has both children. Throws FormatError.
  void validate() const;

 private:
  HierConfig config_;
  std::size_t num_features_ = 0;
  int num_classes_ = 2;
  std::size_t real_nodes_ = 0;

  std::vector<std::uint32_t> subtree_node_offset_;  // size S+1 (sentinel end)
  std::vector<std::uint8_t> subtree_depth_;         // size S
  std::vector<std::uint32_t> connection_offset_;    // size S+1 (sentinel end)
  std::vector<std::int32_t> subtree_connection_;    // 2 per bottom-level slot
  std::vector<PackedNode> nodes_;                   // per stored slot
  std::vector<std::uint32_t> tree_subtree_begin_;   // size T+1
};

}  // namespace hrf
