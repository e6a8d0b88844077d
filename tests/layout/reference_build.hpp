#pragma once

// Test oracle for HierarchicalForest::build: the straightforward build
// that fills a full 2^cap slot array per subtree and grows every output
// array by push_back. Kept verbatim (member writes retargeted to a plain
// struct) so the production build can be diffed against it array by
// array.

#include <cstdint>
#include <deque>
#include <vector>

#include "forest/forest.hpp"
#include "layout/hierarchical.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf::testref {

/// Every array HierarchicalForest stores, as the reference build emits it.
struct HierArrays {
  std::size_t real_nodes_ = 0;
  std::vector<std::uint32_t> subtree_node_offset_;
  std::vector<std::uint8_t> subtree_depth_;
  std::vector<std::uint32_t> connection_offset_;
  std::vector<std::int32_t> subtree_connection_;
  std::vector<PackedNode> nodes_;
  std::vector<std::uint32_t> tree_subtree_begin_;
};

/// Depth (1-based) of slot p within a complete binary tree array.
inline int reference_slot_level(std::uint32_t p) { return ilog2(p + 1) + 1; }

inline HierArrays reference_build(const Forest& forest, const HierConfig& config) {
  require(config.subtree_depth >= 1 && config.subtree_depth <= 24,
          "subtree_depth (SD) must be in [1, 24]");
  const int rsd = config.effective_root_depth();
  require(rsd >= 1 && rsd <= 24, "root_subtree_depth (RSD) must be in [1, 24]");

  HierArrays h;

  h.tree_subtree_begin_.reserve(forest.tree_count() + 1);
  h.subtree_node_offset_.push_back(0);
  h.connection_offset_.push_back(0);

  std::uint32_t next_subtree_id = 0;

  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    const DecisionTree& tree = forest.tree(t);
    h.tree_subtree_begin_.push_back(next_subtree_id);
    h.real_nodes_ += tree.node_count();

    // FIFO over subtree roots: ids are assigned at enqueue time, so the
    // processing order below matches the id order exactly.
    std::deque<std::int32_t> pending{0};  // original node ids
    ++next_subtree_id;                    // id of the root subtree, consumed now
    bool is_root_subtree = true;

    std::vector<std::int32_t> slots;  // original node id per slot, -1 = padding

    while (!pending.empty()) {
      const std::int32_t start = pending.front();
      pending.pop_front();
      const int cap = is_root_subtree ? rsd : config.subtree_depth;
      is_root_subtree = false;

      // Fill the complete-tree slot array by implicit BFS: children of slot
      // p land at 2p+1 / 2p+2 while the level stays below the cap.
      const std::size_t max_slots = complete_tree_nodes(cap);
      slots.assign(max_slots, -1);
      slots[0] = start;
      int actual_depth = 1;
      for (std::uint32_t p = 0; p < max_slots; ++p) {
        const std::int32_t orig = slots[p];
        if (orig < 0) continue;
        const int level = reference_slot_level(p);
        actual_depth = level > actual_depth ? level : actual_depth;
        const TreeNode& n = tree.node(static_cast<std::size_t>(orig));
        if (!n.is_leaf() && level < cap) {
          slots[2 * p + 1] = n.left;
          slots[2 * p + 2] = n.right;
        }
      }

      // Shrink a subtree cut early (no real node at the next level) to its
      // actual depth; it stays a complete tree of that smaller depth.
      const std::size_t used_slots = complete_tree_nodes(actual_depth);

      // Emit node attributes (padding slots get leaf-coded null attributes;
      // they are unreachable by construction).
      for (std::size_t p = 0; p < used_slots; ++p) {
        if (slots[p] < 0) {
          h.nodes_.push_back({kLeafFeature, 0.0f});
        } else {
          const TreeNode& n = tree.node(static_cast<std::size_t>(slots[p]));
          h.nodes_.push_back({n.feature, n.value});
        }
      }
      h.subtree_node_offset_.push_back(static_cast<std::uint32_t>(h.nodes_.size()));
      h.subtree_depth_.push_back(static_cast<std::uint8_t>(actual_depth));

      // Bottom-level connections exist only when the subtree reached its
      // cap: a shorter subtree's bottom level holds tree leaves only.
      if (actual_depth == cap) {
        const std::uint32_t bottom_first = static_cast<std::uint32_t>(pow2(cap - 1) - 1);
        const std::uint32_t bottom_count = static_cast<std::uint32_t>(pow2(cap - 1));
        for (std::uint32_t k = 0; k < bottom_count; ++k) {
          const std::int32_t orig = slots[bottom_first + k];
          if (orig >= 0 && !tree.node(static_cast<std::size_t>(orig)).is_leaf()) {
            const TreeNode& n = tree.node(static_cast<std::size_t>(orig));
            pending.push_back(n.left);
            h.subtree_connection_.push_back(static_cast<std::int32_t>(next_subtree_id++));
            pending.push_back(n.right);
            h.subtree_connection_.push_back(static_cast<std::int32_t>(next_subtree_id++));
          } else {
            h.subtree_connection_.push_back(-1);
            h.subtree_connection_.push_back(-1);
          }
        }
      }
      h.connection_offset_.push_back(static_cast<std::uint32_t>(h.subtree_connection_.size()));
    }
  }
  h.tree_subtree_begin_.push_back(next_subtree_id);
  return h;
}

}  // namespace hrf::testref
