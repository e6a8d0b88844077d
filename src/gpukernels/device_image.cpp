#include "gpukernels/device_image.hpp"

#include <deque>

namespace hrf::gpukernels {

DeviceImage::DeviceImage(const Forest& forest) {
  fil_tree_offset_.reserve(forest.tree_count() + 1);
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    const DecisionTree& tree = forest.tree(t);
    fil_tree_offset_.push_back(static_cast<std::uint32_t>(fil_nodes_.size()));
    const auto base = fil_nodes_.size();
    // BFS emission with adjacent child pairs.
    std::deque<std::int32_t> queue{0};
    std::vector<std::int32_t> renum(tree.node_count(), -1);
    std::int32_t next = 0;
    while (!queue.empty()) {
      const std::int32_t old_id = queue.front();
      queue.pop_front();
      renum[static_cast<std::size_t>(old_id)] = next++;
      const TreeNode& n = tree.node(static_cast<std::size_t>(old_id));
      if (!n.is_leaf()) {
        queue.push_back(n.left);
        queue.push_back(n.right);
      }
    }
    fil_nodes_.resize(base + tree.node_count());
    std::vector<std::int32_t> order(tree.node_count());
    for (std::size_t old_id = 0; old_id < tree.node_count(); ++old_id) {
      order[static_cast<std::size_t>(renum[old_id])] = static_cast<std::int32_t>(old_id);
    }
    std::int32_t emitted_children = 1;  // BFS slot of the next child pair
    for (std::size_t k = 0; k < order.size(); ++k) {
      const TreeNode& n = tree.node(static_cast<std::size_t>(order[k]));
      FilNode& fn = fil_nodes_[base + k];
      fn.feature = n.feature;
      fn.value = n.value;
      if (!n.is_leaf()) {
        fn.left = emitted_children;  // children occupy the next BFS pair
        emitted_children += 2;
      }
    }
  }
  fil_tree_offset_.push_back(static_cast<std::uint32_t>(fil_nodes_.size()));
}

}  // namespace hrf::gpukernels
