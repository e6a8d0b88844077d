#include "layout/hierarchical.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf {

namespace {

/// Exact output sizes of a build, from one O(nodes) pass over the forest.
struct BuildSizes {
  std::size_t subtrees = 0;
  std::size_t slots = 0;
  std::size_t connections = 0;
  int max_height = 0;  // levels of the tallest tree (a single leaf = 1)
};

/// Subtree roots are node 0 (cap `rsd`) and every node at 0-based depth
/// rsd + k*sd (cap `sd`): a subtree that reaches its cap spawns one child
/// subtree per child of its bottom-level inner nodes, i.e. at the next
/// cap boundary. A root whose subtree spans `height` levels stores
/// 2^min(cap, height) - 1 slots, plus 2^cap connection entries when
/// height >= cap.
BuildSizes count_build(const Forest& forest, int sd, int rsd) {
  BuildSizes sizes;
  std::vector<std::int32_t> order;       // node ids, breadth-first
  std::vector<int> height;               // per BFS position; 0 = inner, not yet known
  std::vector<std::size_t> level_begin;  // BFS position of each level's first node
  for (const DecisionTree& tree : forest.trees()) {
    // Level-synchronous BFS: the children of one level's inner nodes are
    // appended, in order, as the next level.
    order.assign(1, 0);
    height.clear();
    level_begin.clear();
    for (std::size_t begin = 0, end = 1; begin < end; begin = end, end = order.size()) {
      level_begin.push_back(begin);
      for (std::size_t i = begin; i < end; ++i) {
        const TreeNode& n = tree.node(static_cast<std::size_t>(order[i]));
        height.push_back(n.is_leaf() ? 1 : 0);
        if (!n.is_leaf()) {
          order.push_back(n.left);
          order.push_back(n.right);
        }
      }
    }
    level_begin.push_back(order.size());

    // Bottom-up: walking positions in reverse, each inner node's children
    // are the last two positions not yet claimed.
    std::size_t child = order.size();
    for (std::size_t level = level_begin.size() - 1; level-- > 0;) {
      const int d = static_cast<int>(level);
      const int cap = d == 0 ? rsd : (d >= rsd && (d - rsd) % sd == 0 ? sd : 0);
      for (std::size_t i = level_begin[level + 1]; i-- > level_begin[level];) {
        if (height[i] == 0) {
          child -= 2;
          height[i] = 1 + std::max(height[child], height[child + 1]);
        }
        if (cap == 0) continue;
        ++sizes.subtrees;
        sizes.slots += complete_tree_nodes(std::min(cap, height[i]));
        if (height[i] >= cap) sizes.connections += pow2(cap);
      }
    }
    sizes.max_height = std::max(sizes.max_height, height[0]);
  }
  return sizes;
}

}  // namespace

HierarchicalForest HierarchicalForest::build(const Forest& forest, const HierConfig& config) {
  require(config.subtree_depth >= 1 && config.subtree_depth <= 24,
          "subtree_depth (SD) must be in [1, 24]");
  const int rsd = config.effective_root_depth();
  require(rsd >= 1 && rsd <= 24, "root_subtree_depth (RSD) must be in [1, 24]");

  HierarchicalForest h;
  h.config_ = config;
  h.config_.root_subtree_depth = rsd;
  h.num_features_ = forest.num_features();
  h.num_classes_ = forest.num_classes();

  // Every output array is allocated once, at its final size.
  const BuildSizes sizes = count_build(forest, config.subtree_depth, rsd);
  h.tree_subtree_begin_.reserve(forest.tree_count() + 1);
  h.subtree_node_offset_.reserve(sizes.subtrees + 1);
  h.subtree_depth_.reserve(sizes.subtrees);
  h.connection_offset_.reserve(sizes.subtrees + 1);
  h.subtree_connection_.reserve(sizes.connections);
  h.nodes_.reserve(sizes.slots);
  h.subtree_node_offset_.push_back(0);
  h.connection_offset_.push_back(0);

  // Scratch: original node id per slot (-1 = padding), sized for the
  // largest subtree any tree can fill. Between subtrees it is all -1; each
  // subtree resets only the prefix it wrote.
  const int widest = std::min(std::max(rsd, config.subtree_depth), sizes.max_height);
  std::vector<std::int32_t> slots(complete_tree_nodes(widest), -1);
  std::vector<std::int32_t> pending;  // FIFO of subtree-root node ids
  std::uint32_t next_subtree_id = 0;

  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    const DecisionTree& tree = forest.tree(t);
    h.tree_subtree_begin_.push_back(next_subtree_id);
    h.real_nodes_ += tree.node_count();

    // Subtree ids are assigned at enqueue time, so the processing order
    // below matches the id order exactly.
    pending.assign(1, 0);
    ++next_subtree_id;  // id of the root subtree, consumed now

    for (std::size_t head = 0; head < pending.size(); ++head) {
      const int cap = head == 0 ? rsd : config.subtree_depth;
      const std::uint32_t bottom_first = static_cast<std::uint32_t>(pow2(cap - 1) - 1);

      // Fill the complete-tree slot array by implicit BFS: children of slot
      // p land at 2p+1 / 2p+2 while p sits above the bottom level. `last`
      // is the highest filled slot, so the scan stops where the data does.
      slots[0] = pending[head];
      std::uint32_t last = 0;
      for (std::uint32_t p = 0; p <= last && p < bottom_first; ++p) {
        const std::int32_t orig = slots[p];
        if (orig < 0) continue;
        const TreeNode& n = tree.node(static_cast<std::size_t>(orig));
        if (!n.is_leaf()) {
          slots[2 * p + 1] = n.left;
          slots[2 * p + 2] = n.right;
          last = 2 * p + 2;
        }
      }

      // A subtree cut early (no real node at the next level) shrinks to the
      // level of its last slot; it stays a complete tree of that depth.
      const int actual_depth = ilog2(std::uint64_t{last} + 1) + 1;
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
        for (std::uint32_t p = bottom_first; p < used_slots; ++p) {
          const std::int32_t orig = slots[p];
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
      std::fill(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(last) + 1, -1);
    }
  }
  h.tree_subtree_begin_.push_back(next_subtree_id);
  return h;
}

HierarchicalForest HierarchicalForest::from_parts(
    HierConfig config, std::size_t num_features, int num_classes, std::size_t real_nodes,
    std::vector<std::uint32_t> subtree_node_offset, std::vector<std::uint8_t> subtree_depth,
    std::vector<std::uint32_t> connection_offset, std::vector<std::int32_t> subtree_connection,
    std::vector<PackedNode> nodes, std::vector<std::uint32_t> tree_subtree_begin) {
  if (num_features == 0 || num_classes < 2 || num_classes > 256) {
    throw FormatError("hierarchical: bad feature/class counts");
  }
  if (tree_subtree_begin.size() < 2) throw FormatError("hierarchical: no trees");
  HierarchicalForest h;
  h.config_ = config;
  h.config_.root_subtree_depth = config.effective_root_depth();
  h.num_features_ = num_features;
  h.num_classes_ = num_classes;
  h.real_nodes_ = real_nodes;
  h.subtree_node_offset_ = std::move(subtree_node_offset);
  h.subtree_depth_ = std::move(subtree_depth);
  h.connection_offset_ = std::move(connection_offset);
  h.subtree_connection_ = std::move(subtree_connection);
  h.nodes_ = std::move(nodes);
  h.tree_subtree_begin_ = std::move(tree_subtree_begin);
  h.validate();
  return h;
}

float HierarchicalForest::traverse_tree(std::size_t t, std::span<const float> query) const {
  auto st = static_cast<std::size_t>(tree_subtree_begin_[t]);
  for (;;) {
    const std::uint32_t off = subtree_node_offset_[st];
    const int d = subtree_depth_[st];
    const std::uint32_t bottom_first = static_cast<std::uint32_t>(pow2(d - 1) - 1);
    std::uint32_t p = 0;
    for (;;) {
      const PackedNode& n = nodes_[off + p];
      if (n.feature == kLeafFeature) return n.value;
      const bool go_left = query[static_cast<std::size_t>(n.feature)] < n.value;
      if (p >= bottom_first) {
        // Inner node on the bottom level: hop to the connected subtree.
        const std::uint32_t ci = connection_offset_[st] + 2 * (p - bottom_first) + (go_left ? 0 : 1);
        st = static_cast<std::size_t>(subtree_connection_[ci]);
        break;
      }
      p = 2 * p + (go_left ? 1 : 2);
    }
  }
}

std::uint8_t HierarchicalForest::classify(std::span<const float> query) const {
  require(query.size() == num_features_, "query width mismatch");
  std::uint32_t votes[256] = {};
  for (std::size_t t = 0; t < num_trees(); ++t) {
    ++votes[static_cast<std::uint8_t>(traverse_tree(t, query))];
  }
  return Forest::vote_winner({votes, static_cast<std::size_t>(num_classes_)});
}

std::size_t HierarchicalForest::memory_bytes() const {
  return nodes_.size() * sizeof(PackedNode) +
         subtree_node_offset_.size() * sizeof(std::uint32_t) +
         subtree_depth_.size() * sizeof(std::uint8_t) +
         connection_offset_.size() * sizeof(std::uint32_t) +
         subtree_connection_.size() * sizeof(std::int32_t) +
         tree_subtree_begin_.size() * sizeof(std::uint32_t);
}

HierStats HierarchicalForest::stats() const {
  HierStats s;
  s.num_subtrees = num_subtrees();
  s.stored_nodes = nodes_.size();
  s.real_nodes = real_nodes_;
  s.padding_nodes = s.stored_nodes - s.real_nodes;
  s.connection_entries = subtree_connection_.size();
  s.padding_ratio =
      s.stored_nodes ? static_cast<double>(s.padding_nodes) / static_cast<double>(s.stored_nodes)
                     : 0.0;
  return s;
}

void HierarchicalForest::validate() const {
  const std::size_t s = num_subtrees();
  if (subtree_node_offset_.size() != s + 1 || connection_offset_.size() != s + 1) {
    throw FormatError("hierarchical: offset table size mismatch");
  }
  // Both offset tables must span exactly their arrays; with the per-subtree
  // counts below (computed without wrap-around, so each step ascends) that
  // keeps every node and connection index in bounds.
  if (subtree_node_offset_.front() != 0 || subtree_node_offset_.back() != nodes_.size()) {
    throw FormatError("hierarchical: subtree node offsets do not span the node array");
  }
  if (connection_offset_.front() != 0 ||
      connection_offset_.back() != subtree_connection_.size()) {
    throw FormatError("hierarchical: connection offsets do not span the connection array");
  }
  // Each tree owns a non-empty run of subtrees (its root subtree first),
  // and the runs tile [0, num_subtrees()).
  if (tree_subtree_begin_.front() != 0 || tree_subtree_begin_.back() != s) {
    throw FormatError("hierarchical: tree subtree ranges do not span the subtrees");
  }
  for (std::size_t t = 0; t < num_trees(); ++t) {
    if (tree_subtree_begin_[t] >= tree_subtree_begin_[t + 1]) {
      throw FormatError("hierarchical: tree " + std::to_string(t) + " has no subtrees");
    }
  }
  const int rsd = config_.effective_root_depth();
  for (std::size_t st = 0; st < s; ++st) {
    const int d = subtree_depth_[st];
    if (d < 1 || d > std::max(rsd, config_.subtree_depth)) {
      throw FormatError("hierarchical: subtree " + std::to_string(st) + " has bad depth");
    }
    const std::uint64_t nodes =
        std::uint64_t{subtree_node_offset_[st + 1]} - subtree_node_offset_[st];
    if (nodes != complete_tree_nodes(d)) {
      throw FormatError("hierarchical: subtree " + std::to_string(st) +
                        " node count != 2^depth-1");
    }
    const std::uint64_t conns =
        std::uint64_t{connection_offset_[st + 1]} - connection_offset_[st];
    if (conns != 0 && conns != pow2(d)) {
      throw FormatError("hierarchical: subtree " + std::to_string(st) +
                        " has malformed connection block");
    }
  }
  // Node attributes must be sane: inner features index a real feature and
  // leaf values name a real class (padding slots are leaves with value 0).
  // Guards traversal against corrupted-in-memory or tampered blobs.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::int32_t fid = nodes_[i].feature;
    if (fid != kLeafFeature &&
        (fid < 0 || static_cast<std::size_t>(fid) >= num_features_)) {
      throw FormatError("hierarchical: feature id out of range at slot " + std::to_string(i));
    }
    if (fid == kLeafFeature) {
      const float v = nodes_[i].value;
      if (!(v >= 0.0f && v < static_cast<float>(num_classes_))) {
        throw FormatError("hierarchical: leaf value is not a class id at slot " +
                          std::to_string(i));
      }
    }
  }
  // Connections must point forward (subtree ids are assigned breadth-first,
  // so a traversal cannot cycle) to subtrees of the same tree, and every
  // bottom-level inner node must have both children.
  for (std::size_t t = 0; t < num_trees(); ++t) {
    const std::uint32_t lo = tree_subtree_begin_[t];
    const std::uint32_t hi = tree_subtree_begin_[t + 1];
    for (std::uint32_t st = lo; st < hi; ++st) {
      const std::uint32_t coff = connection_offset_[st];
      const std::uint32_t cend = connection_offset_[st + 1];
      const int d = subtree_depth_[st];
      const std::uint32_t off = subtree_node_offset_[st];
      const std::uint32_t bottom_first = static_cast<std::uint32_t>(pow2(d - 1) - 1);
      if (coff == cend) {
        for (std::uint32_t slot = bottom_first; slot < complete_tree_nodes(d); ++slot) {
          if (nodes_[off + slot].feature != kLeafFeature) {
            throw FormatError("hierarchical: bottom-level inner node missing connection");
          }
        }
      }
      for (std::uint32_t ci = coff; ci < cend; ++ci) {
        const std::int32_t target = subtree_connection_[ci];
        const std::uint32_t slot = bottom_first + (ci - coff) / 2;
        const bool inner = nodes_[off + slot].feature != kLeafFeature;
        if (inner && target < 0) {
          throw FormatError("hierarchical: bottom-level inner node missing connection");
        }
        if (!inner && target >= 0) {
          throw FormatError("hierarchical: leaf/padding slot has a connection");
        }
        if (target >= 0 &&
            (static_cast<std::uint32_t>(target) < lo || static_cast<std::uint32_t>(target) >= hi)) {
          throw FormatError("hierarchical: connection escapes its tree");
        }
        if (target >= 0 && static_cast<std::uint32_t>(target) <= st) {
          throw FormatError("hierarchical: connection does not point forward");
        }
      }
    }
  }
}

}  // namespace hrf
