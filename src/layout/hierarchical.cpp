#include "layout/hierarchical.hpp"

#include <deque>
#include <string>

#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf {

namespace {

/// Depth (1-based) of slot p within a complete binary tree array.
int slot_level(std::uint32_t p) { return ilog2(p + 1) + 1; }

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
        const int level = slot_level(p);
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
