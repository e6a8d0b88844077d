// Differential and golden tests for HierarchicalForest::build: every array
// it emits must equal, byte for byte, what the reference build in
// reference_build.hpp emits for the same forest and depths.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "forest/random_forest_gen.hpp"
#include "layout/hierarchical.hpp"
#include "reference_build.hpp"
#include "util/rng.hpp"

namespace hrf {
namespace {

template <typename T>
bool same_bytes(std::span<const T> got, const std::vector<T>& want) {
  return got.size() == want.size() &&
         (want.empty() || std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) == 0);
}

/// Builds `forest` both ways and requires identical arrays and a layout
/// that passes validate().
void expect_matches_reference(const Forest& forest, int sd, int rsd) {
  SCOPED_TRACE("sd " + std::to_string(sd) + " rsd " + std::to_string(rsd));
  HierConfig cfg;
  cfg.subtree_depth = sd;
  cfg.root_subtree_depth = rsd;
  const HierarchicalForest h = HierarchicalForest::build(forest, cfg);
  const testref::HierArrays want = testref::reference_build(forest, cfg);
  EXPECT_EQ(h.real_nodes(), want.real_nodes_);
  EXPECT_TRUE(same_bytes(h.subtree_node_offsets(), want.subtree_node_offset_));
  EXPECT_TRUE(same_bytes(h.subtree_depths(), want.subtree_depth_));
  EXPECT_TRUE(same_bytes(h.connection_offsets(), want.connection_offset_));
  EXPECT_TRUE(same_bytes(h.subtree_connection(), want.subtree_connection_));
  EXPECT_TRUE(same_bytes(h.nodes(), want.nodes_));
  EXPECT_TRUE(same_bytes(h.tree_subtree_begin(), want.tree_subtree_begin_));
  EXPECT_NO_THROW(h.validate());
}

TreeNode leaf(float vote) { return {kLeafFeature, vote, -1, -1}; }

/// A tree of `depth` levels whose every inner node has one leaf child; the
/// inner child's side is drawn from `rng` (a caterpillar), so each subtree
/// stores one real node per level and pads the rest.
DecisionTree path_tree(int depth, Xoshiro256& rng) {
  DecisionTree tree;
  std::int32_t cur = tree.add_node(leaf(0.0f));
  for (int level = 1; level < depth; ++level) {
    const std::int32_t inner = tree.add_node(leaf(0.0f));
    const std::int32_t side = tree.add_node(leaf(static_cast<float>(level % 2)));
    const bool inner_left = rng.next() % 2 == 0;
    TreeNode& n = tree.mutable_node(static_cast<std::size_t>(cur));
    n.feature = level % 7;
    n.value = 0.5f;
    n.left = inner_left ? inner : side;
    n.right = inner_left ? side : inner;
    cur = inner;
  }
  return tree;
}

/// A complete tree of `depth` levels, children stored *before* their
/// parent, so nothing in the build may assume parent-first node order.
DecisionTree reversed_complete_tree(int depth) {
  const std::size_t count = static_cast<std::size_t>(complete_tree_nodes(depth));
  std::vector<TreeNode> nodes(count);
  // Heap slot h (root 0) is stored at index count - 1 - h.
  const auto at = [count](std::size_t h) { return static_cast<std::int32_t>(count - 1 - h); };
  for (std::size_t h = 0; h < count; ++h) {
    TreeNode& n = nodes[static_cast<std::size_t>(at(h))];
    if (2 * h + 1 < count) {
      n = {static_cast<std::int32_t>(h % 5), 0.25f, at(2 * h + 1), at(2 * h + 2)};
    } else {
      n = leaf(static_cast<float>(h % 2));
    }
  }
  // The root must sit at index 0: swap it with whatever is there and
  // patch the one parent pointer that referenced index 0.
  const std::int32_t root = at(0);
  std::swap(nodes[0], nodes[static_cast<std::size_t>(root)]);
  for (TreeNode& n : nodes) {
    if (n.left == 0) n.left = root;
    if (n.right == 0) n.right = root;
  }
  return DecisionTree(std::move(nodes));
}

Forest random_forest(int trees, int depth, std::uint64_t seed, double branch = 0.72) {
  RandomForestSpec spec;
  spec.num_trees = trees;
  spec.max_depth = depth;
  spec.branch_prob = branch;
  spec.num_features = 12;
  spec.seed = seed;
  return make_random_forest(spec);
}

TEST(HierarchicalBuild, RandomForestsMatchReferenceAtEverySdAndRsd) {
  const Forest forest = random_forest(3, 14, 42);
  for (int sd = 1; sd <= 8; ++sd) {
    for (int rsd = 0; rsd <= 12; ++rsd) expect_matches_reference(forest, sd, rsd);
  }
}

TEST(HierarchicalBuild, SparseAndDenseForestsMatchReference) {
  for (const double branch : {0.3, 0.55, 0.9}) {
    const auto seed = 7 + static_cast<std::uint64_t>(branch * 100);
    const Forest forest = random_forest(4, 11, seed, branch);
    for (const int sd : {1, 2, 3, 5, 8}) {
      for (const int rsd : {1, 4, 9, 12}) expect_matches_reference(forest, sd, rsd);
    }
  }
}

TEST(HierarchicalBuild, PathShapedTreesMatchReference) {
  Xoshiro256 rng(2024);
  std::vector<DecisionTree> trees;
  for (const int depth : {2, 3, 7, 13, 20, 33}) trees.push_back(path_tree(depth, rng));
  const Forest forest(std::move(trees), 7);
  for (int sd = 1; sd <= 8; ++sd) {
    for (const int rsd : {0, 1, 2, 6, 10, 12}) expect_matches_reference(forest, sd, rsd);
  }
}

TEST(HierarchicalBuild, SingleLeafTreesMatchReference) {
  std::vector<DecisionTree> trees;
  for (int t = 0; t < 5; ++t) trees.push_back(DecisionTree({leaf(static_cast<float>(t % 2))}));
  Xoshiro256 rng(5);
  trees.push_back(path_tree(4, rng));  // one deeper tree among the stumps
  trees.push_back(DecisionTree({leaf(1.0f)}));
  const Forest forest(std::move(trees), 7);
  for (int sd = 1; sd <= 8; ++sd) {
    for (const int rsd : {0, 1, 3, 12}) expect_matches_reference(forest, sd, rsd);
  }
}

TEST(HierarchicalBuild, ChildBeforeParentNodeOrderMatchesReference) {
  std::vector<DecisionTree> trees;
  for (const int depth : {1, 2, 5, 9}) trees.push_back(reversed_complete_tree(depth));
  const Forest forest(std::move(trees), 5);
  for (int sd = 1; sd <= 8; ++sd) {
    for (const int rsd : {0, 1, 4, 10}) expect_matches_reference(forest, sd, rsd);
  }
}

TEST(HierarchicalBuild, DepthTwentyTreesMatchReference) {
  const Forest forest = random_forest(4, 20, 99);
  for (const int sd : {1, 4, 6, 8}) {
    for (const int rsd : {0, 1, 8, 10, 12}) expect_matches_reference(forest, sd, rsd);
  }
}

TEST(HierarchicalBuild, DeepCapsBeyondTreeHeightMatchReference) {
  // Caps far above every tree's height: each tree is one subtree.
  const Forest forest = random_forest(3, 9, 11);
  for (const auto& [sd, rsd] : {std::pair{12, 0}, {12, 16}, {24, 0}, {3, 24}}) {
    expect_matches_reference(forest, sd, rsd);
  }
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a(std::span<const T> a) {
  return fnv1a(a.data(), a.size_bytes());
}

struct GoldenRow {
  int sd;
  int rsd;
  std::uint64_t node_offset, depth, conn_offset, connection, nodes, tree_begin;
};

// FNV-1a 64 of every array for the perfbench-shaped forest below (100
// trees, depth 20, 28 features), captured from the reference build. Any
// change to the emitted bytes, or to the forest generator, shows here.
constexpr GoldenRow kGolden[] = {
    {4, 0, 0x9f55c07ce02ca931ULL, 0x11f0bb5cb2c9f73dULL, 0x35f649b1fef864ceULL,
     0xe422986501a12192ULL, 0x203d2ebdd2ad6287ULL, 0x13efb21757e37a81ULL},
    {4, 10, 0xfbfffce74bb90872ULL, 0xa8edb51ecd8e0c4bULL, 0x19b60ce52888f9ddULL,
     0xb51e6c1bf1843ff6ULL, 0xc1bd49100823d5e7ULL, 0x615cc7a7eac6a704ULL},
    {6, 0, 0x5745576e7d1de298ULL, 0x9006f91ad7594259ULL, 0x41e5519021808835ULL,
     0x5c387994d6c5a4d7ULL, 0x14b55226892ef54bULL, 0x936570631f21379eULL},
    {6, 10, 0x2562e6acb815ee5bULL, 0x619ca0c824cde5f8ULL, 0x472d99779669071aULL,
     0x7adf97c772f3630aULL, 0x7f3cf4b8b2329eabULL, 0x2cd87a3883b31f1fULL},
    {8, 0, 0xa2b2ea1efcfe1c90ULL, 0xf3bfe82af678f6dfULL, 0xb86804abb9654aabULL,
     0x75e8af4e90c73f65ULL, 0xc1c7cdfc60211b7bULL, 0xaf94bcf65f67ea91ULL},
    {8, 10, 0xca271cd88bc42740ULL, 0xb0c49b92c43700deULL, 0xef14747cf38add21ULL,
     0xc453ced45bc27e9cULL, 0xa830c2d8bbbd1f43ULL, 0xedf79894504f20feULL},
};

TEST(HierarchicalBuild, PerfbenchShapedForestArraysMatchGoldenHashes) {
  RandomForestSpec spec;
  spec.num_trees = 100;
  spec.max_depth = 20;
  spec.num_features = 28;
  spec.seed = 7;
  const Forest forest = make_random_forest(spec);
  for (const GoldenRow& g : kGolden) {
    HierConfig cfg;
    cfg.subtree_depth = g.sd;
    cfg.root_subtree_depth = g.rsd;
    const HierarchicalForest h = HierarchicalForest::build(forest, cfg);
    const GoldenRow got{g.sd,
                        g.rsd,
                        fnv1a(h.subtree_node_offsets()),
                        fnv1a(h.subtree_depths()),
                        fnv1a(h.connection_offsets()),
                        fnv1a(h.subtree_connection()),
                        fnv1a(h.nodes()),
                        fnv1a(h.tree_subtree_begin())};
    const bool same = got.node_offset == g.node_offset && got.depth == g.depth &&
                      got.conn_offset == g.conn_offset && got.connection == g.connection &&
                      got.nodes == g.nodes && got.tree_begin == g.tree_begin;
    EXPECT_TRUE(same) << "new row: {" << got.sd << ", " << got.rsd << std::hex << ", 0x"
                      << got.node_offset << "ULL, 0x" << got.depth << "ULL, 0x"
                      << got.conn_offset << "ULL, 0x" << got.connection << "ULL, 0x"
                      << got.nodes << "ULL, 0x" << got.tree_begin << "ULL},";
  }
}

}  // namespace
}  // namespace hrf
