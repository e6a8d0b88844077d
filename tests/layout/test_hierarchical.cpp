#include "layout/hierarchical.hpp"

#include <gtest/gtest.h>

#include "../common/paper_example.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrf {
namespace {

HierarchicalForest build_fig3(int sd = 3, int rsd = 0) {
  HierConfig cfg;
  cfg.subtree_depth = sd;
  cfg.root_subtree_depth = rsd;
  return HierarchicalForest::build(testutil::fig2_forest(), cfg);
}

TEST(Hierarchical, ConfigValidation) {
  const Forest f = testutil::fig2_forest();
  HierConfig cfg;
  cfg.subtree_depth = 0;
  EXPECT_THROW(HierarchicalForest::build(f, cfg), ConfigError);
  cfg.subtree_depth = 25;
  EXPECT_THROW(HierarchicalForest::build(f, cfg), ConfigError);
  cfg.subtree_depth = 4;
  cfg.root_subtree_depth = 30;
  EXPECT_THROW(HierarchicalForest::build(f, cfg), ConfigError);
}

TEST(Hierarchical, Fig3RootSubtreeIsPaddedToComplete) {
  // Fig. 3a: with max subtree depth 3, subtree 0 covers the tree's top
  // three levels {0,1,2,3,4} and gains two padding nodes under leaf 1.
  const HierarchicalForest h = build_fig3();
  EXPECT_EQ(h.subtree_depth(0), 3);
  EXPECT_EQ(h.subtree_node_offset(1) - h.subtree_node_offset(0), complete_tree_nodes(3));
  const HierStats s = h.stats();
  EXPECT_EQ(s.real_nodes, 9u);
  EXPECT_EQ(s.padding_nodes, 2u);  // the two dotted nodes of Fig. 3a
}

TEST(Hierarchical, Fig3RootSubtreeSlots) {
  // Slot layout of subtree 0 (BFS relabeling of Fig. 3a): slot 0 = old 0,
  // slot 1 = old 1 (leaf), slot 2 = old 2, slots 3-4 padding, slot 5 =
  // old 3, slot 6 = old 4.
  const HierarchicalForest h = build_fig3();
  const auto n = h.nodes();
  EXPECT_EQ(n[0].feature, 1);
  EXPECT_FLOAT_EQ(n[0].value, 2.5f);
  EXPECT_EQ(n[1].feature, kLeafFeature);
  EXPECT_FLOAT_EQ(n[1].value, 0.0f);
  EXPECT_EQ(n[2].feature, 4);
  EXPECT_FLOAT_EQ(n[2].value, 0.5f);
  EXPECT_EQ(n[3].feature, kLeafFeature);  // padding
  EXPECT_EQ(n[4].feature, kLeafFeature);  // padding
  EXPECT_EQ(n[5].feature, 8);
  EXPECT_FLOAT_EQ(n[5].value, 5.4f);
  EXPECT_EQ(n[6].feature, 20);
  EXPECT_FLOAT_EQ(n[6].value, 8.8f);
}

TEST(Hierarchical, Fig3SpawnsLeafSubtrees) {
  // The two bottom-level inner nodes (old 3 and old 4) each spawn two
  // single-node subtrees: 5 subtrees total, all validated.
  const HierarchicalForest h = build_fig3();
  EXPECT_EQ(h.num_subtrees(), 5u);
  for (std::size_t st = 1; st < 5; ++st) EXPECT_EQ(h.subtree_depth(st), 1);
  EXPECT_NO_THROW(h.validate());
}

TEST(Hierarchical, Fig3ConnectionsFollowBottomSlots) {
  const HierarchicalForest h = build_fig3();
  const auto conn = h.subtree_connection();
  // Subtree 0 has 4 bottom slots -> 8 entries. Slots 3,4 are padding
  // (-1,-1); slot 5 (old node 3) -> subtrees 1,2; slot 6 (old 4) -> 3,4.
  ASSERT_EQ(h.connection_offset(1) - h.connection_offset(0), 8u);
  EXPECT_EQ(conn[0], -1);
  EXPECT_EQ(conn[1], -1);
  EXPECT_EQ(conn[2], -1);
  EXPECT_EQ(conn[3], -1);
  EXPECT_EQ(conn[4], 1);
  EXPECT_EQ(conn[5], 2);
  EXPECT_EQ(conn[6], 3);
  EXPECT_EQ(conn[7], 4);
}

TEST(Hierarchical, Fig3TraversalWalkthrough) {
  const HierarchicalForest h = build_fig3();
  EXPECT_FLOAT_EQ(h.traverse_tree(0, testutil::fig2_query_class_a()), 0.0f);
  EXPECT_FLOAT_EQ(h.traverse_tree(0, testutil::fig2_query_class_b()), 1.0f);
  EXPECT_EQ(h.classify(testutil::fig2_query_class_a()), 0);
}

TEST(Hierarchical, LargeSubtreeDepthSwallowsWholeTree) {
  // SD >= tree depth: one subtree per tree, no connections at all.
  const HierarchicalForest h = build_fig3(10);
  EXPECT_EQ(h.num_subtrees(), 1u);
  EXPECT_EQ(h.subtree_depth(0), 4);  // truncated to the tree's real depth
  EXPECT_TRUE(h.subtree_connection().empty());
  EXPECT_FLOAT_EQ(h.traverse_tree(0, testutil::fig2_query_class_a()), 0.0f);
}

TEST(Hierarchical, SubtreeDepthOneDegeneratesToPerNodeSubtrees) {
  const HierarchicalForest h = build_fig3(1);
  // Every real node becomes its own subtree; inner nodes carry connections.
  EXPECT_EQ(h.num_subtrees(), 9u);
  EXPECT_EQ(h.stats().padding_nodes, 0u);
  EXPECT_NO_THROW(h.validate());
  EXPECT_FLOAT_EQ(h.traverse_tree(0, testutil::fig2_query_class_b()), 1.0f);
}

TEST(Hierarchical, RootSubtreeDepthAppliesOnlyToFirstSubtree) {
  const HierarchicalForest h = build_fig3(/*sd=*/2, /*rsd=*/3);
  EXPECT_EQ(h.subtree_depth(0), 3);
  for (std::size_t st = 1; st < h.num_subtrees(); ++st) {
    EXPECT_LE(h.subtree_depth(st), 2);
  }
  EXPECT_NO_THROW(h.validate());
  EXPECT_FLOAT_EQ(h.traverse_tree(0, testutil::fig2_query_class_a()), 0.0f);
}

TEST(Hierarchical, EffectiveRootDepthDefaultsToSubtreeDepth) {
  HierConfig cfg;
  cfg.subtree_depth = 6;
  cfg.root_subtree_depth = 0;
  EXPECT_EQ(cfg.effective_root_depth(), 6);
  cfg.root_subtree_depth = 9;
  EXPECT_EQ(cfg.effective_root_depth(), 9);
}

TEST(Hierarchical, SingleLeafTree) {
  std::vector<DecisionTree> trees;
  trees.push_back(DecisionTree({TreeNode{kLeafFeature, 1.0f, -1, -1}}));
  const Forest f(std::move(trees), 2);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  EXPECT_EQ(h.num_subtrees(), 1u);
  EXPECT_EQ(h.subtree_depth(0), 1);
  const std::vector<float> q(2, 0.f);
  EXPECT_EQ(h.classify(q), 1);
}

TEST(Hierarchical, DeepChainTreeBuildsChainOfSubtrees) {
  // A pure spine of depth 17 with SD 4 must produce ceil-ish chain of
  // subtrees and still classify correctly.
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 17;
  spec.branch_prob = 0.0;
  spec.num_features = 3;
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  EXPECT_NO_THROW(h.validate());
  Xoshiro256 rng(5);
  std::vector<float> q(3);
  for (int i = 0; i < 200; ++i) {
    for (auto& v : q) v = rng.uniform_float();
    ASSERT_EQ(h.classify(q), f.classify(q));
  }
}

TEST(Hierarchical, MultiTreeSubtreeRanges) {
  RandomForestSpec spec;
  spec.num_trees = 7;
  spec.max_depth = 9;
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 3;
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  EXPECT_EQ(h.num_trees(), 7u);
  const auto begins = h.tree_subtree_begin();
  ASSERT_EQ(begins.size(), 8u);
  EXPECT_EQ(begins[0], 0u);
  for (std::size_t t = 0; t + 1 < begins.size(); ++t) {
    EXPECT_LT(begins[t], begins[t + 1]);
  }
  EXPECT_EQ(begins[7], h.num_subtrees());
}

TEST(Hierarchical, MemoryBytesGrowWithSubtreeDepth) {
  // Fig. 6's driver: deeper subtrees allocate more padding.
  RandomForestSpec spec;
  spec.num_trees = 10;
  spec.max_depth = 14;
  spec.branch_prob = 0.6;
  const Forest f = make_random_forest(spec);
  std::size_t prev = 0;
  for (int sd : {2, 4, 6, 8}) {
    HierConfig cfg;
    cfg.subtree_depth = sd;
    const auto bytes = HierarchicalForest::build(f, cfg).memory_bytes();
    if (prev != 0) EXPECT_GE(bytes, prev / 2);  // generally grows; never collapses
    prev = bytes;
  }
  // SD 8 must pad far more than SD 2 on sparse depth-14 trees.
  HierConfig small;
  small.subtree_depth = 2;
  HierConfig large;
  large.subtree_depth = 8;
  EXPECT_GT(HierarchicalForest::build(f, large).stats().padding_ratio,
            HierarchicalForest::build(f, small).stats().padding_ratio);
}

TEST(Hierarchical, StatsAreInternallyConsistent) {
  RandomForestSpec spec;
  spec.num_trees = 5;
  spec.max_depth = 10;
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  const HierStats s = h.stats();
  EXPECT_EQ(s.stored_nodes, s.real_nodes + s.padding_nodes);
  EXPECT_EQ(s.real_nodes, f.stats().total_nodes);
  EXPECT_EQ(s.num_subtrees, h.num_subtrees());
  EXPECT_EQ(s.connection_entries, h.subtree_connection().size());
  EXPECT_NEAR(s.padding_ratio,
              static_cast<double>(s.padding_nodes) / static_cast<double>(s.stored_nodes), 1e-12);
}

}  // namespace
}  // namespace hrf
