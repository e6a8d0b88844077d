#include "cpu/cpu_kernels.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <limits>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/error.hpp"

namespace hrf::cpu {
namespace {

constexpr std::size_t G = kInterleaveGroup;

constexpr RandomForestSpec kSpec{.num_trees = 10,
                                 .max_depth = 11,
                                 .branch_prob = 0.7,
                                 .num_features = 9,
                                 .seed = 21};

Dataset queries_for(const RandomForestSpec& spec, std::size_t nq) {
  if (nq == 0) return Dataset(0, static_cast<std::size_t>(spec.num_features));
  return make_random_queries(nq, spec.num_features, 22);
}

struct Fixture {
  Forest forest;
  CsrForest csr;
  HierarchicalForest hier;
  Dataset queries;
  std::vector<std::uint8_t> reference;

  explicit Fixture(std::size_t nq = 500, const RandomForestSpec& spec = kSpec,
                   HierConfig cfg = HierConfig{.subtree_depth = 5})
      : forest(make_random_forest(spec)),
        csr(CsrForest::build(forest)),
        hier(HierarchicalForest::build(forest, cfg)),
        queries(queries_for(spec, nq)),
        reference(forest.classify_batch(queries.features(), queries.num_samples())) {}
};

TEST(CpuKernels, CsrMatchesReference) {
  const Fixture fx;
  EXPECT_EQ(classify_csr(fx.csr, fx.queries), fx.reference);
}

TEST(CpuKernels, HierarchicalMatchesReference) {
  const Fixture fx;
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference);
}

// The kernel is the blocked walk: trees outer over groups of G rows. It
// must agree with the layout's own row-at-a-time walk as well as with the
// independent oracle.
TEST(CpuKernels, BlockedMatchesReference) {
  const Fixture fx;
  std::vector<std::uint8_t> row_at_a_time(fx.queries.num_samples());
  for (std::size_t i = 0; i < row_at_a_time.size(); ++i) {
    row_at_a_time[i] = fx.hier.classify(fx.queries.sample(i));
  }
  EXPECT_EQ(row_at_a_time, fx.reference);
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), row_at_a_time);
}

// Row counts around the interleave group: a partial group only, exactly
// one group, one spare row, and two groups plus a tail.
TEST(CpuKernels, HierarchicalRowCountsAroundTheGroup) {
  for (const std::size_t nq : {G - 1, G, G + 1, 2 * G + 3}) {
    const Fixture fx(nq);
    EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference) << "nq=" << nq;
  }
}

TEST(CpuKernels, HierarchicalLargeRowCounts) {
  for (const std::size_t nq : {333, 4097}) {
    const Fixture fx(nq);
    EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference) << "nq=" << nq;
  }
}

TEST(CpuKernels, HierarchicalHandlesEmptyAndSingleRowBatches) {
  const Fixture none(0);
  EXPECT_TRUE(classify_hierarchical(none.hier, none.queries).empty());
  const Fixture one(1);
  EXPECT_EQ(classify_hierarchical(one.hier, one.queries), one.reference);
}

TEST(CpuKernels, HierarchicalMultiClassForest) {
  RandomForestSpec spec = kSpec;
  spec.num_classes = 7;
  spec.num_trees = 12;
  const Fixture fx(2 * G + 3, spec);
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference);
}

// SD = 1: every subtree is a single node, so every inner node is a hop.
TEST(CpuKernels, HierarchicalEveryInnerNodeIsASubtreeHop) {
  const Fixture fx(2 * G + 3, kSpec, HierConfig{.subtree_depth = 1});
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference);
}

TEST(CpuKernels, HierarchicalRootDepthDiffersFromSubtreeDepth) {
  for (const HierConfig cfg : {HierConfig{.subtree_depth = 3, .root_subtree_depth = 8},
                               HierConfig{.subtree_depth = 6, .root_subtree_depth = 2}}) {
    const Fixture fx(333, kSpec, cfg);
    EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference)
        << "SD=" << cfg.subtree_depth << " RSD=" << cfg.root_subtree_depth;
  }
}

// Every tree is a single leaf: each row's first node load is its vote.
TEST(CpuKernels, HierarchicalSingleLeafTrees) {
  RandomForestSpec spec = kSpec;
  spec.max_depth = 1;
  spec.num_classes = 3;
  const Fixture fx(G + 1, spec);
  ASSERT_EQ(fx.forest.stats().total_nodes, fx.forest.tree_count());
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference);
}

// A NaN feature fails every `x < v`, so the oracle sends it right; the
// kernel's `!(x < v)` must too (`x >= v` would send it left).
TEST(CpuKernels, HierarchicalSendsNanFeaturesRight) {
  Fixture fx(2 * G + 3);
  for (std::size_t i = 0; i < fx.queries.num_samples(); i += 2) {
    fx.queries.sample(i)[i % 9] = std::numeric_limits<float>::quiet_NaN();
  }
  const std::vector<std::uint8_t> reference =
      fx.forest.classify_batch(fx.queries.features(), fx.queries.num_samples());
  EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), reference);
}

// One tree: every row's prediction is its single vote, so no majority can
// hide a lane that walked the wrong node. Row counts leave lanes to
// swap-remove at the tail of each tree.
TEST(CpuKernels, HierarchicalSingleTreeVoteIsThePrediction) {
  RandomForestSpec spec = kSpec;
  spec.num_trees = 1;
  spec.num_classes = 5;
  for (const std::size_t nq : {G - 1, G + 1, 2 * G + 3, std::size_t{333}}) {
    const Fixture fx(nq, spec, HierConfig{.subtree_depth = 3});
    EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference) << "nq=" << nq;
  }
}

// Four threads split the rows into four contiguous ranges; with 5 rows
// some ranges hold one row or none, far fewer than a group.
TEST(CpuKernels, HierarchicalSplitsRowsAcrossThreads) {
  RandomForestSpec one_tree = kSpec;
  one_tree.num_trees = 1;
  one_tree.num_classes = 5;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  for (const RandomForestSpec& spec : {kSpec, one_tree}) {
    for (const std::size_t nq : {5, 10'000}) {
      const Fixture fx(nq, spec);
      EXPECT_EQ(classify_hierarchical(fx.hier, fx.queries), fx.reference)
          << "nq=" << nq << " trees=" << spec.num_trees;
    }
  }
  omp_set_num_threads(saved);
}

TEST(CpuKernels, RejectsMismatchedWidth) {
  const Fixture fx(8);
  const Dataset wrong = make_random_queries(8, 5);
  EXPECT_THROW(classify_csr(fx.csr, wrong), ConfigError);
  EXPECT_THROW(classify_hierarchical(fx.hier, wrong), ConfigError);
}

}  // namespace
}  // namespace hrf::cpu
