#include "gpukernels/ablation_kernels.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/hierarchical.hpp"
#include "util/error.hpp"

namespace hrf::gpukernels {
namespace {

gpusim::DeviceConfig small_gpu() {
  auto cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 4;
  return cfg;
}

struct Fixture {
  Forest forest;
  HierarchicalForest hier;
  Dataset queries;
  std::vector<std::uint8_t> reference;

  Fixture()
      : forest(make_random_forest({.num_trees = 8,
                                   .max_depth = 10,
                                   .branch_prob = 0.7,
                                   .num_features = 9,
                                   .seed = 71})),
        hier(HierarchicalForest::build(forest, HierConfig{.subtree_depth = 4})),
        queries(make_random_queries(500, 9, 72)),
        reference(forest.classify_batch(queries.features(), queries.num_samples())) {}
};

TEST(TreePerBlock, MatchesReferencePredictions) {
  const Fixture fx;
  gpusim::Device d(small_gpu());
  const auto r = run_tree_per_block(d, fx.hier, fx.queries);
  EXPECT_EQ(r.predictions, fx.reference);
}

TEST(TreePerBlock, IssuesVoteAtomics) {
  const Fixture fx;
  gpusim::Device d(small_gpu());
  const auto r = run_tree_per_block(d, fx.hier, fx.queries);
  // One atomic per (query, tree) leaf arrival, coalesced into lines.
  EXPECT_GT(r.counters.atomic_transactions, 0u);
  EXPECT_GT(r.timing.atomic_cycles, 0.0);
}

TEST(TreePerBlock, SlowerThanIndependentPerThePaper) {
  // §3.2.1 Optimization 2 "resulted in significant slowdown".
  const Fixture fx;
  gpusim::Device d1(small_gpu());
  const auto ind = run_independent(d1, fx.hier, fx.queries);
  gpusim::Device d2(small_gpu());
  const auto tpb = run_tree_per_block(d2, fx.hier, fx.queries);
  EXPECT_GT(tpb.timing.seconds, ind.timing.seconds);
}

TEST(PresortQueries, ReturnsAPermutation) {
  const Dataset q = make_random_queries(300, 5, 3);
  const auto order = presort_queries(q);
  ASSERT_EQ(order.size(), 300u);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 300u);
}

TEST(PresortQueries, SortsByLeadingFeatureBins) {
  const Dataset q = make_random_queries(1000, 4, 5);
  const auto order = presort_queries(q, 16);
  // The first feature's binned code must be non-decreasing along the order.
  float lo = q.sample(0)[0], hi = q.sample(0)[0];
  for (std::size_t i = 1; i < 1000; ++i) {
    lo = std::min(lo, q.sample(i)[0]);
    hi = std::max(hi, q.sample(i)[0]);
  }
  int prev = -1;
  for (std::uint32_t i : order) {
    const int code = std::min(static_cast<int>((q.sample(i)[0] - lo) / (hi - lo) * 16), 15);
    ASSERT_GE(code, prev);
    prev = code;
  }
}

TEST(PresortQueries, ValidatesBins) {
  const Dataset q = make_random_queries(10, 2, 1);
  EXPECT_THROW(presort_queries(q, 1), ConfigError);
  EXPECT_THROW(presort_queries(q, 300), ConfigError);
}

TEST(PermuteQueries, ReordersRows) {
  const float rows[3] = {0.f, 1.f, 2.f};
  const std::vector<std::uint32_t> order{2, 0, 1};
  const Dataset p = permute_queries(QueryView(rows, 3, 1), order);
  EXPECT_FLOAT_EQ(p.sample(0)[0], 2.f);
  EXPECT_FLOAT_EQ(p.sample(1)[0], 0.f);
  EXPECT_FLOAT_EQ(p.sample(2)[0], 1.f);
}

TEST(PermuteQueries, ValidatesSize) {
  const Dataset q = make_random_queries(5, 2, 1);
  const std::vector<std::uint32_t> wrong{0, 1};
  EXPECT_THROW(permute_queries(q, wrong), ConfigError);
}

TEST(PresortQueries, PredictionsUnchangedUpToPermutation) {
  const Fixture fx;
  const auto order = presort_queries(fx.queries);
  const Dataset sorted = permute_queries(fx.queries, order);
  gpusim::Device d(small_gpu());
  const auto r = run_independent(d, fx.hier, sorted);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(r.predictions[i], fx.reference[order[i]]);
  }
}

TEST(PresortQueries, ImprovesOrKeepsBranchEfficiency) {
  const Fixture fx;
  gpusim::Device d1(small_gpu());
  const auto plain = run_independent(d1, fx.hier, fx.queries);
  gpusim::Device d2(small_gpu());
  const auto sorted =
      run_independent(d2, fx.hier, permute_queries(fx.queries, presort_queries(fx.queries)));
  EXPECT_GE(sorted.counters.branch_efficiency() + 1e-9, plain.counters.branch_efficiency());
}

}  // namespace
}  // namespace hrf::gpukernels
