#include "fpgakernels/fpga_kernels.hpp"

#include <gtest/gtest.h>

#include "../common/paper_example.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "fpgakernels/traversal_counts.hpp"
#include "util/error.hpp"

namespace hrf::fpgakernels {
namespace {

struct Fixture {
  Forest forest;
  CsrForest csr;
  HierarchicalForest hier;
  Dataset queries;
  std::vector<std::uint8_t> reference;

  Fixture(const RandomForestSpec& spec, int sd, std::size_t nq, int rsd = 0)
      : forest(make_random_forest(spec)),
        csr(CsrForest::build(forest)),
        hier(HierarchicalForest::build(forest,
                                       HierConfig{.subtree_depth = sd, .root_subtree_depth = rsd})),
        queries(make_random_queries(nq, spec.num_features, spec.seed + 1)),
        reference(forest.classify_batch(queries.features(), queries.num_samples())) {}
};

void expect_exact(const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << "query " << i;
}

TEST(TraversalCounts, CountsAreExactOnCompleteTrees) {
  // Complete depth-d trees: every (query, tree) pair visits exactly d
  // nodes; with SD below d there is exactly one hop per boundary.
  RandomForestSpec spec;
  spec.num_trees = 3;
  spec.max_depth = 7;
  spec.branch_prob = 1.0;
  const Fixture fx(spec, 4, 100);
  const TraversalCounts c = count_traversal(fx.hier, fx.queries);
  EXPECT_EQ(c.leaf_visits, 300u);
  EXPECT_EQ(c.node_visits, 300u * 7);
  EXPECT_EQ(c.root_subtree_visits, 300u * 4);
  EXPECT_EQ(c.subtree_hops, 300u);  // depth 7 = root(4) + one hop + (3)
  expect_exact(c.predictions, fx.reference);
}

TEST(TraversalCounts, RootDepthSplitsStageWork) {
  RandomForestSpec spec;
  spec.num_trees = 2;
  spec.max_depth = 10;
  spec.branch_prob = 1.0;
  const Fixture fx(spec, 4, 50, /*rsd=*/8);
  const TraversalCounts c = count_traversal(fx.hier, fx.queries);
  EXPECT_EQ(c.root_subtree_visits, 100u * 8);
  EXPECT_EQ(c.node_visits, 100u * 10);
}

TEST(FpgaKernels, AllVariantsMatchReference) {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 11;
  spec.branch_prob = 0.7;
  spec.num_features = 8;
  const Fixture fx(spec, 5, 400);
  expect_exact(run_csr_fpga(fx.csr, fx.queries).predictions, fx.reference);
  expect_exact(run_independent_fpga(fx.hier, fx.queries).predictions, fx.reference);
  expect_exact(run_collaborative_fpga(fx.hier, fx.queries).predictions, fx.reference);
  expect_exact(run_hybrid_fpga(fx.hier, fx.queries).predictions, fx.reference);
}

TEST(FpgaKernels, IiDescriptionsMatchTable3) {
  RandomForestSpec spec;
  spec.num_trees = 2;
  spec.max_depth = 6;
  const Fixture fx(spec, 3, 64);
  EXPECT_EQ(run_csr_fpga(fx.csr, fx.queries).report.ii_desc, "292");
  EXPECT_EQ(run_independent_fpga(fx.hier, fx.queries).report.ii_desc, "76");
  EXPECT_EQ(run_independent_fpga(fx.hier, fx.queries, fpgasim::FpgaConfig::alveo_u250(), {},
                                 /*buffer_queries=*/false)
                .report.ii_desc,
            "147");
  EXPECT_EQ(run_collaborative_fpga(fx.hier, fx.queries).report.ii_desc, "3");
  EXPECT_EQ(run_hybrid_fpga(fx.hier, fx.queries).report.ii_desc, "3/76");
}

TEST(FpgaKernels, QueryBufferingHalvesIndependentTime) {
  // §3.2.2: buffering query features in BRAM improves the II from 147 to
  // 76; the pipeline-bound runtime scales accordingly.
  RandomForestSpec spec;
  spec.num_trees = 4;
  spec.max_depth = 9;
  const Fixture fx(spec, 4, 512);
  const auto buffered = run_independent_fpga(fx.hier, fx.queries);
  const auto unbuffered = run_independent_fpga(fx.hier, fx.queries,
                                               fpgasim::FpgaConfig::alveo_u250(), {}, false);
  EXPECT_NEAR(unbuffered.report.seconds / buffered.report.seconds, 147.0 / 76.0, 0.1);
}

TEST(FpgaKernels, Table3OrderingSingleCu) {
  // The paper's Table 3 single-CU ordering on a (scaled-down) synthetic
  // workload: hybrid < independent < CSR << collaborative.
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = 13;
  spec.branch_prob = 1.0;
  spec.num_features = 20;
  const Fixture fx(spec, 10, 2000);
  const double csr = run_csr_fpga(fx.csr, fx.queries).report.seconds;
  const double ind = run_independent_fpga(fx.hier, fx.queries).report.seconds;
  const double hyb = run_hybrid_fpga(fx.hier, fx.queries).report.seconds;
  const double col = run_collaborative_fpga(fx.hier, fx.queries).report.seconds;
  EXPECT_LT(hyb, ind);
  EXPECT_LT(ind, csr);
  EXPECT_GT(col, csr);
  // Magnitudes: independent ~3-4x over CSR, hybrid better still.
  EXPECT_GT(csr / ind, 2.0);
  EXPECT_LT(csr / ind, 6.0);
}

TEST(FpgaKernels, ReplicationScalesIndependentBest) {
  // §4.4: with 4 SLRs x 12 CUs the independent kernel is the most
  // scalable; replicated hybrid falls behind it.
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = 13;
  spec.branch_prob = 1.0;
  spec.num_features = 20;
  const Fixture fx(spec, 10, 2000);
  const fpgasim::CuLayout rep{4, 12, 300.0};
  const auto ind1 = run_independent_fpga(fx.hier, fx.queries);
  const auto ind48 = run_independent_fpga(fx.hier, fx.queries,
                                          fpgasim::FpgaConfig::alveo_u250(), rep);
  const auto hyb48 =
      run_hybrid_fpga(fx.hier, fx.queries, fpgasim::FpgaConfig::alveo_u250(), rep);
  EXPECT_GT(ind1.report.seconds / ind48.report.seconds, 20.0);  // strong scaling
  EXPECT_LT(ind48.report.seconds, hyb48.report.seconds);        // indep wins replicated
  EXPECT_GT(hyb48.report.stall_pct, 50.0);  // the paper's stage-1 stalling
}

TEST(FpgaKernels, SplitHybridUsesLowerClockAndSoloStage1) {
  RandomForestSpec spec;
  spec.num_trees = 4;
  spec.max_depth = 11;
  spec.branch_prob = 1.0;
  spec.num_features = 12;
  const Fixture fx(spec, 8, 1000);
  const fpgasim::CuLayout split{4, 10, 245.0};
  const auto r = run_hybrid_fpga(fx.hier, fx.queries, fpgasim::FpgaConfig::alveo_u250(), split,
                                 /*split_stage1=*/true);
  EXPECT_DOUBLE_EQ(r.report.clock_mhz, 245.0);
  expect_exact(r.predictions, fx.reference);
}

TEST(FpgaKernels, HybridRejectsRootSubtreeBeyondBram) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 22;
  spec.branch_prob = 0.0;  // thin spine: cheap to build
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  cfg.root_subtree_depth = 22;  // (2^22 - 1) * 8 B = 33.5 MB > 13.5 MB
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  const Dataset q = make_random_queries(16, spec.num_features);
  EXPECT_THROW(run_hybrid_fpga(h, q), ResourceError);
}

TEST(FpgaKernels, CollaborativeRejectsOversizedSubtreeBuffers) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 22;
  spec.branch_prob = 0.0;
  const Forest f = make_random_forest(spec);
  const Dataset q = make_random_queries(16, spec.num_features);
  // One subtree of depth 21 would need 16.8 MB of BRAM, whether it is
  // every subtree (SD 21) or only the root subtree (RSD 21).
  for (const HierConfig cfg : {HierConfig{.subtree_depth = 21},
                               HierConfig{.subtree_depth = 4, .root_subtree_depth = 21}}) {
    SCOPED_TRACE(cfg.subtree_depth);
    const HierarchicalForest h = HierarchicalForest::build(f, cfg);
    EXPECT_THROW(run_collaborative_fpga(h, q), ResourceError);
  }
}

TEST(FpgaKernels, DeeperSubtreesReduceIndependentTime) {
  // Fig. 9's trend: larger SD -> fewer hops -> fewer iterations.
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 12;
  spec.branch_prob = 0.8;
  spec.num_features = 10;
  const Forest f = make_random_forest(spec);
  const Dataset q = make_random_queries(800, 10);
  double prev = 1e30;
  for (int sd : {2, 4, 8}) {
    HierConfig cfg;
    cfg.subtree_depth = sd;
    const auto h = HierarchicalForest::build(f, cfg);
    const double t = run_independent_fpga(h, q).report.seconds;
    EXPECT_LT(t, prev) << "SD " << sd;
    prev = t;
  }
}

TEST(FpgaKernels, Fig2Walkthrough) {
  const Forest f = testutil::fig2_forest();
  Dataset q(2, testutil::kFig2Features);
  q.push_back(testutil::fig2_query_class_a(), 0);
  q.push_back(testutil::fig2_query_class_b(), 1);
  HierConfig cfg;
  cfg.subtree_depth = 3;
  const auto h = HierarchicalForest::build(f, cfg);
  const auto r = run_hybrid_fpga(h, q);
  EXPECT_EQ(r.predictions[0], 0);
  EXPECT_EQ(r.predictions[1], 1);
}

}  // namespace
}  // namespace hrf::fpgakernels
