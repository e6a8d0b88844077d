#include "gpukernels/kernels.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "../common/affinity.hpp"
#include "../common/paper_example.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "gpukernels/ablation_kernels.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"
#include "util/error.hpp"

namespace hrf::gpukernels {
namespace {

gpusim::DeviceConfig small_gpu() {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 4;
  return cfg;
}

struct Fixture {
  Forest forest;
  CsrForest csr;
  HierarchicalForest hier;
  Dataset queries;
  std::vector<std::uint8_t> reference;

  Fixture(const RandomForestSpec& spec, int sd, int rsd, std::size_t nq)
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

class KernelEquivalence : public testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(KernelEquivalence, AllKernelsMatchReference) {
  const auto [depth, sd, branch_prob] = GetParam();
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = depth;
  spec.branch_prob = branch_prob;
  spec.num_features = 9;
  spec.seed = static_cast<std::uint64_t>(depth * 100 + sd);
  const Fixture fx(spec, sd, 0, 700);

  {
    gpusim::Device d(small_gpu());
    expect_exact(run_csr(d, fx.csr, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_independent(d, fx.hier, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_hybrid(d, fx.hier, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_collaborative(d, fx.hier, fx.queries).predictions, fx.reference);
  }
  {
    gpusim::Device d(small_gpu());
    expect_exact(run_fil_baseline(d, fx.forest, DeviceImage(fx.forest), fx.queries).predictions,
                 fx.reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelEquivalence,
                         testing::Combine(testing::Values(4, 9, 14),   // tree depth
                                          testing::Values(3, 6, 8),    // SD
                                          testing::Values(0.5, 0.9)),  // sparsity
                         [](const auto& info) {
                           return "d" + std::to_string(std::get<0>(info.param)) + "sd" +
                                  std::to_string(std::get<1>(info.param)) + "p" +
                                  std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
                         });

TEST(GpuKernels, ImageOfAnotherLayoutIsRejected) {
  RandomForestSpec spec;
  spec.num_trees = 3;
  spec.max_depth = 8;
  spec.branch_prob = 0.9;
  const Fixture fx(spec, 4, 0, 32);
  RandomForestSpec bigger = spec;
  bigger.num_trees = 5;
  const Forest other = make_random_forest(bigger);
  const DeviceImage fil_image(other);
  gpusim::Device d(small_gpu());
  EXPECT_THROW(run_fil_baseline(d, fx.forest, fil_image, fx.queries), ConfigError);
}

TEST(GpuKernels, QueryCountNotMultipleOfBlockSize) {
  RandomForestSpec spec;
  spec.num_trees = 3;
  spec.max_depth = 6;
  const Fixture fx(spec, 4, 0, 257);  // 256-thread blocks + 1 stray lane
  gpusim::Device d(small_gpu());
  expect_exact(run_csr(d, fx.csr, fx.queries).predictions, fx.reference);
  gpusim::Device d2(small_gpu());
  expect_exact(run_hybrid(d2, fx.hier, fx.queries).predictions, fx.reference);
}

TEST(GpuKernels, RejectsMismatchedQueryWidth) {
  RandomForestSpec spec;
  spec.num_trees = 2;
  spec.max_depth = 4;
  const Fixture fx(spec, 4, 0, 32);
  const Dataset wrong = make_random_queries(32, spec.num_features + 3);
  gpusim::Device d(small_gpu());
  EXPECT_THROW(run_csr(d, fx.csr, wrong), ConfigError);
  EXPECT_THROW(run_independent(d, fx.hier, wrong), ConfigError);
  EXPECT_THROW(run_hybrid(d, fx.hier, wrong), ConfigError);
  EXPECT_THROW(run_fil_baseline(d, fx.forest, DeviceImage(fx.forest), wrong), ConfigError);
}

TEST(GpuKernels, HybridRejectsRootSubtreeBiggerThanSharedMemory) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 16;
  spec.branch_prob = 1.0;  // complete tree so RSD 14 exists
  const Forest f = make_random_forest(spec);
  HierConfig cfg;
  cfg.subtree_depth = 4;
  cfg.root_subtree_depth = 14;  // (2^14 - 1) * 8 B = 131 KB > 48 KB
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  const Dataset q = make_random_queries(32, spec.num_features);
  gpusim::Device d(small_gpu());
  EXPECT_THROW(run_hybrid(d, h, q), ResourceError);
}

TEST(GpuKernels, CollaborativeRejectsSubtreesBiggerThanSharedMemory) {
  // 48 KB of shared memory batch 6,144 packed nodes. The largest subtree
  // the kernel stages has 2^13 - 1 = 8,191, as the root subtree (RSD 13)
  // or as every subtree (SD 13); it must fail to launch, not spin on an
  // empty batch.
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 14;
  spec.branch_prob = 1.0;  // complete tree so depth-13 subtrees exist
  const Forest f = make_random_forest(spec);
  const Dataset q = make_random_queries(32, spec.num_features);
  for (const HierConfig cfg : {HierConfig{.subtree_depth = 8, .root_subtree_depth = 13},
                               HierConfig{.subtree_depth = 13}}) {
    SCOPED_TRACE(cfg.subtree_depth);
    const HierarchicalForest h = HierarchicalForest::build(f, cfg);
    gpusim::Device d(small_gpu());
    EXPECT_THROW(run_collaborative(d, h, q), ResourceError);
  }
}

TEST(GpuKernels, RsdTwelveIsTheSharedMemoryLimit) {
  // Table 2 stops at RSD 12 because (2^12 - 1) * 8 B = 32 KB fits in the
  // 48 KB shared memory while RSD 13 (64 KB) does not.
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 14;
  spec.branch_prob = 1.0;
  const Forest f = make_random_forest(spec);
  const Dataset q = make_random_queries(64, spec.num_features);
  {
    HierConfig cfg;
    cfg.subtree_depth = 8;
    cfg.root_subtree_depth = 12;
    gpusim::Device d(small_gpu());
    EXPECT_NO_THROW(run_hybrid(d, HierarchicalForest::build(f, cfg), q));
  }
  {
    HierConfig cfg;
    cfg.subtree_depth = 8;
    cfg.root_subtree_depth = 13;
    gpusim::Device d(small_gpu());
    EXPECT_THROW(run_hybrid(d, HierarchicalForest::build(f, cfg), q), ResourceError);
  }
}

TEST(GpuKernels, Fig2ForestWalkthrough) {
  const Forest f = testutil::fig2_forest();
  Dataset q(2, testutil::kFig2Features);
  q.push_back(testutil::fig2_query_class_a(), 0);
  q.push_back(testutil::fig2_query_class_b(), 1);
  const CsrForest csr = CsrForest::build(f);
  gpusim::Device d(small_gpu());
  const auto r = run_csr(d, csr, q);
  EXPECT_EQ(r.predictions[0], 0);
  EXPECT_EQ(r.predictions[1], 1);
}

TEST(GpuKernels, CountersShapeMatchesPaperFindings) {
  // The relationships behind Fig. 7/8: the hierarchical variants issue
  // fewer global load requests than CSR; the hybrid offloads node reads
  // to shared memory and has at least the independent's branch
  // efficiency; CSR does strictly more transactions per query step.
  RandomForestSpec spec;
  spec.num_trees = 10;
  spec.max_depth = 12;
  spec.branch_prob = 0.75;
  spec.num_features = 12;
  const Fixture fx(spec, 6, 0, 2048);

  gpusim::Device d_csr(small_gpu());
  const auto csr = run_csr(d_csr, fx.csr, fx.queries);
  gpusim::Device d_ind(small_gpu());
  const auto ind = run_independent(d_ind, fx.hier, fx.queries);
  gpusim::Device d_hyb(small_gpu());
  const auto hyb = run_hybrid(d_hyb, fx.hier, fx.queries);

  EXPECT_LT(ind.counters.gld_requests, csr.counters.gld_requests);
  EXPECT_LT(hyb.counters.gld_requests, ind.counters.gld_requests);
  EXPECT_GT(hyb.counters.smem_loads, 0u);
  EXPECT_EQ(ind.counters.smem_loads, 0u);
  EXPECT_GE(hyb.counters.branch_efficiency(), ind.counters.branch_efficiency());
  // And the headline: the hierarchical variants are simulated-faster.
  EXPECT_LT(ind.timing.seconds, csr.timing.seconds);
  EXPECT_LT(hyb.timing.seconds, csr.timing.seconds);
}

TEST(GpuKernels, CollaborativeIsSlowerThanIndependent) {
  // §3.2.1: the collaborative GPU kernel is 10-20x slower than the
  // independent one; at minimum the model must order them correctly.
  RandomForestSpec spec;
  spec.num_trees = 4;
  spec.max_depth = 10;
  spec.branch_prob = 0.8;
  const Fixture fx(spec, 4, 0, 1024);
  gpusim::Device d_ind(small_gpu());
  const auto ind = run_independent(d_ind, fx.hier, fx.queries);
  gpusim::Device d_col(small_gpu());
  const auto col = run_collaborative(d_col, fx.hier, fx.queries);
  EXPECT_GT(col.timing.seconds, 2.0 * ind.timing.seconds);
}

TEST(GpuKernels, SingleQuerySingleTree) {
  RandomForestSpec spec;
  spec.num_trees = 1;
  spec.max_depth = 3;
  const Fixture fx(spec, 2, 0, 1);
  gpusim::Device d(small_gpu());
  expect_exact(run_independent(d, fx.hier, fx.queries).predictions, fx.reference);
}

// Every kernel launched twice on one TITAN Xp device, at row counts from
// one lane to 31 blocks (SM 0 then runs blocks 0 and 30), once per width
// of the calling thread's affinity mask: 1 CPU (the blocks run on the
// caller), 2 CPUs and all of them. Predictions, counters and timing must
// be identical at every width. The 24 KB L2 evicts between blocks, so
// the order misses reach it decides its hits.
class SimThreadsDeterminism : public testing::TestWithParam<std::size_t> {};

TEST_P(SimThreadsDeterminism, EveryWidthGivesTheSameResults) {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 12;
  spec.branch_prob = 0.75;
  spec.num_features = 9;
  spec.num_classes = 3;
  spec.seed = 2026;
  static const Fixture fx(spec, 4, 6, 7681);
  static const DeviceImage fil_image(fx.forest);
  const std::size_t rows = GetParam();
  const QueryView queries = QueryView(fx.queries).rows(0, rows);

  const auto launch = [&](const std::string& kernel, gpusim::Device& d) {
    if (kernel == "csr") return run_csr(d, fx.csr, queries);
    if (kernel == "independent") return run_independent(d, fx.hier, queries);
    if (kernel == "collaborative") return run_collaborative(d, fx.hier, queries);
    if (kernel == "fil") return run_fil_baseline(d, fx.forest, fil_image, queries);
    return run_hybrid(d, fx.hier, queries);
  };
  const std::size_t all_cpus = testing_affinity::allowed_cpus().size();
  for (const std::size_t l2_bytes : {std::size_t{3} << 20, std::size_t{24} << 10}) {
    for (const char* kernel : {"csr", "independent", "collaborative", "hybrid", "fil"}) {
      SCOPED_TRACE(std::string(kernel) + ", L2 " + std::to_string(l2_bytes) + " B");
      std::vector<KernelResult> want;  // launches 1 and 2 on one CPU
      for (const std::size_t width : {std::size_t{1}, std::size_t{2}, all_cpus}) {
        if (width > all_cpus) continue;
        SCOPED_TRACE("width " + std::to_string(width));
        const testing_affinity::ScopedAffinity narrow(width);
        gpusim::DeviceConfig cfg = gpusim::DeviceConfig::titan_xp();
        cfg.l2_bytes = l2_bytes;
        gpusim::Device d(cfg);
        for (int n = 0; n < 2; ++n) {
          KernelResult got = launch(kernel, d);
          if (width == 1) {
            expect_exact(got.predictions, {fx.reference.begin(),
                                           fx.reference.begin() + static_cast<long>(rows)});
            want.push_back(std::move(got));
            continue;
          }
          EXPECT_EQ(got.predictions, want[static_cast<std::size_t>(n)].predictions);
          EXPECT_EQ(got.counters, want[static_cast<std::size_t>(n)].counters);
          EXPECT_EQ(got.timing, want[static_cast<std::size_t>(n)].timing);
        }
      }
    }
  }
  if (all_cpus < 2) GTEST_SKIP() << "one CPU: only the 1-CPU width ran";
}

INSTANTIATE_TEST_SUITE_P(Rows, SimThreadsDeterminism,
                         testing::Values(1, 31, 256, 257, 1000, 7681),
                         [](const auto& info) { return "r" + std::to_string(info.param); });

}  // namespace
}  // namespace hrf::gpukernels
