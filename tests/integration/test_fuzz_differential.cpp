// Differential fuzzing: many random (forest, layout, query) configurations
// must classify identically across every encoding and backend. This is the
// widest net for traversal bugs — any divergence pinpoints the seed.

#include <gtest/gtest.h>

#include "core/hrf.hpp"
#include "cpu/cpu_kernels.hpp"
#include "fpgakernels/fpga_kernels.hpp"
#include "gpukernels/kernels.hpp"
#include "layout/layout_io.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace hrf {
namespace {

gpusim::DeviceConfig small_gpu() {
  auto cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 2;
  return cfg;
}

class DifferentialFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, AllEncodingsAgree) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  RandomForestSpec spec;
  spec.num_trees = 1 + static_cast<int>(rng.bounded(12));
  spec.max_depth = 1 + static_cast<int>(rng.bounded(16));
  spec.branch_prob = rng.uniform(0.2, 1.0);
  spec.num_features = 1 + static_cast<int>(rng.bounded(24));
  spec.num_classes = 2 + static_cast<int>(rng.bounded(6));
  spec.seed = seed * 3 + 1;
  const Forest forest = make_random_forest(spec);
  forest.validate();

  HierConfig cfg;
  cfg.subtree_depth = 1 + static_cast<int>(rng.bounded(9));
  cfg.root_subtree_depth = rng.bernoulli(0.5) ? 0 : 1 + static_cast<int>(rng.bounded(12));
  const HierarchicalForest hier = HierarchicalForest::build(forest, cfg);
  hier.validate();
  const CsrForest csr = CsrForest::build(forest);

  const Dataset queries =
      make_random_queries(1 + rng.bounded(300), spec.num_features, seed * 7 + 5);
  const auto reference = forest.classify_batch(queries.features(), queries.num_samples());

  // Scalar encodings.
  for (std::size_t i = 0; i < queries.num_samples(); ++i) {
    ASSERT_EQ(csr.classify(queries.sample(i)), reference[i]) << "csr seed=" << seed;
    ASSERT_EQ(hier.classify(queries.sample(i)), reference[i]) << "hier seed=" << seed;
  }

  // CPU backends.
  ASSERT_EQ(cpu::classify_csr(csr, queries), reference) << "seed=" << seed;
  ASSERT_EQ(cpu::classify_hierarchical(hier, queries), reference) << "seed=" << seed;
  // A second, small batch of 1..4G rows (G = the interleave group): partial
  // groups, whole groups and tails.
  const Dataset few =
      make_random_queries(1 + rng.bounded(4 * cpu::kInterleaveGroup), spec.num_features,
                          seed * 11 + 3);
  ASSERT_EQ(cpu::classify_hierarchical(hier, few),
            forest.classify_batch(few.features(), few.num_samples()))
      << "rows=" << few.num_samples() << " seed=" << seed;

  // Simulated devices (hybrid only when the root subtree fits smem).
  gpusim::Device d1(small_gpu());
  ASSERT_EQ(gpukernels::run_independent(d1, hier, queries).predictions, reference)
      << "seed=" << seed;
  if (complete_tree_nodes(cfg.effective_root_depth()) * 8 <= 48 * 1024) {
    gpusim::Device d2(small_gpu());
    ASSERT_EQ(gpukernels::run_hybrid(d2, hier, queries).predictions, reference)
        << "seed=" << seed;
  }
  ASSERT_EQ(fpgakernels::run_independent_fpga(hier, queries).predictions, reference)
      << "seed=" << seed;

  // Serialization round-trip.
  const std::string path =
      testing::TempDir() + "/hrf_fuzz_" + std::to_string(seed) + ".hrfh";
  save_hierarchical(hier, path);
  const HierarchicalForest reloaded = load_hierarchical(path);
  for (std::size_t i = 0; i < std::min<std::size_t>(queries.num_samples(), 50); ++i) {
    ASSERT_EQ(reloaded.classify(queries.sample(i)), reference[i]) << "io seed=" << seed;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace hrf
