#include "core/classifier.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "gpukernels/kernels.hpp"
#include "util/error.hpp"

namespace hrf {
namespace {

Forest small_forest() {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 9;
  spec.num_features = 7;
  spec.seed = 33;
  return make_random_forest(spec);
}

gpusim::DeviceConfig small_gpu() {
  auto cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 4;
  return cfg;
}

class BackendVariantMatrix
    : public testing::TestWithParam<std::tuple<Backend, Variant>> {};

TEST_P(BackendVariantMatrix, ValidCombosMatchReferencePredictions) {
  const auto [backend, variant] = GetParam();
  const Forest f = small_forest();
  const Dataset q = make_random_queries(300, 7, 5);
  const auto reference = f.classify_batch(q.features(), q.num_samples());

  ClassifierOptions opt;
  opt.backend = backend;
  opt.variant = variant;
  opt.layout.subtree_depth = 4;
  opt.gpu = small_gpu();
  const Classifier clf(small_forest(), opt);
  const RunReport r = clf.classify(q);
  ASSERT_EQ(r.predictions.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) ASSERT_EQ(r.predictions[i], reference[i]);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.simulated, backend != Backend::CpuNative);
  EXPECT_EQ(r.gpu_counters.has_value(), backend == Backend::GpuSim);
  EXPECT_EQ(r.fpga_report.has_value(), backend == Backend::FpgaSim);
}

// A row range of a larger matrix classifies exactly like a copy of those
// rows: the kernels read only the view's rows, and on gpu-sim the query
// matrix lands at the same modeled device addresses, so counters and
// timing are bit-identical too.
TEST_P(BackendVariantMatrix, RowRangeViewsMatchCopiedRows) {
  const auto [backend, variant] = GetParam();
  const Dataset q = make_random_queries(300, 7, 12);
  ClassifierOptions opt;
  opt.backend = backend;
  opt.variant = variant;
  opt.layout.subtree_depth = 4;
  opt.gpu = small_gpu();
  const Classifier clf(small_forest(), opt);
  for (const auto [lo, hi] : {std::pair<std::size_t, std::size_t>{37, 101}, {150, 151},
                              {299, 300}, {200, 300}}) {
    SCOPED_TRACE("rows [" + std::to_string(lo) + ", " + std::to_string(hi) + ")");
    Dataset copy(hi - lo, q.num_features(), q.num_classes());
    for (std::size_t i = lo; i < hi; ++i) copy.push_back(q.sample(i), q.label(i));
    const RunReport viewed = clf.classify(QueryView(q).rows(lo, hi));
    const RunReport copied = clf.classify(copy);
    EXPECT_EQ(viewed.predictions, copied.predictions);
    ASSERT_EQ(viewed.predictions.size(), hi - lo);
    if (backend == Backend::CpuNative) continue;
    EXPECT_EQ(viewed.seconds, copied.seconds);
    EXPECT_EQ(viewed.gpu_counters, copied.gpu_counters);
    EXPECT_EQ(viewed.gpu_timing, copied.gpu_timing);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ValidCombos, BackendVariantMatrix,
    testing::Values(std::tuple{Backend::CpuNative, Variant::Csr},
                    std::tuple{Backend::CpuNative, Variant::Independent},
                    std::tuple{Backend::GpuSim, Variant::Csr},
                    std::tuple{Backend::GpuSim, Variant::Independent},
                    std::tuple{Backend::GpuSim, Variant::Collaborative},
                    std::tuple{Backend::GpuSim, Variant::Hybrid},
                    std::tuple{Backend::GpuSim, Variant::FilBaseline},
                    std::tuple{Backend::FpgaSim, Variant::Csr},
                    std::tuple{Backend::FpgaSim, Variant::Independent},
                    std::tuple{Backend::FpgaSim, Variant::Collaborative},
                    std::tuple{Backend::FpgaSim, Variant::Hybrid}),
    [](const auto& info) {
      std::string n = std::string(to_string(std::get<0>(info.param))) + "_" +
                      to_string(std::get<1>(info.param));
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Classifier, RejectsFilOnFpga) {
  ClassifierOptions opt;
  opt.backend = Backend::FpgaSim;
  opt.variant = Variant::FilBaseline;
  EXPECT_THROW(Classifier(small_forest(), opt), ConfigError);
}

TEST(Classifier, RejectsHybridOnCpu) {
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Hybrid;
  EXPECT_THROW(Classifier(small_forest(), opt), ConfigError);
  opt.variant = Variant::Collaborative;
  EXPECT_THROW(Classifier(small_forest(), opt), ConfigError);
}

TEST(Classifier, LayoutAccessorsMatchVariant) {
  ClassifierOptions opt;
  opt.variant = Variant::Hybrid;
  opt.layout.subtree_depth = 5;
  const Classifier clf(small_forest(), opt);
  EXPECT_EQ(clf.hierarchical().config().subtree_depth, 5);
  EXPECT_THROW(clf.csr(), ConfigError);

  ClassifierOptions csr_opt;
  csr_opt.variant = Variant::Csr;
  const Classifier csr_clf(small_forest(), csr_opt);
  EXPECT_GT(csr_clf.csr().num_nodes(), 0u);
  EXPECT_THROW(csr_clf.hierarchical(), ConfigError);
}

TEST(Classifier, OnlyFilClassifiersHoldADeviceImage) {
  // FIL's 16-byte nodes are their own format, built from the forest; every
  // other kernel reads its CSR or hierarchical layout directly.
  const auto holds_image = [](Backend backend, Variant variant) {
    ClassifierOptions opt;
    opt.backend = backend;
    opt.variant = variant;
    return Classifier(small_forest(), opt).device_image() != nullptr;
  };
  EXPECT_TRUE(holds_image(Backend::GpuSim, Variant::FilBaseline));
  for (Variant v : {Variant::Csr, Variant::Independent, Variant::Collaborative,
                    Variant::Hybrid}) {
    EXPECT_FALSE(holds_image(Backend::GpuSim, v)) << to_string(v);
  }
  for (Variant v : {Variant::Csr, Variant::Independent}) {
    EXPECT_FALSE(holds_image(Backend::CpuNative, v)) << to_string(v);
  }
  for (Variant v : {Variant::Csr, Variant::Independent, Variant::Collaborative,
                    Variant::Hybrid}) {
    EXPECT_FALSE(holds_image(Backend::FpgaSim, v)) << to_string(v);
  }

  // Nor does a gpu-sim classifier over a precompiled hierarchical layout.
  ClassifierOptions opt;
  opt.variant = Variant::Hybrid;
  const Classifier precompiled(
      small_forest(), HierarchicalForest::build(small_forest(), HierConfig{.subtree_depth = 4}),
      opt);
  EXPECT_EQ(precompiled.device_image(), nullptr);
}

TEST(Classifier, ResidentImageRunMatchesThePerCallKernel) {
  // classify() on the resident layout or FIL image reports exactly what a
  // kernel launch on a fresh device does: same answers, same counters.
  const Dataset q = make_random_queries(300, 7, 12);
  ClassifierOptions opt;
  opt.gpu = small_gpu();
  opt.variant = Variant::Hybrid;
  opt.layout = HierConfig{.subtree_depth = 4, .root_subtree_depth = 6};
  const Classifier hybrid(small_forest(), opt);
  gpusim::Device d_hybrid(small_gpu());
  const gpukernels::KernelResult k_hybrid =
      gpukernels::run_hybrid(d_hybrid, hybrid.hierarchical(), q);
  const RunReport r_hybrid = hybrid.classify(q);
  EXPECT_EQ(r_hybrid.predictions, k_hybrid.predictions);
  EXPECT_EQ(r_hybrid.gpu_counters, k_hybrid.counters);
  EXPECT_EQ(r_hybrid.gpu_timing, k_hybrid.timing);

  opt.variant = Variant::FilBaseline;
  const Classifier fil(small_forest(), opt);
  gpusim::Device d_fil(small_gpu());
  const gpukernels::KernelResult k_fil = gpukernels::run_fil_baseline(
      d_fil, fil.forest(), gpukernels::DeviceImage(fil.forest()), q);
  const RunReport r_fil = fil.classify(q);
  EXPECT_EQ(r_fil.predictions, k_fil.predictions);
  EXPECT_EQ(r_fil.gpu_counters, k_fil.counters);
  EXPECT_EQ(r_fil.gpu_timing, k_fil.timing);
}

TEST(Classifier, CopiedAndMovedClassifiersClassifyIdentically) {
  // Neither the layout nor the FIL image holds a pointer into its owner,
  // so copies and moves keep working after the original is gone.
  const Dataset q = make_random_queries(200, 7, 13);
  for (Variant v : {Variant::Hybrid, Variant::FilBaseline}) {
    SCOPED_TRACE(to_string(v));
    ClassifierOptions opt;
    opt.gpu = small_gpu();
    opt.variant = v;
    auto original = std::make_unique<Classifier>(small_forest(), opt);
    const RunReport want = original->classify(q);
    const Classifier copy(*original);
    const Classifier moved(std::move(*original));
    original.reset();
    for (const Classifier* clf : {&copy, &moved}) {
      ASSERT_EQ(clf->device_image() != nullptr, v == Variant::FilBaseline);
      const RunReport got = clf->classify(q);
      EXPECT_EQ(got.predictions, want.predictions);
      EXPECT_EQ(got.gpu_counters, want.gpu_counters);
      EXPECT_EQ(got.gpu_timing, want.gpu_timing);
    }
  }
}

TEST(Classifier, TrainFactoryProducesWorkingClassifier) {
  SyntheticSpec spec;
  spec.num_samples = 3000;
  spec.num_features = 6;
  spec.num_relevant = 5;
  spec.teacher_depth = 6;
  spec.mass_floor = 0.05;
  spec.label_noise = 0.05;
  const Dataset ds = make_synthetic(spec);
  const auto [train, test] = ds.split();
  TrainConfig tc;
  tc.num_trees = 20;
  tc.max_depth = 8;
  ClassifierOptions opt;
  opt.backend = Backend::GpuSim;
  opt.variant = Variant::Hybrid;
  opt.layout.subtree_depth = 4;
  opt.gpu = small_gpu();
  const Classifier clf = Classifier::train(train, tc, opt);
  const RunReport r = clf.classify(test);
  EXPECT_GT(r.accuracy(test.labels()), 0.7);
}

TEST(Classifier, LoadFactoryRoundTrips) {
  const std::string path = testing::TempDir() + "/hrf_clf_load.hrff";
  small_forest().save(path);
  ClassifierOptions opt;
  opt.variant = Variant::Independent;
  opt.backend = Backend::CpuNative;
  const Classifier clf = Classifier::load(path, opt);
  EXPECT_EQ(clf.forest().tree_count(), 6u);
  std::remove(path.c_str());
}

TEST(RunReport, AccuracyValidatesShape) {
  RunReport r;
  r.predictions = {0, 1, 1};
  const std::vector<std::uint8_t> labels{0, 1, 0};
  EXPECT_NEAR(r.accuracy(labels), 2.0 / 3.0, 1e-12);
  const std::vector<std::uint8_t> wrong(2);
  EXPECT_THROW(r.accuracy(wrong), ConfigError);
}

TEST(Classifier, RejectsFeatureCountMismatch) {
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  opt.layout.subtree_depth = 4;
  const Classifier clf(small_forest(), opt);  // model expects 7 features
  const Dataset narrow = make_random_queries(10, 5, 9);
  const Dataset wide = make_random_queries(10, 11, 9);
  EXPECT_THROW(clf.classify(narrow), ConfigError);
  EXPECT_THROW(clf.classify(wide), ConfigError);
  try {
    clf.classify(narrow);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("expects"), std::string::npos);
  }
}

TEST(Classifier, RejectsNonFiniteQueryFeatures) {
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Csr;
  const Classifier clf(small_forest(), opt);
  Dataset nan_q = make_random_queries(10, 7, 9);
  nan_q.sample(3)[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(clf.classify(nan_q), ConfigError);
  Dataset inf_q = make_random_queries(10, 7, 9);
  inf_q.sample(0)[6] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(clf.classify(inf_q), ConfigError);
  Dataset ninf_q = make_random_queries(10, 7, 9);
  ninf_q.sample(9)[0] = -std::numeric_limits<float>::infinity();
  EXPECT_THROW(clf.classify(ninf_q), ConfigError);
  // The error message pinpoints the offending query and feature.
  try {
    clf.classify(nan_q);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("query 3 feature 2"), std::string::npos);
  }
}

TEST(Classifier, PrecompiledLayoutsMatchBuiltOnes) {
  const Forest f = small_forest();
  const Dataset q = make_random_queries(120, 7, 10);
  const auto reference = f.classify_batch(q.features(), q.num_samples());

  ClassifierOptions hier_opt;
  hier_opt.backend = Backend::CpuNative;
  hier_opt.variant = Variant::Independent;
  hier_opt.layout.subtree_depth = 5;
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 5});
  const Classifier hier_clf(small_forest(), h, hier_opt);
  EXPECT_EQ(hier_clf.classify(q).predictions, reference);
  EXPECT_EQ(hier_clf.options().layout.subtree_depth, 5);

  ClassifierOptions csr_opt;
  csr_opt.backend = Backend::CpuNative;
  csr_opt.variant = Variant::Csr;
  const Classifier csr_clf(small_forest(), CsrForest::build(f), csr_opt);
  EXPECT_EQ(csr_clf.classify(q).predictions, reference);
}

TEST(Classifier, PrecompiledLayoutShapeMismatchIsRejected) {
  RandomForestSpec other;
  other.num_trees = 3;
  other.max_depth = 5;
  other.num_features = 12;  // != small_forest()'s 7
  other.seed = 90;
  const Forest wrong = make_random_forest(other);

  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  EXPECT_THROW(
      Classifier(small_forest(), HierarchicalForest::build(wrong, HierConfig{.subtree_depth = 4}),
                 opt),
      ConfigError);
  opt.variant = Variant::Csr;
  EXPECT_THROW(Classifier(small_forest(), CsrForest::build(wrong), opt), ConfigError);
  // Variant must match the layout kind.
  opt.variant = Variant::Csr;
  EXPECT_THROW(
      Classifier(small_forest(),
                 HierarchicalForest::build(small_forest(), HierConfig{.subtree_depth = 4}), opt),
      ConfigError);
  opt.variant = Variant::Independent;
  EXPECT_THROW(Classifier(small_forest(), CsrForest::build(small_forest()), opt), ConfigError);
}

TEST(EnumNames, AreStable) {
  EXPECT_STREQ(to_string(Backend::CpuNative), "cpu-native");
  EXPECT_STREQ(to_string(Backend::GpuSim), "gpu-sim");
  EXPECT_STREQ(to_string(Backend::FpgaSim), "fpga-sim");
  EXPECT_STREQ(to_string(Variant::Csr), "csr");
  EXPECT_STREQ(to_string(Variant::Hybrid), "hybrid");
  EXPECT_STREQ(to_string(Variant::FilBaseline), "fil-baseline");
}

}  // namespace
}  // namespace hrf
