#include "layout/quantized.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/error.hpp"

namespace hrf {
namespace {

struct Fixture {
  Forest forest;
  HierarchicalForest hier;
  Dataset calibration;

  explicit Fixture(int classes = 2)
      : forest(make_random_forest({.num_trees = 12,
                                   .max_depth = 11,
                                   .branch_prob = 0.7,
                                   .num_features = 10,
                                   .num_classes = classes,
                                   .seed = 91})),
        hier(HierarchicalForest::build(forest, HierConfig{.subtree_depth = 5})),
        calibration(make_random_queries(2000, 10, 92)) {}
};

TEST(Quantized, NodeIsFourBytes) {
  static_assert(sizeof(QuantizedHierarchicalForest::Node) == 4);
}

TEST(Quantized, HalvesNodeStorage) {
  const Fixture fx;
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  // Float layout: 8 bytes per stored node (packed feature + value).
  EXPECT_EQ(q.node_bytes() * 2, fx.hier.nodes().size_bytes());
}

TEST(Quantized, HighAgreementWithFloatLayout) {
  const Fixture fx;
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  const Dataset queries = make_random_queries(3000, 10, 93);
  // 16-bit grids leave only hairline disagreement at threshold boundaries.
  EXPECT_GT(q.agreement(fx.hier, queries), 0.995);
}

TEST(Quantized, MulticlassAgreementHolds) {
  const Fixture fx(5);
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  EXPECT_EQ(q.num_classes(), 5);
  const Dataset queries = make_random_queries(2000, 10, 94);
  EXPECT_GT(q.agreement(fx.hier, queries), 0.99);
}

TEST(Quantized, QueryQuantizationIsMonotone) {
  const Fixture fx;
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  std::vector<float> a(10, 0.2f), b(10, 0.8f);
  std::vector<std::uint16_t> ca(10), cb(10);
  q.quantize_query(a, ca);
  q.quantize_query(b, cb);
  for (std::size_t f = 0; f < 10; ++f) EXPECT_LT(ca[f], cb[f]);
}

TEST(Quantized, OutOfRangeQueriesClampInsteadOfWrapping) {
  const Fixture fx;
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  std::vector<float> low(10, -100.f), high(10, 100.f);
  std::vector<std::uint16_t> cl(10), ch(10);
  q.quantize_query(low, cl);
  q.quantize_query(high, ch);
  for (std::size_t f = 0; f < 10; ++f) {
    EXPECT_EQ(cl[f], 0);
    EXPECT_EQ(ch[f], 65'535);
  }
  // And classification still terminates with a valid class.
  EXPECT_LT(q.classify(low), 2);
}

TEST(Quantized, ValidatesInputs) {
  const Fixture fx;
  const Dataset wrong = make_random_queries(10, 3, 1);
  EXPECT_THROW(QuantizedHierarchicalForest::build(fx.hier, wrong), ConfigError);
  const auto q = QuantizedHierarchicalForest::build(fx.hier, fx.calibration);
  const std::vector<float> narrow(3, 0.f);
  EXPECT_THROW(q.classify(narrow), ConfigError);
}

TEST(Quantized, ThresholdsRemainRepresentableOutsideCalibrationRange) {
  // A model threshold beyond the calibration range must still be encoded
  // (build() widens the per-feature range with the model's thresholds).
  std::vector<TreeNode> nodes(3);
  nodes[0] = {0, 5.0f, 1, 2};  // threshold 5.0 >> calibration range [0,1)
  nodes[1] = {kLeafFeature, 0.f, -1, -1};
  nodes[2] = {kLeafFeature, 1.f, -1, -1};
  std::vector<DecisionTree> trees;
  trees.emplace_back(std::move(nodes));
  const Forest f(std::move(trees), 2);
  const auto h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  const Dataset cal = make_random_queries(100, 2, 7);
  const auto q = QuantizedHierarchicalForest::build(h, cal);
  // Queries in [0,1) are all far below the threshold -> class A everywhere.
  for (int i = 0; i < 50; ++i) {
    const float row[2] = {static_cast<float>(i) / 50.f, 0.5f};
    EXPECT_EQ(q.classify(row), h.classify(row));
  }
}

}  // namespace
}  // namespace hrf
