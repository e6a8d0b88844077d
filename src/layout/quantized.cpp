#include "layout/quantized.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf {

QuantizedHierarchicalForest QuantizedHierarchicalForest::build(const HierarchicalForest& forest,
                                                               const Dataset& calibration) {
  require(calibration.num_features() == forest.num_features(),
          "calibration width != forest features");
  require(forest.num_features() <= 32'767, "too many features for int16 ids");
  require(calibration.num_samples() > 0, "need calibration rows");

  QuantizedHierarchicalForest q;
  q.num_classes_ = forest.num_classes();
  const std::size_t nf = forest.num_features();
  q.feature_lo_.assign(nf, 0.f);
  q.feature_scale_.assign(nf, 1.f);

  // Per-feature range: calibration data plus every threshold in the model
  // (so no split falls outside the representable grid).
  std::vector<float> lo(nf), hi(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    lo[f] = hi[f] = calibration.sample(0)[f];
  }
  for (std::size_t i = 0; i < calibration.num_samples(); ++i) {
    const auto row = calibration.sample(i);
    for (std::size_t f = 0; f < nf; ++f) {
      lo[f] = std::min(lo[f], row[f]);
      hi[f] = std::max(hi[f], row[f]);
    }
  }
  const std::span<const PackedNode> nodes = forest.nodes();
  for (const PackedNode& n : nodes) {
    if (n.feature >= 0) {
      const auto f = static_cast<std::size_t>(n.feature);
      lo[f] = std::min(lo[f], n.value);
      hi[f] = std::max(hi[f], n.value);
    }
  }
  for (std::size_t f = 0; f < nf; ++f) {
    q.feature_lo_[f] = lo[f];
    const float range = hi[f] - lo[f];
    q.feature_scale_[f] = range > 0.f ? 65'535.0f / range : 0.f;
  }

  // Quantize the node array (4 bytes per stored slot).
  q.nodes_.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PackedNode& n = nodes[i];
    if (n.feature == kLeafFeature) {
      q.nodes_[i] = {kLeafFeature16, static_cast<std::uint16_t>(n.value)};
    } else {
      const auto f = static_cast<std::size_t>(n.feature);
      const float code_f = (n.value - q.feature_lo_[f]) * q.feature_scale_[f];
      const float clamped = std::clamp(code_f, 0.0f, 65'535.0f);
      q.nodes_[i] = {static_cast<std::int16_t>(n.feature),
                     static_cast<std::uint16_t>(std::lround(clamped))};
    }
  }

  q.subtree_node_offset_.assign(forest.subtree_node_offsets().begin(),
                                forest.subtree_node_offsets().end());
  q.base_depth_.assign(forest.subtree_depths().begin(), forest.subtree_depths().end());
  q.connection_offset_.assign(forest.connection_offsets().begin(),
                              forest.connection_offsets().end());
  q.subtree_connection_.assign(forest.subtree_connection().begin(),
                               forest.subtree_connection().end());
  q.tree_subtree_begin_.assign(forest.tree_subtree_begin().begin(),
                               forest.tree_subtree_begin().end());
  return q;
}

void QuantizedHierarchicalForest::quantize_query(std::span<const float> query,
                                                 std::span<std::uint16_t> out) const {
  require(query.size() == feature_lo_.size() && out.size() == feature_lo_.size(),
          "query width mismatch");
  for (std::size_t f = 0; f < feature_lo_.size(); ++f) {
    const float code = (query[f] - feature_lo_[f]) * feature_scale_[f];
    out[f] = static_cast<std::uint16_t>(std::lround(std::clamp(code, 0.0f, 65'535.0f)));
  }
}

std::uint8_t QuantizedHierarchicalForest::classify(std::span<const float> query) const {
  require(query.size() == feature_lo_.size(), "query width mismatch");
  std::uint16_t codes_buf[512];
  require(feature_lo_.size() <= 512, "quantized classify supports <= 512 features");
  std::span<std::uint16_t> codes(codes_buf, feature_lo_.size());
  quantize_query(query, codes);

  std::uint32_t votes[256] = {};
  const std::size_t num_trees = tree_subtree_begin_.size() - 1;
  for (std::size_t t = 0; t < num_trees; ++t) {
    auto st = static_cast<std::size_t>(tree_subtree_begin_[t]);
    for (bool done = false; !done;) {
      const std::uint32_t off = subtree_node_offset_[st];
      const int d = base_depth_[st];
      const auto bottom_first = static_cast<std::uint32_t>(pow2(d - 1) - 1);
      std::uint32_t p = 0;
      for (;;) {
        const Node n = nodes_[off + p];
        if (n.feature == kLeafFeature16) {
          ++votes[n.threshold_q];
          done = true;
          break;
        }
        // Integer comparison in the quantized domain.
        const bool go_left = codes[static_cast<std::size_t>(n.feature)] < n.threshold_q;
        if (p >= bottom_first) {
          const std::uint32_t ci =
              connection_offset_[st] + 2 * (p - bottom_first) + (go_left ? 0u : 1u);
          st = static_cast<std::size_t>(subtree_connection_[ci]);
          break;
        }
        p = 2 * p + (go_left ? 1u : 2u);
      }
    }
  }
  return Forest::vote_winner({votes, static_cast<std::size_t>(num_classes_)});
}

double QuantizedHierarchicalForest::agreement(const HierarchicalForest& reference,
                                              const Dataset& queries) const {
  require(reference.num_features() == num_features(), "reference width mismatch");
  if (queries.num_samples() == 0) return 1.0;
  std::size_t same = 0;
  for (std::size_t i = 0; i < queries.num_samples(); ++i) {
    same += classify(queries.sample(i)) == reference.classify(queries.sample(i));
  }
  return static_cast<double>(same) / static_cast<double>(queries.num_samples());
}

float QuantizedHierarchicalForest::threshold_value(std::size_t f, std::uint16_t code) const {
  return feature_lo_[f] + static_cast<float>(code) / feature_scale_[f];
}

}  // namespace hrf
