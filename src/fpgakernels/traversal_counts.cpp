#include "fpgakernels/traversal_counts.hpp"

#include <omp.h>

#include "util/error.hpp"
#include "util/math.hpp"

namespace hrf::fpgakernels {

TraversalCounts count_traversal(const HierarchicalForest& forest, QueryView queries) {
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const std::size_t nq = queries.num_samples();
  const std::size_t nt = forest.num_trees();

  TraversalCounts total;
  total.predictions.resize(nq);

  std::uint64_t node_visits = 0;
  std::uint64_t root_visits = 0;
  std::uint64_t hops = 0;

  const auto k = static_cast<std::size_t>(forest.num_classes());
  const std::span<const PackedNode> nodes = forest.nodes();
#pragma omp parallel for schedule(static) \
    reduction(+ : node_visits, root_visits, hops)
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const auto query = queries.sample(qi);
    std::uint32_t votes[256] = {};
    for (std::size_t t = 0; t < nt; ++t) {
      const std::uint32_t root_st = forest.root_subtree(t);
      std::uint32_t st = root_st;
      float leaf_value = 0.0f;
      for (bool done = false; !done;) {
        const std::uint32_t off = forest.subtree_node_offset(st);
        const int d = forest.subtree_depth(st);
        const auto bottom_first = static_cast<std::uint32_t>(pow2(d - 1) - 1);
        std::uint32_t p = 0;
        for (;;) {
          ++node_visits;
          if (st == root_st) ++root_visits;
          const PackedNode& n = nodes[off + p];
          if (n.feature == kLeafFeature) {
            leaf_value = n.value;
            done = true;
            break;
          }
          const bool go_left = query[static_cast<std::size_t>(n.feature)] < n.value;
          if (p >= bottom_first) {
            const std::uint32_t ci =
                forest.connection_offset(st) + 2 * (p - bottom_first) + (go_left ? 0u : 1u);
            st = static_cast<std::uint32_t>(forest.subtree_connection()[ci]);
            ++hops;
            break;
          }
          p = 2 * p + (go_left ? 1u : 2u);
        }
      }
      ++votes[static_cast<std::uint8_t>(leaf_value)];
    }
    total.predictions[qi] = Forest::vote_winner({votes, k});
  }

  total.node_visits = node_visits;
  total.root_subtree_visits = root_visits;
  total.subtree_hops = hops;
  total.leaf_visits = static_cast<std::uint64_t>(nq) * nt;
  return total;
}

}  // namespace hrf::fpgakernels
