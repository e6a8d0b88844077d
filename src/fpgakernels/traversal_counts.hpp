#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::fpgakernels {

/// Exact work counts of classifying every query against every tree of a
/// hierarchical forest, measured by an instrumented functional traversal.
/// Since hierarchical traversal visits exactly the same real nodes as the
/// CSR traversal (padding is unreachable), these counts parameterize every
/// FPGA code variant:
///   * CSR / independent pipelines iterate once per node visit;
///   * hybrid splits visits into root-subtree (stage 1) vs deeper (stage 2);
///   * collaborative pipelines all queries through every subtree.
struct TraversalCounts {
  std::uint64_t node_visits = 0;        // total nodes processed (incl. leaves)
  std::uint64_t root_subtree_visits = 0;  // subset within each tree's root subtree
  std::uint64_t subtree_hops = 0;       // crossings between subtrees
  std::uint64_t leaf_visits = 0;        // == queries * trees
  std::vector<std::uint8_t> predictions;  // majority vote per query
};

/// Runs the instrumented traversal (OpenMP-parallel over queries).
TraversalCounts count_traversal(const HierarchicalForest& forest, QueryView queries);

}  // namespace hrf::fpgakernels
