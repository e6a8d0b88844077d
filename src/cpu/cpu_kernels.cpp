#include "cpu/cpu_kernels.hpp"

#include <omp.h>

#include "util/error.hpp"

namespace hrf::cpu {

namespace {

/// Adds one vote per (row, tree) for rows [lo, hi) into `votes` (k per row).
/// Lane state is kept as parallel arrays, one entry per row in flight.
void vote_rows(const HierarchicalForest& forest, QueryView queries, std::size_t lo,
               std::size_t hi, std::uint32_t* votes) {
  constexpr std::size_t G = kInterleaveGroup;
  const PackedNode* nodes = forest.nodes().data();
  const std::int32_t* conn = forest.subtree_connection().data();
  const std::uint32_t* node_offset = forest.subtree_node_offsets().data();
  const std::uint8_t* depth = forest.subtree_depths().data();
  const std::uint32_t* conn_offset = forest.connection_offsets().data();
  const float* x = queries.features().data();
  const std::size_t nf = queries.num_features();
  const auto k = static_cast<std::size_t>(forest.num_classes());
  const auto bottom_first_of = [&](std::uint32_t st) {
    return (std::uint32_t{1} << (depth[st] - 1)) - 1;
  };

  std::size_t row[G];
  std::uint32_t subtree[G], offset[G], bottom_first[G], p[G];
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const std::uint32_t root = forest.root_subtree(t);
    const std::uint32_t root_offset = node_offset[root];
    const std::uint32_t root_bottom_first = bottom_first_of(root);
    const auto start = [&](std::size_t l, std::size_t r) {
      row[l] = r;
      subtree[l] = root;
      offset[l] = root_offset;
      bottom_first[l] = root_bottom_first;
      p[l] = 0;
    };
    std::size_t next = lo;
    std::size_t live = 0;
    for (; live < G && next < hi; ++live) start(live, next++);
    while (live > 0) {
      for (std::size_t l = 0; l < live;) {
        const PackedNode n = nodes[offset[l] + p[l]];
        if (n.feature == kLeafFeature) {
          ++votes[row[l] * k + static_cast<std::uint8_t>(n.value)];
          if (next < hi) {  // the lane takes the next row, from the root
            start(l++, next++);
          } else {  // no rows left: swap-remove the lane
            --live;
            row[l] = row[live];
            subtree[l] = subtree[live];
            offset[l] = offset[live];
            bottom_first[l] = bottom_first[live];
            p[l] = p[live];
          }
          continue;
        }
        const std::uint32_t right =
            !(x[row[l] * nf + static_cast<std::size_t>(n.feature)] < n.value);
        if (p[l] >= bottom_first[l]) {
          // Inner node on the bottom level: hop to the connected subtree.
          const auto st = static_cast<std::uint32_t>(
              conn[conn_offset[subtree[l]] + 2 * (p[l] - bottom_first[l]) + right]);
          subtree[l] = st;
          offset[l] = node_offset[st];
          bottom_first[l] = bottom_first_of(st);
          p[l] = 0;
        } else {
          p[l] = 2 * p[l] + 1 + right;
        }
        ++l;
      }
    }
  }
}

}  // namespace

std::vector<std::uint8_t> classify_csr(const CsrForest& csr, QueryView queries) {
  require(csr.num_features() == queries.num_features(), "query width != forest features");
  const std::size_t nq = queries.num_samples();
  std::vector<std::uint8_t> out(nq);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < nq; ++i) {
    out[i] = csr.classify(queries.sample(i));
  }
  return out;
}

std::vector<std::uint8_t> classify_hierarchical(const HierarchicalForest& forest,
                                                QueryView queries) {
  require(forest.num_features() == queries.num_features(), "query width != forest features");
  const std::size_t nq = queries.num_samples();
  const auto k = static_cast<std::size_t>(forest.num_classes());
  std::vector<std::uint32_t> votes(nq * k, 0);
  std::vector<std::uint8_t> out(nq);
#pragma omp parallel
  {
    // Each thread owns one contiguous row range, walks every tree over it,
    // then reduces its own rows' votes.
    const auto threads = static_cast<std::size_t>(omp_get_num_threads());
    const auto thread = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t lo = nq * thread / threads;
    const std::size_t hi = nq * (thread + 1) / threads;
    vote_rows(forest, queries, lo, hi, votes.data());
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = Forest::vote_winner({votes.data() + i * k, k});
    }
  }
  return out;
}

}  // namespace hrf::cpu
