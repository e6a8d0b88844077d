#pragma once

// Negative-result kernels from the paper's §3.2.1 "Other optimizations
// tested" and §5. They exist so the benches can reproduce the paper's
// ablations; the production API (kernels.hpp) does not expose them.

#include "gpukernels/kernels.hpp"

namespace hrf::gpukernels {

/// §3.2.1 Optimization 2: "assigning each thread-block one tree to
/// traverse for all queries". Each block streams every query through its
/// single tree; per-query votes now live in global memory and every
/// (query, tree) result is accumulated with a global atomic
/// (read-modify-write), whose scattered traffic is what makes the paper
/// report a 2-10x slowdown relative to the independent variant.
KernelResult run_tree_per_block(gpusim::Device& device, const HierarchicalForest& forest,
                                QueryView queries);

/// §5 (Goldfarb et al. discussion): lockstep traversal benefits from
/// presorting similar queries into the same warps. Returns a permutation
/// ordering queries lexicographically by (binned) feature values; the
/// bench measures the traversal gain against the sort's own cost, which
/// the paper argues cannot be amortized for high-dimensional ML data.
std::vector<std::uint32_t> presort_queries(QueryView queries, int bins = 16);

/// Applies a permutation to a query set (helper for the presort ablation);
/// the result holds the permuted rows, unlabeled.
Dataset permute_queries(QueryView queries, std::span<const std::uint32_t> order);

}  // namespace hrf::gpukernels
