#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::cpu {

/// Native host inference over the CSR layout, OpenMP-parallel across
/// queries: one row walks every tree before the next row starts. It is the
/// CpuNative executor of the CSR variant and the baseline the layout
/// comparison measures in wall-clock time (see bench/micro_traversal).
std::vector<std::uint8_t> classify_csr(const CsrForest& csr, QueryView queries);

/// Rows that walk one tree in lock-step inside classify_hierarchical: up to
/// this many independent node loads are in flight per thread.
inline constexpr std::size_t kInterleaveGroup = 16;

/// Native host inference over the hierarchical layout: the CpuNative
/// executor behind Classifier, so it serves routed CPU shards, every
/// degraded-mode CPU rung and every shadow audit.
///
/// Lock-step interleaved traversal, the host analogue of a warp walking
/// its queries through a cache-resident root subtree: trees are the outer
/// loop, and kInterleaveGroup rows walk each tree together, one node per
/// row per pass, with branch-free child indexing (`2p + 1 + !(x < v)`), so
/// the group's node loads are independent and overlap. A row that reaches
/// a leaf votes and hands its lane to the next row. Each OpenMP thread
/// owns one contiguous row range. The only allocation besides the result
/// is the rows × classes vote table; votes reduce through
/// Forest::vote_winner, so predictions are bit-identical to
/// Forest::classify_batch.
std::vector<std::uint8_t> classify_hierarchical(const HierarchicalForest& forest,
                                                QueryView queries);

}  // namespace hrf::cpu
