#include "fpgakernels/fpga_kernels.hpp"

#include <omp.h>

#include <algorithm>
#include <string>

#include "fpgakernels/traversal_counts.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/math.hpp"

namespace hrf::fpgakernels {

namespace {

// Initiation intervals reported by the paper's Vitis HLS builds (§3.2.2,
// Table 3). The RAW dependency on the current-node register bounds the
// traversal loops; the collaborative/hybrid on-chip loops reach II 3.
constexpr double kCsrII = 292.0;
constexpr double kIndependentII = 76.0;
constexpr double kIndependentNoBufferII = 147.0;
constexpr double kOnChipII = 3.0;
constexpr double kPipelineDepth = 60.0;

/// Burst reads needed to stream all query rows into BRAM once.
std::uint64_t query_burst_accesses(QueryView queries, const fpgasim::FpgaConfig& cfg) {
  const std::uint64_t row_bytes = queries.num_features() * sizeof(float);
  return queries.num_samples() * ceil_div(row_bytes, cfg.burst_bytes);
}

}  // namespace

FpgaResult run_csr_fpga(const CsrForest& csr, QueryView queries,
                        const fpgasim::FpgaConfig& cfg, const fpgasim::CuLayout& layout) {
  require(csr.num_features() == queries.num_features(), "query width != forest features");
  const std::size_t nq = queries.num_samples();
  const std::size_t nt = csr.num_trees();

  FpgaResult out;
  out.predictions.resize(nq);
  std::uint64_t node_visits = 0;
  const auto k = static_cast<std::size_t>(csr.num_classes());

#pragma omp parallel for schedule(static) reduction(+ : node_visits)
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const auto query = queries.sample(qi);
    std::uint32_t votes[256] = {};
    for (std::size_t t = 0; t < nt; ++t) {
      auto n = static_cast<std::size_t>(csr.tree_root()[t]);
      while (csr.feature_id()[n] != kLeafFeature) {
        ++node_visits;
        const bool go_left =
            query[static_cast<std::size_t>(csr.feature_id()[n])] < csr.value()[n];
        const auto idx = static_cast<std::size_t>(csr.children_arr_idx()[n]) + (go_left ? 0u : 1u);
        n = static_cast<std::size_t>(csr.children_arr()[idx]);
      }
      ++node_visits;  // leaf
      ++votes[static_cast<std::uint8_t>(csr.value()[n])];
    }
    out.predictions[qi] = Forest::vote_winner({votes, k});
  }

  const std::uint64_t leaves = static_cast<std::uint64_t>(nq) * nt;
  fpgasim::StageModel stage;
  stage.name = "csr-traversal";
  stage.ii = kCsrII;
  stage.pipeline_depth = kPipelineDepth;
  stage.iterations = node_visits;
  // Inner step: feature_id, value, children_arr_idx, children_arr, query
  // feature — all irregular external reads. Leaf step: feature_id + value.
  stage.random_accesses = 5 * (node_visits - leaves) + 2 * leaves;
  out.report = fpgasim::evaluate(cfg, layout, {stage}, "292");
  return out;
}

FpgaResult run_independent_fpga(const HierarchicalForest& forest, QueryView queries,
                                const fpgasim::FpgaConfig& cfg, const fpgasim::CuLayout& layout,
                                bool buffer_queries) {
  TraversalCounts counts = count_traversal(forest, queries);

  fpgasim::StageModel stage;
  stage.name = "independent-traversal";
  stage.ii = buffer_queries ? kIndependentII : kIndependentNoBufferII;
  stage.pipeline_depth = kPipelineDepth;
  stage.iterations = counts.node_visits + counts.subtree_hops;
  // Per node visit: feature_id + value (children are arithmetic). Per
  // subtree hop: connection entry + node offset + depth + connection
  // offset. The query feature read is external only when not buffered.
  stage.random_accesses = 2 * counts.node_visits + 4 * counts.subtree_hops +
                          (buffer_queries ? 0 : counts.node_visits - counts.leaf_visits);
  if (buffer_queries) stage.burst_accesses = query_burst_accesses(queries, cfg);

  FpgaResult out;
  out.predictions = std::move(counts.predictions);
  out.report = fpgasim::evaluate(cfg, layout, {stage}, buffer_queries ? "76" : "147");
  return out;
}

FpgaResult run_collaborative_fpga(const HierarchicalForest& forest, QueryView queries,
                                  const fpgasim::FpgaConfig& cfg,
                                  const fpgasim::CuLayout& layout) {
  // The largest subtree, root subtrees included, must fit in on-chip
  // memory next to the pipeline.
  fault_point("resource:fpga-bram");
  const HierConfig& hc = forest.config();
  const std::size_t max_subtree_bytes =
      complete_tree_nodes(std::max(hc.subtree_depth, hc.effective_root_depth())) *
      sizeof(PackedNode);
  if (max_subtree_bytes * static_cast<std::size_t>(layout.cus_per_slr) >
      cfg.onchip_bytes_per_slr) {
    throw ResourceError("collaborative FPGA kernel: subtree buffers exceed BRAM/URAM");
  }

  TraversalCounts counts = count_traversal(forest, queries);

  // Burst-load every subtree once per tree pass; then flush *every* query
  // through *every* subtree at II 3, touching external memory for the
  // query's traversal state (current subtree/node) and its feature.
  fpgasim::StageModel load;
  load.name = "subtree-burst-load";
  load.ii = 1.0;
  load.pipeline_depth = kPipelineDepth;
  const std::uint64_t stored_bytes = forest.nodes().size_bytes();
  load.iterations = ceil_div(stored_bytes, cfg.burst_bytes);
  load.burst_accesses = load.iterations;

  fpgasim::StageModel sweep;
  sweep.name = "collaborative-sweep";
  sweep.ii = kOnChipII;
  sweep.pipeline_depth = kPipelineDepth;
  sweep.iterations = static_cast<std::uint64_t>(queries.num_samples()) * forest.num_subtrees();
  sweep.random_accesses = 2 * sweep.iterations;

  FpgaResult out;
  out.predictions = std::move(counts.predictions);
  out.report = fpgasim::evaluate(cfg, layout, {load, sweep}, "3");
  return out;
}

FpgaResult run_hybrid_fpga(const HierarchicalForest& forest, QueryView queries,
                           const fpgasim::FpgaConfig& cfg, const fpgasim::CuLayout& layout,
                           bool split_stage1) {
  fault_point("resource:fpga-bram");
  const int rsd = forest.config().effective_root_depth();
  const std::size_t root_bytes = complete_tree_nodes(rsd) * sizeof(PackedNode);
  const std::size_t stage1_cus =
      split_stage1 ? 1 : static_cast<std::size_t>(layout.cus_per_slr);
  if (root_bytes * stage1_cus > cfg.onchip_bytes_per_slr) {
    throw ResourceError("hybrid FPGA kernel: root subtree buffers exceed BRAM/URAM; reduce RSD");
  }

  TraversalCounts counts = count_traversal(forest, queries);

  // Stage 1: queries stream through the BRAM-resident root subtree. Root
  // subtrees are burst-loaded once per tree; query rows once overall.
  std::uint64_t root_burst = 0;
  for (std::size_t t = 0; t < forest.num_trees(); ++t) {
    const std::uint32_t st = forest.root_subtree(t);
    const std::uint64_t bytes = complete_tree_nodes(forest.subtree_depth(st)) * sizeof(PackedNode);
    root_burst += ceil_div(bytes, cfg.burst_bytes);
  }
  fpgasim::StageModel stage1;
  stage1.name = "hybrid-stage1";
  stage1.ii = kOnChipII;
  stage1.pipeline_depth = kPipelineDepth;
  stage1.iterations = counts.root_subtree_visits;
  // The BRAM budget holds the root subtree and inter-stage state FIFOs, so
  // each step's query-feature read goes to external memory — at II 3 this
  // demands random accesses far faster than the channel sustains, which is
  // the stalling the paper observed when replicating stage 1 (§4.4).
  stage1.random_accesses = counts.root_subtree_visits;
  stage1.burst_accesses = root_burst;
  stage1.replicate_within_slr = !split_stage1;

  // Stage 2: independent traversal of everything below the root subtrees.
  fpgasim::StageModel stage2;
  stage2.name = "hybrid-stage2";
  stage2.ii = kIndependentII;
  stage2.pipeline_depth = kPipelineDepth;
  const std::uint64_t deeper_visits = counts.node_visits - counts.root_subtree_visits;
  stage2.iterations = deeper_visits + counts.subtree_hops;
  // feature_id + value + query feature per visit, plus the four indirect
  // reads per subtree hop (connection entry and subtree metadata).
  stage2.random_accesses = 3 * deeper_visits + 4 * counts.subtree_hops;

  FpgaResult out;
  out.predictions = std::move(counts.predictions);
  out.report = fpgasim::evaluate(cfg, layout, {stage1, stage2}, "3/76");
  return out;
}

}  // namespace hrf::fpgakernels
