#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "fpgasim/config.hpp"
#include "fpgasim/pipeline.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::fpgakernels {

/// Result of one modeled FPGA execution: exact predictions plus the
/// analytical timing report.
struct FpgaResult {
  std::vector<std::uint8_t> predictions;
  fpgasim::FpgaReport report;
};

/// CSR baseline (Table 3 row "Baseline (CSR)"): one pipeline iterating all
/// (query, tree, node) steps at II 292, five random external reads per
/// inner step (node attributes, both topology indirections, query feature).
FpgaResult run_csr_fpga(const CsrForest& csr, QueryView queries,
                        const fpgasim::FpgaConfig& cfg = fpgasim::FpgaConfig::alveo_u250(),
                        const fpgasim::CuLayout& layout = {});

/// Independent variant (§3.2.2): II 76 with query features buffered in
/// BRAM (II 147 without — `buffer_queries` toggles the paper's ablation);
/// two random external reads per step plus four per subtree hop.
FpgaResult run_independent_fpga(const HierarchicalForest& forest, QueryView queries,
                                const fpgasim::FpgaConfig& cfg = fpgasim::FpgaConfig::alveo_u250(),
                                const fpgasim::CuLayout& layout = {},
                                bool buffer_queries = true);

/// Collaborative variant (§3.2.2): each subtree burst-loaded into
/// BRAM/URAM, then *every* query pipelined through it at II 3; query state
/// stays in external memory (random accesses), which is what makes this
/// variant memory-stalled (~90% in Table 3) despite its low II.
FpgaResult run_collaborative_fpga(const HierarchicalForest& forest, QueryView queries,
                                  const fpgasim::FpgaConfig& cfg = fpgasim::FpgaConfig::alveo_u250(),
                                  const fpgasim::CuLayout& layout = {});

/// Hybrid variant (§3.2.2): stage 1 walks the BRAM-resident root subtree
/// at II 3; stage 2 equals the independent variant at II 76 for nodes
/// below the root subtree. With `split_stage1`, stage 1 runs on a single
/// CU per SLR while stage 2 replicates (the paper's "Hybrid Split").
FpgaResult run_hybrid_fpga(const HierarchicalForest& forest, QueryView queries,
                           const fpgasim::FpgaConfig& cfg = fpgasim::FpgaConfig::alveo_u250(),
                           const fpgasim::CuLayout& layout = {}, bool split_stage1 = false);

}  // namespace hrf::fpgakernels
