#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpukernels/device_image.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::gpukernels {

/// Result of one simulated kernel launch: exact functional predictions
/// plus the performance counters and the roofline time estimate.
struct KernelResult {
  std::vector<std::uint8_t> predictions;
  gpusim::Counters counters;
  gpusim::Timing timing;
};

/// Baseline: one thread per query, CSR topology in global memory
/// (paper §2.3). Four dependent global loads per traversal step.
KernelResult run_csr(gpusim::Device& device, const CsrForest& csr, QueryView queries);

/// Independent code variant on the hierarchical layout (§3.2): one thread
/// per query, subtrees read from global memory, arithmetic child indexing
/// inside subtrees.
KernelResult run_independent(gpusim::Device& device, const HierarchicalForest& forest,
                             QueryView queries);

/// Collaborative code variant (§3.2): subtrees are batch-loaded into
/// shared memory and *every* query is walked through *every* subtree in
/// lock-step. Kept for completeness — the paper reports it 10-20x slower
/// than the independent variant on GPU.
KernelResult run_collaborative(gpusim::Device& device, const HierarchicalForest& forest,
                               QueryView queries);

/// Hybrid code variant (§3.2): each tree's root subtree is cooperatively
/// staged into shared memory (stage 1, coalesced + divergence-free
/// residency), remaining subtrees are traversed independently from global
/// memory (stage 2).
KernelResult run_hybrid(gpusim::Device& device, const HierarchicalForest& forest,
                        QueryView queries);

/// cuML Forest Inference Library stand-in: per-tree nodes packed as
/// 16-byte structs with adjacent children (FIL's sparse storage), one
/// query per thread iterating over all trees. One global load per
/// traversal step. Serves as the paper's cuML comparison point. `image`
/// is DeviceImage(forest), built once per model.
KernelResult run_fil_baseline(gpusim::Device& device, const Forest& forest,
                              const DeviceImage& image, QueryView queries);

}  // namespace hrf::gpukernels
