#pragma once

// The degradation ladder (docs/robustness.md, "The fallback chain"): the
// ordered configurations a caller falls back through when a simulated
// device raises ResourceError — configured -> shrink RSD -> downgrade the
// variant -> cpu-native. Built once, when a model is installed; walked by
// ForestServer::run_chain and by `hrf_cli --mode predict`. Predictions are
// identical on every step; only latency degrades.

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.hpp"

namespace hrf {

/// One rung of the ladder: run `classifier` as `variant`, recording
/// "degrade: <note>" when a walker reaches it (step 0's note is empty).
struct PlanStep {
  std::shared_ptr<const Classifier> classifier;
  Variant variant;
  std::string note;
};

/// Step 0 is the primary; the last step is a separate CPU-native
/// classifier (the server's shadow-audit oracle, too).
using DegradationPlan = std::vector<PlanStep>;

/// Largest RSD whose complete root subtree fits `options.backend`'s
/// on-chip memory per compute unit (8-byte nodes: shared memory per block
/// on GpuSim, BRAM per SLR / per CU on FpgaSim); 0 on CpuNative.
int max_fitting_rsd(const ClassifierOptions& options);

/// The ladder for `primary`. Step 1, hybrid only, shrinks RSD to
/// max_fitting_rsd() when the configured root subtree cannot fit on chip;
/// step 2 runs hybrid/collaborative as independent on the primary's own
/// layout and image, or fil-baseline as csr. Those two are the only
/// layouts compiled here besides the CPU replica.
DegradationPlan build_degradation_plan(std::shared_ptr<const Classifier> primary);

}  // namespace hrf
