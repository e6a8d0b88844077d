#pragma once

// Layer probes for the traced run: each times one public function of one
// layer on the workload forest and queries, from outside the program.

#include <cstdint>
#include <map>
#include <string>

#include "bench_math.hpp"
#include "forest/forest.hpp"

namespace perfbench {

struct LayerReport {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  // probe calls made
  std::uint64_t mismatched = 0;  // probe calls whose predictions were wrong
  /// False when repeating one seeded block gave different modeled
  /// seconds or gpusim counters.
  bool modeled_deterministic = true;
};

/// Runs every probe: layout build and footprint, gpusim Device
/// construction, run_hybrid fixed and per-row host cost, Classifier
/// overhead, CPU traversal cost, and the modeled gpusim counters of the
/// offline-gpu block pool. Each probe call is a span in `spans`.
LayerReport probe_layers(const hrf::Forest& forest, std::uint64_t seed, SpanRecorder& spans);

}  // namespace perfbench
