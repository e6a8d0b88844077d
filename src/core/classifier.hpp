#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "fpgasim/config.hpp"
#include "fpgasim/pipeline.hpp"
#include "gpusim/config.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpukernels/device_image.hpp"
#include "util/trace.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"
#include "train/tree_trainer.hpp"

namespace hrf {

/// Where inference runs.
enum class Backend {
  CpuNative,  // OpenMP on the host, wall-clock timing
  GpuSim,     // simulated TITAN Xp (transaction-level SIMT model)
  FpgaSim,    // modeled Alveo U250 (analytical pipeline model)
};

/// Which code variant / layout runs (paper §3.2).
enum class Variant {
  Csr,            // baseline CSR layout
  Independent,    // hierarchical, one thread/work-item per query
  Collaborative,  // hierarchical, lock-step subtree sweeps
  Hybrid,         // hierarchical, on-chip root subtree + independent tail
  FilBaseline,    // cuML FIL stand-in (GpuSim only)
};

const char* to_string(Backend b);
const char* to_string(Variant v);

struct RunReport;

/// Stamps a run's backend metrics onto a span as `gpu.*` / `fpga.*`
/// attributes (branch efficiency, transactions/request, memory-service
/// mix, II stalls...). No-op for inactive spans and CPU-native runs.
void set_backend_span_attrs(const trace::Span& span, const RunReport& report);

/// Everything a classification run reports.
struct RunReport {
  std::vector<std::uint8_t> predictions;
  /// Simulated seconds for GpuSim/FpgaSim; wall-clock seconds for CpuNative.
  double seconds = 0.0;
  bool simulated = true;
  std::optional<gpusim::Counters> gpu_counters;
  std::optional<gpusim::Timing> gpu_timing;
  std::optional<fpgasim::FpgaReport> fpga_report;

  /// Human-readable trail of every retry and degradation step taken to
  /// produce this result (empty when the configured backend answered first
  /// try), filled by the degradation plan's walkers, never by classify().
  std::vector<std::string> degradations;
  bool degraded() const { return !degradations.empty(); }

  /// Fraction of predictions matching `labels`.
  double accuracy(std::span<const std::uint8_t> labels) const;
};

/// Classifier configuration. Layout parameters apply to the hierarchical
/// variants; device configs to their respective backends.
struct ClassifierOptions {
  Variant variant = Variant::Hybrid;
  Backend backend = Backend::GpuSim;
  HierConfig layout{};
  gpusim::DeviceConfig gpu = gpusim::DeviceConfig::titan_xp();
  fpgasim::FpgaConfig fpga = fpgasim::FpgaConfig::alveo_u250();
  fpgasim::CuLayout fpga_layout{};
  bool fpga_split_stage1 = false;
};

/// The library's front door: holds a trained forest (immutable, shared)
/// plus the inference layout it was compiled into (the FIL baseline's is
/// its device image), validates query batches and executes them on the
/// configured backend.
/// It neither retries nor degrades: that is the degradation plan's job
/// (core/degradation_plan.hpp).
///
///   Forest f = train_forest(train_set, TrainConfig{});
///   Classifier clf(std::move(f), {.variant = Variant::Hybrid,
///                                 .backend = Backend::GpuSim});
///   RunReport r = clf.classify(test_set);
///
/// Invalid combinations (e.g. FilBaseline on FpgaSim) throw ConfigError at
/// construction; resource overruns (root subtree vs shared memory/BRAM)
/// throw ResourceError at classify time, mirroring real launch failures,
/// and always propagate to the caller.
class Classifier {
 public:
  /// The forest is held through a shared immutable pointer: classifiers
  /// built from one pointer (every rung of a degradation plan, every
  /// worker of a server, every shard of a cluster) share one copy. The
  /// by-value overloads move the forest into a pointer of their own.
  /// A null pointer throws ConfigError.
  Classifier(std::shared_ptr<const Forest> forest, ClassifierOptions options);
  Classifier(Forest forest, ClassifierOptions options);

  /// Wraps a forest plus a *precompiled* layout blob (layout_io), skipping
  /// the layout build — the production path where model compilation
  /// happened offline. The layout must match the forest's feature/class
  /// shape (ConfigError otherwise); variant must be Csr for a CSR layout,
  /// hierarchical for a hierarchical one.
  Classifier(std::shared_ptr<const Forest> forest, CsrForest layout, ClassifierOptions options);
  Classifier(std::shared_ptr<const Forest> forest, HierarchicalForest layout,
             ClassifierOptions options);
  Classifier(Forest forest, CsrForest layout, ClassifierOptions options);
  Classifier(Forest forest, HierarchicalForest layout, ClassifierOptions options);

  /// Trains a forest on `train` and wraps it.
  static Classifier train(const Dataset& train, const TrainConfig& train_config,
                          ClassifierOptions options);

  /// Loads a serialized forest (Forest::save) and wraps it.
  static Classifier load(const std::string& path, ClassifierOptions options);

  /// Classifies a query batch (a row range; a Dataset converts to its
  /// whole-rows view) as `variant` (default: the configured one):
  /// another variant runs this classifier's own layout (a hierarchical
  /// layout serves every hierarchical variant its backend has); one the
  /// layout does not serve throws ConfigError. Queries are validated up
  /// front: a feature count differing from the model's, or any NaN/Inf
  /// feature value, throws ConfigError before any traversal runs.
  /// ResourceError from a simulated backend propagates.
  RunReport classify(QueryView queries, std::optional<Variant> variant = {}) const;

  const Forest& forest() const { return *forest_; }
  /// The shared forest itself, to build further classifiers over it.
  const std::shared_ptr<const Forest>& shared_forest() const { return forest_; }
  const ClassifierOptions& options() const { return options_; }
  /// The hierarchical layout (built or adopted in the constructor; throws
  /// for CSR/FIL variants).
  const HierarchicalForest& hierarchical() const;
  const CsrForest& csr() const;
  /// The FIL baseline's device image, built at construction, or nullptr
  /// for every other variant: their kernels read the CSR or hierarchical
  /// layout directly. Immutable; concurrent classify() calls share it.
  const gpukernels::DeviceImage* device_image() const {
    return image_ ? &*image_ : nullptr;
  }

 private:
  void check_variant_backend() const;
  void validate_queries(QueryView queries) const;
  /// `variant` (default: the configured one) when this classifier's
  /// compiled layout serves it on its backend; ConfigError otherwise.
  Variant served_variant(std::optional<Variant> variant) const;

  std::shared_ptr<const Forest> forest_;
  ClassifierOptions options_;
  std::optional<CsrForest> csr_;
  std::optional<HierarchicalForest> hier_;
  std::optional<gpukernels::DeviceImage> image_;
};

}  // namespace hrf
