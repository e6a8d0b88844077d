#pragma once

#include <cstdint>
#include <functional>
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
#include "util/histogram.hpp"
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

  /// Chunk-level latency distribution when this report came from the
  /// chunked path (classify_stream, serving's time-boxed execution):
  /// one sample per chunk, in ns. nullopt for one-shot classify() runs,
  /// which have a single number (`seconds`) rather than a distribution.
  std::optional<HistogramSnapshot> latency;

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

/// The library's front door: owns a trained forest plus the inference
/// layout it was compiled into (and, on GpuSim, the device image the
/// kernels read), validates query batches and executes them on the
/// configured backend. It neither retries nor degrades: that is the
/// degradation plan's job (core/degradation_plan.hpp).
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
  Classifier(Forest forest, ClassifierOptions options);

  /// Wraps a forest plus a *precompiled* layout blob (layout_io), skipping
  /// the layout build — the production path where model compilation
  /// happened offline. The layout must match the forest's feature/class
  /// shape (ConfigError otherwise); variant must be Csr for a CSR layout,
  /// hierarchical for a hierarchical one.
  Classifier(Forest forest, CsrForest layout, ClassifierOptions options);
  Classifier(Forest forest, HierarchicalForest layout, ClassifierOptions options);

  /// Trains a forest on `train` and wraps it.
  static Classifier train(const Dataset& train, const TrainConfig& train_config,
                          ClassifierOptions options);

  /// Loads a serialized forest (Forest::save) and wraps it.
  static Classifier load(const std::string& path, ClassifierOptions options);

  /// Classifies a query batch as `variant` (default: the configured one):
  /// another variant runs this classifier's own layout and device image
  /// (a hierarchical layout serves every hierarchical variant its backend
  /// has); one the layout does not serve throws ConfigError. Queries are
  /// validated up front: a feature count differing from the model's, or
  /// any NaN/Inf feature value, throws ConfigError before any traversal
  /// runs. ResourceError from a simulated backend propagates.
  RunReport classify(const Dataset& queries, std::optional<Variant> variant = {}) const;

  /// Chunked classification for latency-bounded serving: classifies
  /// `queries` in chunks of `chunk_size`, reporting total and worst-chunk
  /// time. Predictions are identical to classify() — chunking only
  /// affects scheduling (verified by tests).
  struct StreamReport {
    std::vector<std::uint8_t> predictions;
    double total_seconds = 0.0;
    double max_chunk_seconds = 0.0;
    std::size_t chunks = 0;
    bool simulated = true;
    /// False when a cancel callback stopped the run early; `predictions`
    /// then holds only the chunks finished before cancellation.
    bool completed = true;
    /// Per-chunk latency histogram (one record per finished chunk, in
    /// ns of `seconds` — simulated or wall per the backend).
    HistogramSnapshot chunk_latency;
    /// Backend hardware counters summed across finished chunks (GpuSim
    /// backends), and the FPGA pipeline report aggregated the same way
    /// (seconds/cycles summed, descriptive fields from the first chunk).
    /// nullopt when the serving backend produced neither.
    std::optional<gpusim::Counters> gpu_counters;
    std::optional<fpgasim::FpgaReport> fpga_report;
  };
  /// When set, `cancel` is polled between chunks (never mid-chunk), and a
  /// true return abandons the remaining work with `completed == false`:
  /// the serving layer's execution time-box, so an expired dispatch stops
  /// burning the backend after at most one chunk. When `parent` is an
  /// active span, each chunk gets a "chunk-N" child span carrying its
  /// duration and backend counter attributes (see set_backend_span_attrs);
  /// inactive spans cost nothing. `variant` is as for classify().
  StreamReport classify_stream(const Dataset& queries, std::size_t chunk_size,
                               const std::function<bool()>& cancel = {},
                               const trace::Span& parent = {},
                               std::optional<Variant> variant = {}) const;

  const Forest& forest() const { return forest_; }
  const ClassifierOptions& options() const { return options_; }
  /// The hierarchical layout (built or adopted in the constructor; throws
  /// for CSR/FIL variants).
  const HierarchicalForest& hierarchical() const;
  const CsrForest& csr() const;
  /// The gpu-sim device image prepared at construction (the packed nodes
  /// of the hierarchical layout, or the FIL baseline's node arrays), or
  /// nullptr when the classifier has none: every CpuNative and FpgaSim
  /// classifier, and the GpuSim CSR variant, whose kernel reads the CSR
  /// layout directly. Immutable; concurrent classify() calls share it.
  const gpukernels::DeviceImage* device_image() const {
    return image_ ? &*image_ : nullptr;
  }

 private:
  void check_variant_backend() const;
  void validate_queries(const Dataset& queries) const;
  /// `variant` (default: the configured one) when this classifier's
  /// compiled layout serves it on its backend; ConfigError otherwise.
  Variant served_variant(std::optional<Variant> variant) const;
  /// Prepares image_ for a GpuSim hierarchical or FIL classifier (called
  /// once the layout is in place).
  void prepare_device_image();

  Forest forest_;
  ClassifierOptions options_;
  std::optional<CsrForest> csr_;
  std::optional<HierarchicalForest> hier_;
  std::optional<gpukernels::DeviceImage> image_;
};

}  // namespace hrf
