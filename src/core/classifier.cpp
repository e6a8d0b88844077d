#include "core/classifier.hpp"

#include <algorithm>
#include <cmath>

#include "cpu/cpu_kernels.hpp"
#include "fpgakernels/fpga_kernels.hpp"
#include "gpukernels/kernels.hpp"
#include "train/forest_trainer.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace hrf {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::CpuNative: return "cpu-native";
    case Backend::GpuSim: return "gpu-sim";
    case Backend::FpgaSim: return "fpga-sim";
  }
  return "?";
}

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Csr: return "csr";
    case Variant::Independent: return "independent";
    case Variant::Collaborative: return "collaborative";
    case Variant::Hybrid: return "hybrid";
    case Variant::FilBaseline: return "fil-baseline";
  }
  return "?";
}

double RunReport::accuracy(std::span<const std::uint8_t> labels) const {
  require(labels.size() == predictions.size(), "label count != prediction count");
  if (labels.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) correct += predictions[i] == labels[i];
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

void Classifier::check_variant_backend() const {
  if (options_.variant == Variant::FilBaseline) {
    require(options_.backend == Backend::GpuSim,
            "the FIL baseline models cuML and only exists on the GPU backend");
  }
  if (options_.variant == Variant::Collaborative || options_.variant == Variant::Hybrid) {
    require(options_.backend != Backend::CpuNative,
            "collaborative/hybrid variants model on-chip memory; use GpuSim or FpgaSim "
            "(CpuNative supports Csr and Independent)");
  }
}

Classifier::Classifier(Forest forest, ClassifierOptions options)
    : forest_(std::move(forest)), options_(options) {
  check_variant_backend();
  switch (options_.variant) {
    case Variant::Csr:
      csr_.emplace(CsrForest::build(forest_));
      break;
    case Variant::FilBaseline:
      break;  // FIL's only layout is its device image
    default:
      hier_.emplace(HierarchicalForest::build(forest_, options_.layout));
      break;
  }
  prepare_device_image();
}

Classifier::Classifier(Forest forest, CsrForest layout, ClassifierOptions options)
    : forest_(std::move(forest)), options_(options) {
  require(options_.variant == Variant::Csr,
          "a precompiled CSR layout requires the csr variant");
  check_variant_backend();
  require(layout.num_features() == forest_.num_features() &&
              layout.num_classes() == forest_.num_classes(),
          "precompiled CSR layout does not match the forest's feature/class shape");
  csr_.emplace(std::move(layout));
}

Classifier::Classifier(Forest forest, HierarchicalForest layout, ClassifierOptions options)
    : forest_(std::move(forest)), options_(options) {
  require(options_.variant == Variant::Independent ||
              options_.variant == Variant::Collaborative || options_.variant == Variant::Hybrid,
          "a precompiled hierarchical layout requires a hierarchical variant "
          "(independent/collaborative/hybrid)");
  check_variant_backend();
  require(layout.num_features() == forest_.num_features() &&
              layout.num_classes() == forest_.num_classes(),
          "precompiled hierarchical layout does not match the forest's feature/class shape");
  options_.layout = layout.config();
  hier_.emplace(std::move(layout));
  prepare_device_image();
}

void Classifier::prepare_device_image() {
  if (options_.backend != Backend::GpuSim) return;
  // Built in place: a packed temporary copied into the member would
  // briefly hold the image twice.
  if (options_.variant == Variant::FilBaseline) {
    image_.emplace(forest_);
  } else if (hier_) {
    image_.emplace(*hier_);
  }
}

Classifier Classifier::train(const Dataset& train, const TrainConfig& train_config,
                             ClassifierOptions options) {
  return Classifier(train_forest(train, train_config), options);
}

Classifier Classifier::load(const std::string& path, ClassifierOptions options) {
  return Classifier(Forest::load(path), options);
}

const HierarchicalForest& Classifier::hierarchical() const {
  require(hier_.has_value(), "this variant does not use the hierarchical layout");
  return *hier_;
}

const CsrForest& Classifier::csr() const {
  require(csr_.has_value(), "this variant does not use the CSR layout");
  return *csr_;
}

Classifier::StreamReport Classifier::classify_stream(const Dataset& queries,
                                                     std::size_t chunk_size,
                                                     const std::function<bool()>& cancel,
                                                     const trace::Span& parent,
                                                     std::optional<Variant> requested) const {
  require(chunk_size >= 1, "chunk_size must be >= 1");
  const Variant variant = served_variant(requested);
  StreamReport out;
  out.predictions.reserve(queries.num_samples());
  LatencyHistogram chunk_hist;
  for (std::size_t lo = 0; lo < queries.num_samples(); lo += chunk_size) {
    if (cancel && cancel()) {
      out.completed = false;
      out.chunk_latency = chunk_hist.snapshot();
      return out;
    }
    const std::size_t hi = std::min(lo + chunk_size, queries.num_samples());
    Dataset chunk(hi - lo, queries.num_features(), queries.num_classes());
    chunk.set_name(queries.name());
    for (std::size_t i = lo; i < hi; ++i) chunk.push_back(queries.sample(i), queries.label(i));
    trace::Span span = parent.child("chunk-" + std::to_string(out.chunks));
    const RunReport r = classify(chunk, variant);
    if (span.active()) {
      span.set_attr("queries", static_cast<std::uint64_t>(hi - lo));
      span.set_attr("seconds", r.seconds);
      set_backend_span_attrs(span, r);
    }
    out.predictions.insert(out.predictions.end(), r.predictions.begin(), r.predictions.end());
    out.total_seconds += r.seconds;
    out.max_chunk_seconds = std::max(out.max_chunk_seconds, r.seconds);
    chunk_hist.record_seconds(r.seconds);
    out.simulated = r.simulated;
    if (r.gpu_counters) {
      if (!out.gpu_counters) out.gpu_counters.emplace();
      *out.gpu_counters += *r.gpu_counters;
    }
    if (r.fpga_report) {
      if (!out.fpga_report) {
        // First chunk seeds the descriptive fields (clock, II, limiter).
        out.fpga_report = *r.fpga_report;
      } else {
        out.fpga_report->seconds += r.fpga_report->seconds;
        out.fpga_report->pipeline_cycles += r.fpga_report->pipeline_cycles;
        out.fpga_report->total_cycles += r.fpga_report->total_cycles;
        out.fpga_report->stall_pct =
            out.fpga_report->total_cycles > 0.0
                ? 100.0 * (1.0 - out.fpga_report->pipeline_cycles / out.fpga_report->total_cycles)
                : 0.0;
      }
    }
    ++out.chunks;
  }
  out.chunk_latency = chunk_hist.snapshot();
  return out;
}

void set_backend_span_attrs(const trace::Span& span, const RunReport& report) {
  if (!span.active()) return;
  if (report.gpu_counters) {
    const gpusim::Counters& c = *report.gpu_counters;
    span.set_attr("gpu.branch_efficiency", c.branch_efficiency());
    span.set_attr("gpu.txn_per_request", c.transactions_per_request());
    span.set_attr("gpu.dram_transactions", c.dram_transactions);
    span.set_attr("gpu.l2_hits", c.l2_hits);
    span.set_attr("gpu.smem_loads", c.smem_loads);
  }
  if (report.fpga_report) {
    const fpgasim::FpgaReport& f = *report.fpga_report;
    span.set_attr("fpga.ii", f.ii_desc);
    span.set_attr("fpga.stall_pct", f.stall_pct);
    span.set_attr("fpga.limiter", f.limiter);
    span.set_attr("fpga.ii_stall_cycles",
                  f.total_cycles > f.pipeline_cycles ? f.total_cycles - f.pipeline_cycles : 0.0);
  }
}

void Classifier::validate_queries(const Dataset& queries) const {
  if (queries.num_features() != forest_.num_features()) {
    throw ConfigError("query batch has " + std::to_string(queries.num_features()) +
                      " features but the model expects " +
                      std::to_string(forest_.num_features()));
  }
  const std::span<const float> feats = queries.features();
  for (std::size_t i = 0; i < feats.size(); ++i) {
    if (!std::isfinite(feats[i])) {
      const std::size_t row = i / queries.num_features();
      const std::size_t col = i % queries.num_features();
      throw ConfigError("query " + std::to_string(row) + " feature " + std::to_string(col) +
                        " is not finite (NaN/Inf); rejecting the batch");
    }
  }
}

Variant Classifier::served_variant(std::optional<Variant> variant) const {
  const Variant v = variant.value_or(options_.variant);
  // A hierarchical layout serves every hierarchical variant its backend
  // has (collaborative/hybrid model on-chip memory, which the CPU lacks);
  // the CSR and FIL layouts serve only themselves.
  const bool served =
      v == options_.variant ||
      (hier_ && (v == Variant::Independent ||
                 ((v == Variant::Collaborative || v == Variant::Hybrid) &&
                  options_.backend != Backend::CpuNative)));
  if (!served) {
    throw ConfigError(std::string("a ") + to_string(options_.variant) + " classifier on " +
                      to_string(options_.backend) + " cannot run as " + to_string(v));
  }
  return v;
}

RunReport Classifier::classify(const Dataset& queries, std::optional<Variant> requested) const {
  const Variant variant = served_variant(requested);
  validate_queries(queries);
  RunReport r;
  switch (options_.backend) {
    case Backend::CpuNative: {
      WallTimer timer;
      r.predictions = variant == Variant::Csr ? cpu::classify_csr(*csr_, queries)
                                              : cpu::classify_hierarchical(*hier_, queries);
      r.seconds = timer.seconds();
      r.simulated = false;
      break;
    }
    case Backend::GpuSim: {
      gpusim::Device device(options_.gpu);
      gpukernels::KernelResult k;
      switch (variant) {
        case Variant::Csr: k = gpukernels::run_csr(device, *csr_, queries); break;
        case Variant::Independent:
          k = gpukernels::run_independent(device, *hier_, *image_, queries);
          break;
        case Variant::Collaborative:
          k = gpukernels::run_collaborative(device, *hier_, *image_, queries);
          break;
        case Variant::Hybrid: k = gpukernels::run_hybrid(device, *hier_, *image_, queries); break;
        case Variant::FilBaseline:
          k = gpukernels::run_fil_baseline(device, forest_, *image_, queries);
          break;
      }
      r.predictions = std::move(k.predictions);
      r.seconds = k.timing.seconds;
      r.gpu_counters = k.counters;
      r.gpu_timing = k.timing;
      break;
    }
    case Backend::FpgaSim: {
      fpgakernels::FpgaResult k;
      switch (variant) {
        case Variant::Csr:
          k = fpgakernels::run_csr_fpga(*csr_, queries, options_.fpga, options_.fpga_layout);
          break;
        case Variant::Independent:
          k = fpgakernels::run_independent_fpga(*hier_, queries, options_.fpga,
                                                options_.fpga_layout);
          break;
        case Variant::Collaborative:
          k = fpgakernels::run_collaborative_fpga(*hier_, queries, options_.fpga,
                                                  options_.fpga_layout);
          break;
        case Variant::Hybrid:
          k = fpgakernels::run_hybrid_fpga(*hier_, queries, options_.fpga, options_.fpga_layout,
                                           options_.fpga_split_stage1);
          break;
        case Variant::FilBaseline:
          throw ConfigError("FIL baseline is GPU-only");  // unreachable: ctor rejects
      }
      r.predictions = std::move(k.predictions);
      r.seconds = k.report.seconds;
      r.fpga_report = std::move(k.report);
      break;
    }
  }
  return r;
}

}  // namespace hrf
