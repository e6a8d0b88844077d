#include "core/classifier.hpp"

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

namespace {

std::shared_ptr<const Forest> require_forest(std::shared_ptr<const Forest> forest) {
  require(forest != nullptr, "classifier needs a forest");
  return forest;
}

}  // namespace

Classifier::Classifier(std::shared_ptr<const Forest> forest, ClassifierOptions options)
    : forest_(require_forest(std::move(forest))), options_(options) {
  check_variant_backend();
  switch (options_.variant) {
    case Variant::Csr:
      csr_.emplace(CsrForest::build(*forest_));
      break;
    case Variant::FilBaseline:
      image_.emplace(*forest_);  // FIL's only layout is its device image
      break;
    default:
      hier_.emplace(HierarchicalForest::build(*forest_, options_.layout));
      break;
  }
}

Classifier::Classifier(Forest forest, ClassifierOptions options)
    : Classifier(std::make_shared<const Forest>(std::move(forest)), options) {}

Classifier::Classifier(std::shared_ptr<const Forest> forest, CsrForest layout,
                       ClassifierOptions options)
    : forest_(require_forest(std::move(forest))), options_(options) {
  require(options_.variant == Variant::Csr,
          "a precompiled CSR layout requires the csr variant");
  check_variant_backend();
  require(layout.num_features() == forest_->num_features() &&
              layout.num_classes() == forest_->num_classes(),
          "precompiled CSR layout does not match the forest's feature/class shape");
  csr_.emplace(std::move(layout));
}

Classifier::Classifier(std::shared_ptr<const Forest> forest, HierarchicalForest layout,
                       ClassifierOptions options)
    : forest_(require_forest(std::move(forest))), options_(options) {
  require(options_.variant == Variant::Independent ||
              options_.variant == Variant::Collaborative || options_.variant == Variant::Hybrid,
          "a precompiled hierarchical layout requires a hierarchical variant "
          "(independent/collaborative/hybrid)");
  check_variant_backend();
  require(layout.num_features() == forest_->num_features() &&
              layout.num_classes() == forest_->num_classes(),
          "precompiled hierarchical layout does not match the forest's feature/class shape");
  options_.layout = layout.config();
  hier_.emplace(std::move(layout));
}

Classifier::Classifier(Forest forest, CsrForest layout, ClassifierOptions options)
    : Classifier(std::make_shared<const Forest>(std::move(forest)), std::move(layout), options) {}

Classifier::Classifier(Forest forest, HierarchicalForest layout, ClassifierOptions options)
    : Classifier(std::make_shared<const Forest>(std::move(forest)), std::move(layout), options) {}

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

void Classifier::validate_queries(QueryView queries) const {
  if (queries.num_features() != forest_->num_features()) {
    throw ConfigError("query batch has " + std::to_string(queries.num_features()) +
                      " features but the model expects " +
                      std::to_string(forest_->num_features()));
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

RunReport Classifier::classify(QueryView queries, std::optional<Variant> requested) const {
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
        case Variant::Independent: k = gpukernels::run_independent(device, *hier_, queries); break;
        case Variant::Collaborative:
          k = gpukernels::run_collaborative(device, *hier_, queries);
          break;
        case Variant::Hybrid: k = gpukernels::run_hybrid(device, *hier_, queries); break;
        case Variant::FilBaseline:
          k = gpukernels::run_fil_baseline(device, *forest_, *image_, queries);
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
