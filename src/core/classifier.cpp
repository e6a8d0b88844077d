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
                                                     const trace::Span& parent) const {
  require(chunk_size >= 1, "chunk_size must be >= 1");
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
    const RunReport r = classify(chunk);
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
    // Deduplicated so a persistent per-chunk degradation (e.g. every chunk
    // retried once) reads as one trail, not chunks-many copies.
    for (const std::string& d : r.degradations) {
      if (std::find(out.degradations.begin(), out.degradations.end(), d) ==
          out.degradations.end()) {
        out.degradations.push_back(d);
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

RunReport Classifier::run_backend(Backend backend, Variant variant, const CsrForest* csr,
                                  const HierarchicalForest* hier,
                                  const gpukernels::DeviceImage* image,
                                  const Dataset& queries) const {
  RunReport r;
  switch (backend) {
    case Backend::CpuNative: {
      WallTimer timer;
      r.predictions = variant == Variant::Csr ? cpu::classify_csr(*csr, queries)
                                              : cpu::classify_hierarchical(*hier, queries);
      r.seconds = timer.seconds();
      r.simulated = false;
      break;
    }
    case Backend::GpuSim: {
      gpusim::Device device(options_.gpu);
      gpukernels::KernelResult k;
      switch (variant) {
        case Variant::Csr: k = gpukernels::run_csr(device, *csr, queries); break;
        case Variant::Independent:
          k = image ? gpukernels::run_independent(device, *hier, *image, queries)
                    : gpukernels::run_independent(device, *hier, queries);
          break;
        case Variant::Collaborative:
          k = image ? gpukernels::run_collaborative(device, *hier, *image, queries)
                    : gpukernels::run_collaborative(device, *hier, queries);
          break;
        case Variant::Hybrid:
          k = image ? gpukernels::run_hybrid(device, *hier, *image, queries)
                    : gpukernels::run_hybrid(device, *hier, queries);
          break;
        case Variant::FilBaseline:
          k = image ? gpukernels::run_fil_baseline(device, forest_, *image, queries)
                    : gpukernels::run_fil_baseline(device, forest_, queries);
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
          k = fpgakernels::run_csr_fpga(*csr, queries, options_.fpga, options_.fpga_layout);
          break;
        case Variant::Independent:
          k = fpgakernels::run_independent_fpga(*hier, queries, options_.fpga,
                                                options_.fpga_layout);
          break;
        case Variant::Collaborative:
          k = fpgakernels::run_collaborative_fpga(*hier, queries, options_.fpga,
                                                  options_.fpga_layout);
          break;
        case Variant::Hybrid:
          k = fpgakernels::run_hybrid_fpga(*hier, queries, options_.fpga, options_.fpga_layout,
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

int Classifier::max_fitting_rsd() const {
  // Both backends store 8-byte nodes on chip (PackedNode on the GPU,
  // int32 feature + float value on the FPGA).
  constexpr std::size_t kNodeBytes = 8;
  std::size_t capacity = 0;
  if (options_.backend == Backend::GpuSim) {
    capacity = options_.gpu.shared_mem_per_block;
  } else if (options_.backend == Backend::FpgaSim) {
    const std::size_t cus = options_.fpga_split_stage1
                                ? 1
                                : static_cast<std::size_t>(options_.fpga_layout.cus_per_slr);
    capacity = options_.fpga.onchip_bytes_per_slr / std::max<std::size_t>(cus, 1);
  }
  if (capacity == 0) return 0;
  const std::size_t max_nodes = capacity / kNodeBytes;  // need 2^rsd - 1 <= max_nodes
  int rsd = 0;
  while (rsd < 24 && ((1ull << (rsd + 1)) - 1) <= max_nodes) ++rsd;
  return rsd;
}

RunReport Classifier::classify(const Dataset& queries) const {
  validate_queries(queries);

  const FallbackPolicy& fb = options_.fallback;
  if (!fb.enabled) {
    return run_backend(options_.backend, options_.variant, csr_ ? &*csr_ : nullptr,
                       hier_ ? &*hier_ : nullptr, device_image(), queries);
  }

  struct Attempt {
    Backend backend;
    Variant variant;
    const CsrForest* csr;
    const HierarchicalForest* hier;
    const gpukernels::DeviceImage* image;  // null: the kernel prepares one per call
    std::string note;  // degradation entry recorded when the chain reaches it
  };

  // Layouts materialized only if their chain step is reached would be
  // nicer, but both builds are cheap relative to classification and the
  // chain is only constructed on the (rare) configured path.
  std::optional<HierarchicalForest> shrunk;
  std::optional<CsrForest> cpu_csr;

  std::vector<Attempt> plan;
  plan.push_back({options_.backend, options_.variant, csr_ ? &*csr_ : nullptr,
                  hier_ ? &*hier_ : nullptr, device_image(), ""});
  if (options_.backend != Backend::CpuNative) {
    if (fb.allow_layout_shrink && options_.variant == Variant::Hybrid && hier_) {
      const int fit = max_fitting_rsd();
      const int cur = options_.layout.effective_root_depth();
      if (fit >= 1 && fit < cur) {
        HierConfig cfg = options_.layout;
        cfg.root_subtree_depth = fit;
        shrunk.emplace(HierarchicalForest::build(forest_, cfg));
        plan.push_back({options_.backend, Variant::Hybrid, nullptr, &*shrunk, nullptr,
                        "shrink rsd " + std::to_string(cur) + " -> " + std::to_string(fit)});
      }
    }
    if (fb.allow_variant_downgrade) {
      if ((options_.variant == Variant::Hybrid || options_.variant == Variant::Collaborative) &&
          hier_) {
        plan.push_back({options_.backend, Variant::Independent, nullptr, &*hier_,
                        device_image(), std::string("variant ") + to_string(options_.variant) +
                            " -> independent"});
      } else if (options_.variant == Variant::FilBaseline) {
        cpu_csr.emplace(CsrForest::build(forest_));
        plan.push_back({options_.backend, Variant::Csr, &*cpu_csr, nullptr, nullptr,
                        "variant fil-baseline -> csr"});
      }
    }
    if (fb.allow_cpu_fallback) {
      const std::string note =
          std::string("backend ") + to_string(options_.backend) + " -> cpu-native";
      if (hier_) {
        plan.push_back({Backend::CpuNative, Variant::Independent, nullptr, &*hier_, nullptr,
                        note + " (independent)"});
      } else {
        if (!csr_ && !cpu_csr) cpu_csr.emplace(CsrForest::build(forest_));
        plan.push_back({Backend::CpuNative, Variant::Csr, csr_ ? &*csr_ : &*cpu_csr, nullptr,
                        nullptr, note + " (csr)"});
      }
    }
  }

  std::vector<std::string> degradations;
  std::string last_error;
  for (const Attempt& a : plan) {
    if (!a.note.empty()) degradations.push_back("degrade: " + a.note);
    const int tries = 1 + std::max(0, fb.max_retries);
    for (int t = 0; t < tries; ++t) {
      try {
        RunReport r = run_backend(a.backend, a.variant, a.csr, a.hier, a.image, queries);
        r.degradations = std::move(degradations);
        return r;
      } catch (const ResourceError& e) {
        last_error = e.what();
        degradations.push_back(std::string(to_string(a.backend)) + "/" + to_string(a.variant) +
                               " attempt " + std::to_string(t + 1) + " failed: " + e.what());
      }
    }
  }
  throw ResourceError("classification failed after exhausting the fallback chain (" +
                      std::to_string(plan.size()) + " configurations); last error: " +
                      last_error);
}

}  // namespace hrf
