#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "cpu/cpu_kernels.hpp"
#include "gpukernels/kernels.hpp"
#include "gpusim/device.hpp"
#include "inputs.hpp"
#include "layout/hierarchical.hpp"

namespace perfbench {

namespace {

/// Times `f` as one root span named `name`; returns microseconds.
template <class F>
double timed_us(SpanRecorder& spans, const char* name, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  spans.record(name, 0, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-3;
}

hrf::Dataset head(const hrf::Dataset& d, std::size_t rows) {
  hrf::Dataset out(rows, d.num_features(), d.num_classes());
  for (std::size_t i = 0; i < rows; ++i) out.push_back(d.sample(i), d.label(i));
  return out;
}

std::vector<std::pair<const char*, std::uint64_t>> counter_fields(const hrf::gpusim::Counters& c) {
  return {{"gld_requests", c.gld_requests},
          {"gst_requests", c.gst_requests},
          {"gld_transactions", c.gld_transactions},
          {"gst_transactions", c.gst_transactions},
          {"l1_hits", c.l1_hits},
          {"l2_hits", c.l2_hits},
          {"dram_transactions", c.dram_transactions},
          {"smem_loads", c.smem_loads},
          {"smem_stores", c.smem_stores},
          {"branches", c.branches},
          {"divergent_branches", c.divergent_branches},
          {"atomic_transactions", c.atomic_transactions},
          {"warp_instructions", c.warp_instructions}};
}

}  // namespace

LayerReport probe_layers(const hrf::Forest& forest, std::uint64_t seed, SpanRecorder& spans) {
  LayerReport rep;
  auto put = [&](const std::string& name, double value, const char* unit) {
    rep.metrics[name] = Metric{value, unit};
  };
  auto check = [&](const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want) {
    ++rep.attempted;
    if (got != want) ++rep.mismatched;
  };

  // The offline-gpu blocks and the routed-cpu requests of this seed.
  const RequestPool blocks = make_request_pool(forest, 16, 1024, seed);
  const RequestPool requests = make_request_pool(forest, 64, 256, seed);

  // layout: HierarchicalForest::build with the default SD/RSD.
  std::optional<hrf::HierarchicalForest> hier;
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    hier.reset();
    build_ms.push_back(1e-3 * timed_us(spans, "layout.build", [&] {
                         hier.emplace(hrf::HierarchicalForest::build(forest, hrf::HierConfig{}));
                       }));
  }
  put("layout.build_ms", median(build_ms), "ms");
  put("layout.mb", static_cast<double>(hier->memory_bytes()) * 1e-6, "MB");

  // gpusim: Device construction alone.
  const hrf::gpusim::DeviceConfig gpu = hrf::gpusim::DeviceConfig::titan_xp();
  std::vector<double> ctor_us;
  for (int i = 0; i < 201; ++i) {
    std::optional<hrf::gpusim::Device> dev;
    ctor_us.push_back(timed_us(spans, "gpusim.device_ctor", [&] { dev.emplace(gpu); }));
  }
  put("gpusim.device_ctor_us", median(ctor_us), "us");

  // gpukernels: run_hybrid on a fresh Device at 1 and 1024 rows, on the
  // layout the Classifier itself holds.
  const hrf::Classifier clf(forest, hrf::ClassifierOptions{});
  auto run_hybrid_us = [&](const hrf::Dataset& q, const std::vector<std::uint8_t>& want) {
    hrf::gpusim::Device dev(gpu);
    hrf::gpukernels::KernelResult r;
    const double us = timed_us(spans, "gpukernels.run_hybrid", [&] {
      r = hrf::gpukernels::run_hybrid(dev, clf.hierarchical(), q);
    });
    check(r.predictions, want);
    return us;
  };
  const hrf::Dataset one = head(blocks.requests[0], 1);
  const std::vector<std::uint8_t> one_want(blocks.expected[0].begin(),
                                           blocks.expected[0].begin() + 1);
  std::vector<double> fixed_us, full_us;
  for (int i = 0; i < 21; ++i) fixed_us.push_back(run_hybrid_us(one, one_want));
  for (int i = 0; i < 5; ++i) {
    full_us.push_back(run_hybrid_us(blocks.requests[0], blocks.expected[0]));
  }
  const double fixed = median(fixed_us);
  put("gpukernels.fixed_us", fixed, "us");
  put("gpukernels.host_ns_per_row", nonnegative_difference(median(full_us), fixed) * 1e3 / 1023.0,
      "ns");

  // core: Classifier::classify minus the Device constructor and run_hybrid
  // on the same 8-row batch, interleaved so drift hits all three alike.
  // The overhead is tens of microseconds under milliseconds of kernel, so
  // each part is its fastest repeat: noise only ever adds time.
  const hrf::Dataset eight = head(blocks.requests[0], 8);
  const std::vector<std::uint8_t> eight_want(blocks.expected[0].begin(),
                                             blocks.expected[0].begin() + 8);
  std::vector<double> classify_us, batch_ctor_us, batch_run_us;
  for (int i = 0; i < 31; ++i) {
    hrf::RunReport r;
    classify_us.push_back(timed_us(spans, "core.classify", [&] { r = clf.classify(eight); }));
    check(r.predictions, eight_want);
    std::optional<hrf::gpusim::Device> dev;
    batch_ctor_us.push_back(timed_us(spans, "gpusim.device_ctor", [&] { dev.emplace(gpu); }));
    batch_run_us.push_back(run_hybrid_us(eight, eight_want));
  }
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  put("core.overhead_us",
      nonnegative_difference(fastest(classify_us), fastest(batch_ctor_us) + fastest(batch_run_us)),
      "us");

  // cpu: hierarchical traversal of one routed-cpu request.
  std::vector<double> cpu_us;
  for (int i = 0; i < 31; ++i) {
    std::vector<std::uint8_t> got;
    cpu_us.push_back(timed_us(spans, "cpu.classify_hierarchical", [&] {
      got = hrf::cpu::classify_hierarchical(*hier, requests.requests[0]);
    }));
    check(got, requests.expected[0]);
  }
  const auto request_rows = static_cast<double>(requests.requests[0].num_samples());
  put("cpu.ns_per_row", median(cpu_us) * 1e3 / request_rows, "ns");

  // gpusim modeled counters over the offline-gpu block pool, each block
  // once, so they depend on the seed only, never on timing.
  hrf::gpusim::Counters sum;
  double modeled_seconds = 0.0;
  double rows = 0.0;
  std::optional<hrf::RunReport> first;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    hrf::RunReport r;
    timed_us(spans, "core.classify", [&] { r = clf.classify(blocks.requests[k]); });
    check(r.predictions, blocks.expected[k]);
    sum += r.gpu_counters.value();
    modeled_seconds += r.seconds;
    rows += static_cast<double>(blocks.requests[k].num_samples());
    if (k == 0) first = std::move(r);
  }
  put("gpusim.modeled_ns_per_row", modeled_seconds * 1e9 / rows, "modeled_ns");
  put("gpusim.gld_txn_per_row", static_cast<double>(sum.gld_transactions) / rows, "count");
  put("gpusim.smem_loads_per_row", static_cast<double>(sum.smem_loads) / rows, "count");
  put("gpusim.branch_efficiency", sum.branch_efficiency(), "ratio");

  // Determinism: the first block again, twice; modeled seconds and every
  // counter must repeat exactly.
  const auto first_fields = counter_fields(first->gpu_counters.value());
  for (int i = 0; i < 2; ++i) {
    hrf::RunReport r;
    timed_us(spans, "core.classify", [&] { r = clf.classify(blocks.requests[0]); });
    check(r.predictions, blocks.expected[0]);
    const auto fields = counter_fields(r.gpu_counters.value());
    const bool same_counts =
        std::equal(fields.begin(), fields.end(), first_fields.begin(),
                   [](const auto& a, const auto& b) { return a.second == b.second; });
    if (r.seconds != first->seconds || !same_counts) rep.modeled_deterministic = false;
  }
  for (const auto& [field, value] : first_fields) {
    put(std::string("gpusim.block0.") + field, static_cast<double>(value), "count");
  }
  put("gpusim.block0.modeled_ns", first->seconds * 1e9, "modeled_ns");
  return rep;
}

}  // namespace perfbench
