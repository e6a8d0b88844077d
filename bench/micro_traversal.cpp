// Microbenchmarks (wall-clock, google-benchmark): native CPU inference
// over the CSR vs hierarchical layouts. The hierarchical layout's cache
// behaviour helps real CPUs for the same reason it helps the simulated
// GPU — fewer dependent indirections per step and subtree-local accesses.
// BM_GpuSimHybrid times the simulator itself: host cost, not modeled time.

#include <benchmark/benchmark.h>

#include <chrono>

#include "cpu/cpu_kernels.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "gpukernels/kernels.hpp"

namespace {

using namespace hrf;

struct Workload {
  Forest forest;
  CsrForest csr;
  Dataset queries;

  Workload()
      : forest(make_random_forest({.num_trees = 50,
                                   .max_depth = 18,
                                   .branch_prob = 0.72,
                                   .num_features = 20,
                                   .seed = 77})),
        csr(CsrForest::build(forest)),
        queries(make_random_queries(20'000, 20, 78)) {}
};

Workload& workload() {
  static Workload w;
  return w;
}

void BM_CpuCsr(benchmark::State& state) {
  const Workload& w = workload();
  for (auto _ : state) {
    auto preds = cpu::classify_csr(w.csr, w.queries);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.queries.num_samples()));
}
BENCHMARK(BM_CpuCsr)->Unit(benchmark::kMillisecond);

// Args: subtree depth, rows per call. 32-1024 rows is the serving range
// (routed CPU shards, degraded-mode rungs, shadow audits); 20000 is offline.
void BM_CpuHierarchical(benchmark::State& state) {
  const Workload& w = workload();
  HierConfig cfg;
  cfg.subtree_depth = static_cast<int>(state.range(0));
  const HierarchicalForest h = HierarchicalForest::build(w.forest, cfg);
  const Dataset queries = make_random_queries(static_cast<std::size_t>(state.range(1)), 20, 78);
  for (auto _ : state) {
    auto preds = cpu::classify_hierarchical(h, queries);
    benchmark::DoNotOptimize(preds.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.num_samples()));
}
BENCHMARK(BM_CpuHierarchical)
    ->ArgNames({"sd", "rows"})
    ->ArgsProduct({{4, 6, 8}, {32, 256, 1024, 20'000}})
    ->Unit(benchmark::kMillisecond);

void BM_PointerForest(benchmark::State& state) {
  const Workload& w = workload();
  for (auto _ : state) {
    auto preds = w.forest.classify_batch(w.queries.features(), w.queries.num_samples());
    benchmark::DoNotOptimize(preds.data());
  }
}
BENCHMARK(BM_PointerForest)->Unit(benchmark::kMillisecond);

// Host cost of one simulated gpu-sim/hybrid launch as serving pays it: a
// fresh device plus the kernel over the resident layout. The forest has
// the perfbench shape (100 trees, depth 20, HIGGS width); rows per call
// 32 (a small serving batch), 1024 (an offline block) and 7681 (31
// blocks, every SM busy). Real time, because the simulator runs a
// launch's SMs on up to one host thread per CPU.
void BM_GpuSimHybrid(benchmark::State& state) {
  static const Forest forest = make_random_forest(
      {.num_trees = 100, .max_depth = 20, .branch_prob = 0.72, .num_features = 28, .seed = 5});
  static const HierarchicalForest hier = HierarchicalForest::build(forest, HierConfig{});
  const auto rows = static_cast<std::size_t>(state.range(0));
  const Dataset queries = make_random_queries(rows, 28, 6);
  std::chrono::nanoseconds host{0};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    gpusim::Device device(gpusim::DeviceConfig::titan_xp());
    auto r = gpukernels::run_hybrid(device, hier, queries);
    benchmark::DoNotOptimize(r.predictions.data());
    host += std::chrono::steady_clock::now() - t0;
  }
  state.counters["host_ns_per_row"] =
      static_cast<double>(host.count()) /
      (static_cast<double>(state.iterations()) * static_cast<double>(rows));
}
// rows = 1 is the fixed per-launch cost: device set-up and root-subtree
// staging, which every launch pays whatever its size.
BENCHMARK(BM_GpuSimHybrid)
    ->ArgName("rows")
    ->Arg(1)
    ->Arg(32)
    ->Arg(1024)
    ->Arg(7681)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
