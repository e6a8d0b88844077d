// Microbenchmarks (wall-clock, google-benchmark): native CPU inference
// over the CSR vs hierarchical layouts. The hierarchical layout's cache
// behaviour helps real CPUs for the same reason it helps the simulated
// GPU — fewer dependent indirections per step and subtree-local accesses.

#include <benchmark/benchmark.h>

#include "cpu/cpu_kernels.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"

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

}  // namespace
