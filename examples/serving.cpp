// Serving a forest behind the ForestServer (docs/serving.md): a worker
// pool of classifier replicas fed by a bounded queue, with admission
// control, per-request deadlines, retry, a circuit breaker routing to a
// CPU-native fallback, and graceful drain. This example walks the happy
// path, then arms a persistent injected GPU fault to show every request
// still being answered — degraded, never wrong — before a clean shutdown.
//
//   ./build/examples/serving

#include <cstdio>
#include <future>
#include <vector>

#include "core/hrf.hpp"
#include "util/fault.hpp"

int main() {
  using namespace hrf;

  // A small model and a batch of queries to serve.
  SyntheticSpec data_spec;
  data_spec.name = "serving-demo";
  data_spec.num_samples = 4000;
  data_spec.num_features = 12;
  data_spec.num_relevant = 8;
  data_spec.seed = 7;
  const Dataset data = make_synthetic(data_spec);

  TrainConfig train_cfg;
  train_cfg.num_trees = 12;
  train_cfg.max_depth = 10;
  Forest forest = train_forest(data, train_cfg);

  Dataset queries(256, data.num_features(), data.num_classes());
  for (std::size_t i = 0; i < 256; ++i) queries.push_back(data.sample(i), data.label(i));

  // Primary backend: simulated GPU, hybrid layout. Its failures reach the
  // server's retry + breaker, then the rest of the degradation plan.
  ClassifierOptions copt;
  copt.backend = Backend::GpuSim;
  copt.variant = Variant::Hybrid;
  copt.layout.subtree_depth = 6;

  serve::ServerOptions sopt;
  sopt.num_workers = 2;
  sopt.queue_capacity = 16;
  sopt.retry.max_retries = 1;
  sopt.retry.backoff_base_seconds = 1e-4;
  sopt.breaker.failure_threshold = 2;
  sopt.breaker.open_seconds = 60.0;  // stays open for the rest of the demo

  serve::ForestServer server(std::move(forest), copt, sopt);
  std::printf("server up: ready=%s workers=%zu queue=%zu\n",
              server.ready() ? "yes" : "no", sopt.num_workers, sopt.queue_capacity);

  // Happy path: a few requests served by the primary backend.
  std::vector<std::future<serve::ServeResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(queries));
  for (auto& f : futures) {
    const serve::ServeResult res = f.get();
    std::printf("  served %zu queries in %.3f ms (queued %.3f ms, fallback=%s)\n",
                res.report.predictions.size(), res.service_seconds * 1e3,
                res.queue_seconds * 1e3, res.via_fallback ? "yes" : "no");
  }

  // Now the GPU "fails" persistently: the breaker trips after two
  // consecutive failures and later requests skip straight to the
  // CPU-native replica, with the degradation recorded per response.
  std::printf("\narming persistent resource:gpu fault...\n");
  FaultInjector::global().arm("resource:gpu", -1);
  for (int i = 0; i < 4; ++i) {
    const serve::ServeResult res = server.submit(queries).get();
    std::printf("  served via fallback=%s, retries=%d%s%s\n",
                res.via_fallback ? "yes" : "no", res.retries,
                res.report.degraded() ? ": " : "",
                res.report.degraded() ? res.report.degradations.back().c_str() : "");
  }
  FaultInjector::global().disarm_all();

  const serve::ServerStats stats = server.stats();
  std::printf("\nbreaker: %s (trips=%llu, short-circuited=%llu)\n",
              serve::to_string(stats.breaker),
              static_cast<unsigned long long>(stats.breaker_trips),
              static_cast<unsigned long long>(stats.breaker_short_circuited));
  std::printf("%s", server.counters().to_markdown().c_str());

  const serve::DrainReport drain = server.shutdown();
  std::printf("shutdown: drained=%zu abandoned=%zu healthy=%s\n", drain.drained,
              drain.abandoned, server.healthy() ? "yes" : "no");
  return server.healthy() && drain.abandoned == 0 ? 0 : 1;
}
