// ForestServer concurrency + robustness coverage: admission control,
// deadline shedding and time-boxing, retry, breaker trip/half-open/close,
// graceful drain — all driven deterministically by the global
// FaultInjector. The whole file also runs under ThreadSanitizer via
// tools/check.sh.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/error.hpp"
#include "obs/exporter.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

Forest small_forest() {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 9;
  spec.num_features = 7;
  spec.seed = 33;
  return make_random_forest(spec);
}

ClassifierOptions gpu_hybrid_options() {
  ClassifierOptions opt;
  opt.backend = Backend::GpuSim;
  opt.variant = Variant::Hybrid;
  opt.layout.subtree_depth = 4;
  opt.gpu = gpusim::DeviceConfig::titan_xp();
  opt.gpu.num_sms = 4;
  return opt;
}

ServerOptions fast_server(std::size_t workers = 2) {
  ServerOptions s;
  s.num_workers = workers;
  s.queue_capacity = 64;
  s.retry.max_retries = 0;
  s.retry.backoff_base_seconds = 1e-5;
  s.breaker.failure_threshold = 1000;  // effectively off unless a test lowers it
  return s;
}

class ForestServerTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm_all(); }
  void TearDown() override { FaultInjector::global().disarm_all(); }

  Forest forest_ = small_forest();
  Dataset queries_ = make_random_queries(200, 7, 5);
  std::vector<std::uint8_t> reference_ =
      forest_.classify_batch(queries_.features(), queries_.num_samples());
};

TEST_F(ForestServerTest, ServesConcurrentClientsBitIdentically) {
  ForestServer server(forest_, gpu_hybrid_options(), fast_server(3));
  EXPECT_TRUE(server.ready());

  constexpr int kClients = 4;
  constexpr int kPerClient = 5;
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kPerClient; ++r) {
        ServeResult res = server.submit(queries_).get();
        if (res.report.predictions == reference_ && !res.via_fallback) correct.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(correct.load(), kClients * kPerClient);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.fallback_served, 0u);

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_FALSE(drain.deadline_hit);
  EXPECT_TRUE(server.healthy());
}

TEST_F(ForestServerTest, LatencyHistogramsTrackEveryCompletedRequest) {
  ForestServer server(forest_, gpu_hybrid_options(), fast_server(2));
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    ServeResult res = server.submit(queries_).get();
    EXPECT_GT(res.service_seconds, 0.0);
  }

  const LatencyStats lat = server.latency();
  EXPECT_EQ(lat.queue_wait.total, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(lat.execute.total, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(lat.end_to_end.total, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(lat.execute.percentile_ns(50), 0.0);
  // End-to-end bounds execute: each sample is queue-wait + execute.
  EXPECT_GE(lat.end_to_end.max_ns, lat.execute.max_ns);
  EXPECT_GE(lat.end_to_end.percentile_ns(95), lat.execute.percentile_ns(50));

  const std::string md = lat.to_markdown();
  for (const char* stage : {"queue-wait", "execute", "end-to-end", "p95", "p99"}) {
    EXPECT_NE(md.find(stage), std::string::npos) << stage;
  }
  server.shutdown();
}

TEST_F(ForestServerTest, AdmissionControlRejectsWhenQueueFull) {
  ServerOptions sopt = fast_server(1);
  sopt.queue_capacity = 4;
  sopt.start_paused = true;  // stage a backlog deterministically
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  EXPECT_FALSE(server.ready());  // paused

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(queries_));
  EXPECT_EQ(server.queue_depth(), 4u);
  EXPECT_THROW(server.submit(queries_), OverloadError);
  EXPECT_EQ(server.stats().rejected_overload, 1u);

  server.resume();
  EXPECT_TRUE(server.ready());
  for (auto& f : futures) EXPECT_EQ(f.get().report.predictions, reference_);
  EXPECT_EQ(server.stats().completed, 4u);
}

// Unbatched shedding semantics; order-robust (no assumption about which
// queue position dispatches first). The batched counterpart — an expired
// member shed at dispatch without poisoning batchmates — is
// BatchedServerTest.ExpiredMemberIsShedWithoutPoisoningBatchmates.
TEST_F(ForestServerTest, ExpiredQueuedRequestsAreShedBeforeDispatch) {
  ServerOptions sopt = fast_server(1);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  std::future<ServeResult> doomed = server.submit(queries_, /*deadline_seconds=*/1e-4);
  std::future<ServeResult> fine = server.submit(queries_);  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let the deadline pass
  server.resume();

  EXPECT_THROW(doomed.get(), DeadlineError);
  EXPECT_EQ(fine.get().report.predictions, reference_);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(ForestServerTest, ExecutionIsTimeBoxedByChunkedCancellation) {
  ServerOptions sopt = fast_server(1);
  sopt.deadline_chunk_size = 1;  // poll the deadline after every query
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  // 4000 single-query simulated-GPU chunks cannot finish in 2 ms, so the
  // deadline expires mid-execution and the remaining work is abandoned.
  Dataset big = make_random_queries(4000, 7, 6);
  std::future<ServeResult> fut = server.submit(std::move(big), /*deadline_seconds=*/2e-3);
  EXPECT_THROW(fut.get(), DeadlineError);
  // On a loaded host the 2 ms can already be gone at dispatch, in which
  // case the request is shed from the queue instead of expiring
  // mid-execution; either way the deadline did the time-boxing.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.deadline_expired + stats.shed_deadline, 1u);
}

TEST_F(ForestServerTest, TransientFaultIsRetriedOnThePrimary) {
  FaultInjector::global().arm("resource:gpu", 1);  // first attempt fails
  ServerOptions sopt = fast_server(1);
  sopt.retry.max_retries = 2;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  ServeResult res = server.submit(queries_).get();
  EXPECT_EQ(res.report.predictions, reference_);
  EXPECT_FALSE(res.via_fallback);  // recovered on the primary
  EXPECT_EQ(res.retries, 1);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.fallback_served, 0u);
  EXPECT_EQ(stats.breaker, CircuitState::Closed);
}

TEST_F(ForestServerTest, PersistentFaultTripsBreakerAndDegradesToFallback) {
  FaultInjector::global().arm("resource:gpu", -1);
  ServerOptions sopt = fast_server(1);
  sopt.breaker.failure_threshold = 3;
  sopt.breaker.open_seconds = 60.0;  // stays open for the whole test
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  for (int i = 0; i < 5; ++i) {
    ServeResult res = server.submit(queries_).get();
    EXPECT_EQ(res.report.predictions, reference_);  // degraded, never wrong
    EXPECT_TRUE(res.via_fallback);
    ASSERT_FALSE(res.report.degradations.empty());
    EXPECT_NE(res.report.degradations.back().find("cpu-native fallback"), std::string::npos);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.fallback_served, 5u);
  EXPECT_EQ(stats.breaker, CircuitState::Open);
  EXPECT_EQ(stats.breaker_trips, 1u);
  // Requests 4 and 5 skipped the primary entirely.
  EXPECT_EQ(stats.breaker_short_circuited, 2u);
}

TEST_F(ForestServerTest, BreakerHalfOpensOnProbeAndClosesOnRecovery) {
  FaultInjector::global().arm("resource:gpu", 1);  // one failure, then healthy
  ServerOptions sopt = fast_server(1);
  sopt.breaker.failure_threshold = 1;
  sopt.breaker.open_seconds = 0.02;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  ServeResult degraded = server.submit(queries_).get();
  EXPECT_TRUE(degraded.via_fallback);
  EXPECT_EQ(server.breaker_state(), CircuitState::Open);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // cooldown elapses
  ServeResult probe = server.submit(queries_).get();
  EXPECT_FALSE(probe.via_fallback);  // the probe succeeded on the primary
  EXPECT_EQ(probe.report.predictions, reference_);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, CircuitState::Closed);
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
}

TEST_F(ForestServerTest, BreakerReopensWhenTheProbeFails) {
  FaultInjector::global().arm("resource:gpu", -1);
  ServerOptions sopt = fast_server(1);
  sopt.breaker.failure_threshold = 1;
  sopt.breaker.open_seconds = 0.02;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  EXPECT_TRUE(server.submit(queries_).get().via_fallback);  // trip 1
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ServeResult res = server.submit(queries_).get();  // probe fails -> trip 2
  EXPECT_TRUE(res.via_fallback);
  EXPECT_EQ(res.report.predictions, reference_);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker, CircuitState::Open);
  EXPECT_EQ(stats.breaker_trips, 2u);
  EXPECT_EQ(stats.breaker_probes, 1u);
}

TEST_F(ForestServerTest, GracefulShutdownDrainsTheBacklog) {
  ServerOptions sopt = fast_server(2);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(queries_));

  // shutdown() resumes a paused server so the backlog still drains.
  const DrainReport drain = server.shutdown(/*drain_deadline_seconds=*/30.0);
  EXPECT_EQ(drain.drained, 8u);
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_FALSE(drain.deadline_hit);
  for (auto& f : futures) EXPECT_EQ(f.get().report.predictions, reference_);
  EXPECT_FALSE(server.ready());
}

TEST_F(ForestServerTest, DrainDeadlineAbandonsLeftoverRequests) {
  ServerOptions sopt = fast_server(1);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(queries_));

  const DrainReport drain = server.shutdown(/*drain_deadline_seconds=*/0.0);
  EXPECT_EQ(drain.abandoned, 6u);
  EXPECT_TRUE(drain.deadline_hit);
  for (auto& f : futures) EXPECT_THROW(f.get(), ShutdownError);
  EXPECT_EQ(server.stats().abandoned, 6u);

  // Idempotent: a second shutdown returns the same report.
  const DrainReport again = server.shutdown();
  EXPECT_EQ(again.abandoned, 6u);
}

TEST_F(ForestServerTest, SubmissionsAfterShutdownAreRejected) {
  ForestServer server(forest_, gpu_hybrid_options(), fast_server(1));
  server.shutdown();
  EXPECT_THROW(server.submit(queries_), ShutdownError);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST_F(ForestServerTest, InvalidQueriesFailTheRequestNotTheServer) {
  ForestServer server(forest_, gpu_hybrid_options(), fast_server(1));
  Dataset wrong_shape = make_random_queries(10, 3, 5);  // model expects 7 features
  std::future<ServeResult> fut = server.submit(std::move(wrong_shape));
  EXPECT_THROW(fut.get(), ConfigError);
  // The worker survives the bad request and keeps serving.
  EXPECT_EQ(server.submit(queries_).get().report.predictions, reference_);
  EXPECT_TRUE(server.healthy());
}

TEST_F(ForestServerTest, PersistentFaultSpendsOneRetryBudgetAndTripsTheBreaker) {
  // One degradation chain: a dispatch pays step 0's retry budget plus one
  // try of the variant downgrade, each a single device bring-up, and every
  // primary failure reaches the breaker, which opens once failure_threshold
  // of them piled up.
  FaultInjector::global().arm("resource:gpu", -1);
  constexpr int kRetries = 2;
  constexpr std::uint64_t kAttempts = 1 + kRetries;
  constexpr int kDispatchesToTrip = 3;
  ServerOptions sopt = fast_server(1);
  sopt.retry.max_retries = kRetries;
  sopt.breaker.failure_threshold = kDispatchesToTrip * static_cast<int>(kAttempts);
  sopt.breaker.open_seconds = 60.0;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  const FaultInjector& inj = FaultInjector::global();
  const std::uint64_t before = inj.fired("resource:gpu");  // cumulative per process
  const auto fired = [&] { return inj.fired("resource:gpu") - before; };

  std::uint64_t expected = 0;
  for (int d = 1; d <= kDispatchesToTrip; ++d) {
    EXPECT_EQ(server.breaker_state(), CircuitState::Closed);
    const ServeResult res = server.submit(queries_).get();
    EXPECT_EQ(res.report.predictions, reference_);
    EXPECT_TRUE(res.via_fallback);
    EXPECT_EQ(res.retries, kRetries);
    // (1 + R) primary attempts, then one independent downgrade try — which
    // the dispatch that trips the breaker skips: an open breaker sends it
    // straight to the CPU step.
    expected += kAttempts + (d < kDispatchesToTrip ? 1 : 0);
    EXPECT_EQ(fired(), expected) << "dispatch " << d;
  }
  EXPECT_EQ(server.breaker_state(), CircuitState::Open);
  EXPECT_EQ(server.stats().breaker_trips, 1u);

  // Open: straight to the CPU step, no device bring-up at all.
  const ServeResult skipped = server.submit(queries_).get();
  EXPECT_EQ(skipped.report.predictions, reference_);
  EXPECT_TRUE(skipped.via_fallback);
  EXPECT_EQ(fired(), expected);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.breaker_short_circuited, 1u);
  EXPECT_EQ(stats.fallback_served, static_cast<std::uint64_t>(kDispatchesToTrip + 1));
}

// The acceptance scenario: 8 concurrent clients against a persistently
// failing GPU backend. Every request must either complete degraded
// (breaker -> CPU fallback, bit-identical predictions) or be rejected by
// admission control; no crashes, no hangs, clean drain.
TEST_F(ForestServerTest, ConcurrentClientsUnderPersistentFaultAllDegradeOrShed) {
  FaultInjector::global().arm("resource:gpu", -1);
  ServerOptions sopt = fast_server(4);
  sopt.queue_capacity = 8;  // small enough that overload is plausible
  sopt.retry.max_retries = 1;
  sopt.breaker.failure_threshold = 2;
  sopt.breaker.open_seconds = 0.005;  // exercises open/half-open churn too
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  constexpr int kClients = 8;
  constexpr int kPerClient = 8;
  std::atomic<int> ok{0}, overloaded{0}, wrong{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kPerClient; ++r) {
        try {
          ServeResult res = server.submit(queries_).get();
          ok.fetch_add(1);
          if (res.report.predictions != reference_) wrong.fetch_add(1);
        } catch (const OverloadError&) {
          overloaded.fetch_add(1);
        } catch (...) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok.load() + overloaded.load(), kClients * kPerClient);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_TRUE(server.healthy());

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(stats.fallback_served, stats.completed);  // the GPU never answered
  EXPECT_GE(stats.breaker_trips, 1u);
}


// --- Tracing + telemetry snapshot ----------------------------------------

const trace::SpanData* find_span(const trace::Trace& t, const std::string& prefix) {
  for (const trace::SpanData& s : t.spans) {
    if (s.name.rfind(prefix, 0) == 0) return &s;
  }
  return nullptr;
}

bool has_attr(const trace::SpanData& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return true;
  }
  return false;
}

TEST_F(ForestServerTest, FullSamplingTracesTheWholeRequestPath) {
  ServerOptions sopt = fast_server(1);
  sopt.trace_sampling = 1.0;
  sopt.default_deadline_seconds = 30.0;  // chunked path: per-chunk spans
  sopt.deadline_chunk_size = 64;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  for (int i = 0; i < 3; ++i) (void)server.submit(queries_).get();

  const auto traces = server.tracer().traces();
  ASSERT_EQ(traces.size(), 3u);
  for (const auto& t : traces) {
    const trace::SpanData& root = t->root();
    EXPECT_EQ(root.name, "request");
    EXPECT_TRUE(has_attr(root, "queries"));
    EXPECT_TRUE(has_attr(root, "outcome"));

    const trace::SpanData* queue = find_span(*t, "queue");
    ASSERT_NE(queue, nullptr);
    EXPECT_EQ(queue->parent_id, root.id);

    const trace::SpanData* exec = find_span(*t, "execute");
    ASSERT_NE(exec, nullptr);
    EXPECT_TRUE(has_attr(*exec, "worker"));
    EXPECT_TRUE(has_attr(*exec, "breaker"));

    const trace::SpanData* attempt = find_span(*t, "attempt-0");
    ASSERT_NE(attempt, nullptr);
    EXPECT_EQ(attempt->parent_id, exec->id);
    // GpuSim run: the attempt carries the device counters as attributes.
    EXPECT_TRUE(has_attr(*attempt, "gpu.branch_efficiency"));
    EXPECT_TRUE(has_attr(*attempt, "gpu.txn_per_request"));

    // 200 queries / 64-query chunks = 4 chunk spans under the attempt.
    const trace::SpanData* chunk = find_span(*t, "chunk-3");
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(chunk->parent_id, attempt->id);
    EXPECT_TRUE(has_attr(*chunk, "gpu.branch_efficiency"));
  }
  server.shutdown();
}

TEST_F(ForestServerTest, ZeroSamplingKeepsSpansInactive) {
  ServerOptions sopt = fast_server(1);  // trace_sampling defaults to 0
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  for (int i = 0; i < 3; ++i) (void)server.submit(queries_).get();
  const trace::TracerSummary sum = server.tracer().summary();
  EXPECT_EQ(sum.started, 3u);
  EXPECT_EQ(sum.sampled, 0u);
  EXPECT_EQ(sum.retained, 0u);
  server.shutdown();
}

TEST_F(ForestServerTest, RejectedSubmissionsRecordTheOutcome) {
  ServerOptions sopt = fast_server(1);
  sopt.queue_capacity = 2;
  sopt.start_paused = true;
  sopt.trace_sampling = 1.0;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  auto f1 = server.submit(queries_);
  auto f2 = server.submit(queries_);
  EXPECT_THROW(server.submit(queries_), OverloadError);
  server.resume();
  (void)f1.get();
  (void)f2.get();
  bool saw_rejected = false;
  for (const auto& t : server.tracer().traces()) {
    for (const auto& [k, v] : t->root().attributes) {
      if (k == "outcome" && v == "rejected_overload") saw_rejected = true;
    }
  }
  EXPECT_TRUE(saw_rejected);
  server.shutdown();
}

TEST_F(ForestServerTest, MetricsSnapshotCarriesTheFullTelemetrySurface) {
  ServerOptions sopt = fast_server(2);
  sopt.trace_sampling = 1.0;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) (void)server.submit(queries_).get();

  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  // Zero-fill contract: every documented counter is present even if unhit.
  for (const std::string& name : obs::counter_catalogue()) {
    EXPECT_TRUE(snap.counters.count(name)) << name;
  }
  EXPECT_EQ(snap.counters.at("requests.completed"), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.gauges.at("workers"), 2.0);
  ASSERT_EQ(snap.histograms.size(), 5u);  // queue_wait/execute/end_to_end/reload/batch_size
  EXPECT_EQ(snap.histograms[0].second.total, static_cast<std::uint64_t>(kRequests));

  ASSERT_EQ(snap.rollups.size(), 1u);
  EXPECT_EQ(snap.rollups[0].first.label(), "hybrid/gpu-sim/gen0");
  EXPECT_EQ(snap.rollups[0].second.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(snap.rollups[0].second.branch_efficiency(), 0.0);
  EXPECT_GT(snap.rollups[0].second.txn_per_request(), 0.0);

  EXPECT_TRUE(snap.has_traces);
  EXPECT_EQ(snap.traces.completed, static_cast<std::uint64_t>(kRequests));

  // The snapshot renders and validates through both exporters.
  EXPECT_NO_THROW(obs::check_metrics_schema(
      obs::to_prometheus(snap), obs::snapshot_to_json(snap).dump(2)));
  server.shutdown();
}

TEST_F(ForestServerTest, ConcurrentTracedTrafficWithLiveExport) {
  // The TSan stress: 8 clients under full sampling while a reader thread
  // snapshots metrics and renders traces concurrently.
  ServerOptions sopt = fast_server(3);
  sopt.trace_sampling = 1.0;
  sopt.trace_capacity = 16;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = server.metrics_snapshot();
      (void)obs::to_prometheus(snap);
      for (const auto& t : server.tracer().slowest(4)) (void)t->to_string();
    }
  });
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kPerClient; ++r) {
        if (server.submit(queries_).get().report.predictions == reference_) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const trace::TracerSummary sum = server.tracer().summary();
  EXPECT_EQ(sum.completed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(sum.retained, 16u);
  server.shutdown();
}

// The chaos harness replays failure scenarios expecting identical retry
// timing run-to-run: the jittered exponential backoff must be a pure
// function of (policy, attempt, rng state), bit-for-bit reproducible on
// any platform.
TEST(RetryBackoff, SequenceIsDeterministicUnderAFixedSeed) {
  const RetryPolicy policy;  // base 1e-3, max 0.1, jitter 0.5
  Xoshiro256 a(2024), b(2024);
  std::vector<double> seq;
  for (int attempt = 0; attempt < 8; ++attempt) {
    seq.push_back(retry_backoff_seconds(policy, attempt, a));
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Bitwise equality, not near-equality: same seed, same stream.
    EXPECT_EQ(seq[static_cast<std::size_t>(attempt)], retry_backoff_seconds(policy, attempt, b));
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Every draw stays inside nominal * [1 - jitter, 1 + jitter].
    const double nominal =
        std::min(std::ldexp(policy.backoff_base_seconds, attempt), policy.backoff_max_seconds);
    EXPECT_GE(seq[static_cast<std::size_t>(attempt)], nominal * 0.5);
    EXPECT_LE(seq[static_cast<std::size_t>(attempt)], nominal * 1.5);
  }
  // Attempts 7+ are capped: nominal growth stops at backoff_max_seconds.
  EXPECT_LE(seq[7], policy.backoff_max_seconds * 1.5);
}

TEST(RetryBackoff, GoldenSequencePinsTheCrossPlatformBitStream) {
  // Literals generated once from Xoshiro256(7).uniform(-1, 1); ldexp and
  // IEEE multiply are exactly rounded, so any platform reproduces these
  // bits. Regenerate only if the backoff algorithm itself changes.
  RetryPolicy policy;
  policy.backoff_base_seconds = 1e-3;
  policy.backoff_max_seconds = 0.1;
  policy.jitter_fraction = 0.5;
  Xoshiro256 rng(7);
  std::vector<double> seq;
  for (int attempt = 0; attempt < 4; ++attempt) {
    seq.push_back(retry_backoff_seconds(policy, attempt, rng));
  }
  const std::vector<double> golden = {
      0x1.3ab952e8c38edp-10,  // 0.0012005764821796897
      0x1.984a387f9c39bp-10,  // 0.0015575024589475686
      0x1.5f2ce08ce27b6p-8,   // 0.0053585098475056794
      0x1.8442c92a1b234p-7,   // 0.01184878180011948
  };
  ASSERT_EQ(seq.size(), golden.size());
  for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(seq[i], golden[i]);
}

}  // namespace
}  // namespace hrf::serve
