// Micro-batching coverage (docs/serving.md, "Dynamic micro-batching"):
// fake-clock BatchFormer unit tests (the former never reads a clock, so
// every flush rule is pinned on synthetic time with zero sleeps), then
// ForestServer integration — batched responses bit-identical to the
// oracle, expired members shed without poisoning batchmates, poison
// requests isolated by per-member re-run, shape-incompatible requests
// kept out of combined batches, QoS counters balanced under batching.
// The whole file also runs under ThreadSanitizer via tools/check.sh.

#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

using TimePoint = BatchFormer::TimePoint;
using std::chrono::microseconds;
using std::chrono::milliseconds;

TimePoint t0() { return TimePoint{} + std::chrono::hours(1); }

BatchOptions batching(std::size_t max_requests, double max_wait_seconds = 100e-3,
                      double deadline_fraction = 0.5) {
  BatchOptions opt;
  opt.max_requests = max_requests;
  opt.max_wait_seconds = max_wait_seconds;
  opt.deadline_fraction = deadline_fraction;
  return opt;
}

TEST(BackendBatchGranularity, MatchesBackendNativeUnits) {
  gpusim::DeviceConfig gpu = gpusim::DeviceConfig::titan_xp();
  EXPECT_EQ(backend_batch_granularity(Backend::GpuSim, gpu),
            static_cast<std::size_t>(gpu.warp_size));
  gpu.warp_size = 64;
  EXPECT_EQ(backend_batch_granularity(Backend::GpuSim, gpu), 64u);
  EXPECT_EQ(backend_batch_granularity(Backend::FpgaSim, gpu), 32u);
  EXPECT_EQ(backend_batch_granularity(Backend::CpuNative, gpu), 16u);
}

TEST(BatchOptionsTest, EnabledOnlyAboveOneRequest) {
  EXPECT_FALSE(BatchOptions{}.enabled());
  EXPECT_FALSE(batching(1).enabled());
  EXPECT_TRUE(batching(2).enabled());
}

TEST(BatchFormerTest, RejectsBadOptions) {
  EXPECT_THROW(BatchFormer(batching(4), 0), ConfigError);
  EXPECT_THROW(BatchFormer(batching(4, -1.0), 32), ConfigError);
  EXPECT_THROW(BatchFormer(batching(4, 1e-3, 1.5), 32), ConfigError);
  EXPECT_THROW(BatchFormer(batching(4, 1e-3, -0.1), 32), ConfigError);
}

TEST(BatchFormerTest, FlushesWhenMemberBudgetFills) {
  BatchFormer former(batching(3), 32);
  EXPECT_FALSE(former.should_flush(t0()));  // empty formers never flush
  former.add(t0(), 4, false, {});
  former.add(t0(), 4, false, {});
  EXPECT_FALSE(former.full());
  EXPECT_FALSE(former.should_flush(t0()));
  former.add(t0(), 4, false, {});
  EXPECT_TRUE(former.full());
  // Full flushes immediately, long before the 100ms wait budget.
  EXPECT_TRUE(former.should_flush(t0()));
  EXPECT_EQ(former.size(), 3u);
  EXPECT_EQ(former.rows(), 12u);
}

TEST(BatchFormerTest, FlushesWhenRowBudgetFills) {
  // max_rows auto-resolves to max_requests x granularity = 4 x 8 = 32.
  BatchFormer former(batching(4), 8);
  EXPECT_EQ(former.max_rows(), 32u);
  former.add(t0(), 20, false, {});
  EXPECT_TRUE(former.fits(12));
  EXPECT_FALSE(former.fits(13));  // 20 + 13 > 32: leave it for the next batch
  former.add(t0(), 12, false, {});
  EXPECT_TRUE(former.full());
  EXPECT_TRUE(former.should_flush(t0()));
}

TEST(BatchFormerTest, EmptyFormerAlwaysFitsOneOversizedMember) {
  BatchFormer former(batching(4), 8);
  EXPECT_TRUE(former.fits(1000));  // never starve a request larger than max_rows
  former.add(t0(), 1000, false, {});
  EXPECT_TRUE(former.full());  // ...but it forms a batch of one
  EXPECT_FALSE(former.fits(1));
}

TEST(BatchFormerTest, FlushesOnMaxWaitExpiry) {
  BatchFormer former(batching(8, 100e-3), 32);
  former.add(t0(), 4, false, {});
  EXPECT_EQ(former.flush_deadline(), t0() + milliseconds(100));
  EXPECT_FALSE(former.should_flush(t0() + milliseconds(99)));
  EXPECT_TRUE(former.should_flush(t0() + milliseconds(100)));
}

TEST(BatchFormerTest, TightestMemberDeadlineClosesTheBatchEarly) {
  BatchFormer former(batching(8, 100e-3, 0.5), 32);
  // Member 1: 1s of budget left, grant = min(100ms, 500ms) = 100ms.
  former.add(t0(), 4, true, t0() + std::chrono::seconds(1));
  EXPECT_EQ(former.flush_deadline(), t0() + milliseconds(100));
  // Member 2 joins 10ms later with 40ms of budget: grant 20ms tightens
  // the whole batch to t0+30ms — the nearly-expired member wins.
  former.add(t0() + milliseconds(10), 4, true, t0() + milliseconds(50));
  EXPECT_EQ(former.flush_deadline(), t0() + milliseconds(30));
  EXPECT_FALSE(former.should_flush(t0() + milliseconds(29)));
  EXPECT_TRUE(former.should_flush(t0() + milliseconds(30)));
  // A later patient member cannot loosen the deadline back.
  former.add(t0() + milliseconds(11), 4, false, {});
  EXPECT_EQ(former.flush_deadline(), t0() + milliseconds(30));
}

TEST(BatchFormerTest, ExpiredMemberGrantsZeroWait) {
  BatchFormer former(batching(8, 100e-3), 32);
  former.add(t0(), 4, false, {});
  // A member already past its deadline grants nothing: the batch flushes
  // now, so the server sheds it at dispatch instead of letting it rot.
  former.add(t0() + milliseconds(5), 4, true, t0());
  EXPECT_TRUE(former.should_flush(t0() + milliseconds(5)));
}

TEST(BatchFormerTest, ResetForgetsMembersAndDeadline) {
  BatchFormer former(batching(4, 1e-3), 32);
  former.add(t0(), 8, true, t0() + milliseconds(1));
  former.reset();
  EXPECT_EQ(former.size(), 0u);
  EXPECT_EQ(former.rows(), 0u);
  EXPECT_FALSE(former.should_flush(t0() + std::chrono::hours(2)));
  former.add(t0() + milliseconds(10), 4, false, {});
  EXPECT_EQ(former.flush_deadline(), t0() + milliseconds(11));
}

// ---------------------------------------------------------------------------
// ForestServer integration
// ---------------------------------------------------------------------------

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

ServerOptions batched_server(std::size_t workers, std::size_t batch_max,
                             double max_wait_seconds = 500e-6) {
  ServerOptions s;
  s.num_workers = workers;
  s.queue_capacity = 64;
  s.retry.max_retries = 0;
  s.retry.backoff_base_seconds = 1e-5;
  s.breaker.failure_threshold = 1000;
  s.batching.max_requests = batch_max;
  s.batching.max_wait_seconds = max_wait_seconds;
  return s;
}

class BatchedServerTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm_all(); }
  void TearDown() override { FaultInjector::global().disarm_all(); }

  Forest forest_ = small_forest();
  Dataset queries_ = make_random_queries(12, 7, 5);
  std::vector<std::uint8_t> reference_ =
      forest_.classify_batch(queries_.features(), queries_.num_samples());
};

TEST_F(BatchedServerTest, BatchedBacklogServesBitIdentically) {
  ServerOptions sopt = batched_server(1, 8);
  sopt.start_paused = true;  // deterministic backlog: everything coalesces
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  constexpr int kRequests = 24;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kRequests; ++i) futures.push_back(server.submit(queries_));
  server.resume();
  for (std::future<ServeResult>& f : futures) {
    ServeResult res = f.get();
    EXPECT_EQ(res.report.predictions, reference_);
    EXPECT_FALSE(res.via_fallback);
  }

  // 24 queued requests through batch-max 8 on one worker: every dispatch
  // is a full batch, and every member is accounted exactly once.
  EXPECT_EQ(server.counters().value("requests.completed"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(server.counters().value("requests.batched"),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(server.counters().value("batch.formed"), 3u);
  const LatencyStats lat = server.latency();
  EXPECT_EQ(lat.batch_size.total, 3u);
  EXPECT_EQ(lat.batch_size.max_ns, 8u);  // member-count domain
  EXPECT_EQ(lat.queue_wait.total, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(lat.end_to_end.total, static_cast<std::uint64_t>(kRequests));
  server.shutdown();
}

TEST_F(BatchedServerTest, LoneRequestFlushesByDeadlineAndStillServes) {
  // Nothing else arrives, so the batch of one closes via max-wait expiry.
  ForestServer server(forest_, gpu_hybrid_options(), batched_server(1, 8, 200e-6));
  ServeResult res = server.submit(queries_).get();
  EXPECT_EQ(res.report.predictions, reference_);
  EXPECT_EQ(server.counters().value("batch.formed"), 1u);
  EXPECT_EQ(server.counters().value("batch.flush_deadline"), 1u);
  // A batch of one is not "batched" traffic.
  EXPECT_EQ(server.counters().value("requests.batched"), 0u);
  server.shutdown();
}

// One execution rule for every dispatch size, the one a lone request
// follows: a batch with a deadline-free member is one classify() call
// (device timing, no chunk histogram); a batch whose members all carry a
// deadline runs chunked and cancellable (chunk histogram, no timing).
TEST_F(BatchedServerTest, EveryDispatchSizeFollowsOneExecutionRule) {
  for (const double deadline_seconds : {0.0, 30.0}) {
    ServerOptions sopt = batched_server(1, 8);
    sopt.start_paused = true;
    sopt.default_deadline_seconds = deadline_seconds;
    ForestServer server(forest_, gpu_hybrid_options(), sopt);
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 4; ++i) futures.push_back(server.submit(queries_));
    server.resume();
    for (std::future<ServeResult>& f : futures) {
      const ServeResult res = f.get();
      EXPECT_EQ(res.report.predictions, reference_);
      EXPECT_EQ(res.report.gpu_timing.has_value(), deadline_seconds == 0.0);
      EXPECT_EQ(res.report.latency.has_value(), deadline_seconds > 0.0);
    }
    EXPECT_EQ(server.counters().value("requests.batched"), 4u) << deadline_seconds;
    server.shutdown();
  }
}

TEST_F(BatchedServerTest, ExpiredMemberIsShedWithoutPoisoningBatchmates) {
  ServerOptions sopt = batched_server(1, 8);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  // Two patient members first (the head's wait grant keeps the batch
  // open), then a doomed member whose deadline expires while paused.
  std::future<ServeResult> ok1 = server.submit(queries_, 0.0);
  std::future<ServeResult> ok2 = server.submit(queries_, 0.0);
  std::future<ServeResult> doomed = server.submit(queries_, 1e-3);
  std::this_thread::sleep_for(milliseconds(20));  // doomed is now expired
  server.resume();

  EXPECT_EQ(ok1.get().report.predictions, reference_);
  EXPECT_EQ(ok2.get().report.predictions, reference_);
  EXPECT_THROW(doomed.get(), DeadlineError);

  EXPECT_EQ(server.counters().value("requests.shed_deadline"), 1u);
  EXPECT_EQ(server.counters().value("requests.completed"), 2u);
  EXPECT_EQ(server.counters().value("requests.deadline_expired"), 0u);
  server.shutdown();
}

TEST_F(BatchedServerTest, PoisonMemberFailsAloneBatchmatesComplete) {
  ServerOptions sopt = batched_server(1, 8);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  Dataset poison = queries_;
  poison.sample(0)[0] = std::numeric_limits<float>::quiet_NaN();

  // The poison row fails the *combined* validation, which the batch
  // cannot pin on one member — the server re-runs each member alone, so
  // only the poison request sees the ConfigError.
  std::future<ServeResult> ok1 = server.submit(queries_);
  std::future<ServeResult> bad = server.submit(poison);
  std::future<ServeResult> ok2 = server.submit(queries_);
  server.resume();

  EXPECT_EQ(ok1.get().report.predictions, reference_);
  EXPECT_EQ(ok2.get().report.predictions, reference_);
  EXPECT_THROW(bad.get(), ConfigError);
  EXPECT_EQ(server.counters().value("requests.completed"), 2u);
  EXPECT_EQ(server.counters().value("requests.failed"), 1u);
  server.shutdown();
}

TEST_F(BatchedServerTest, ShapeMismatchedRequestNeverJoinsABatch) {
  ServerOptions sopt = batched_server(1, 8);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  // 5-feature queries against a 7-feature model: invalid, but the batcher
  // must isolate it by shape *before* execution — the good requests
  // around it still coalesce and serve.
  std::future<ServeResult> ok1 = server.submit(queries_);
  std::future<ServeResult> bad = server.submit(make_random_queries(4, 5, 9));
  std::future<ServeResult> ok2 = server.submit(queries_);
  server.resume();

  EXPECT_EQ(ok1.get().report.predictions, reference_);
  EXPECT_EQ(ok2.get().report.predictions, reference_);
  EXPECT_THROW(bad.get(), ConfigError);
  server.shutdown();
}

TEST_F(BatchedServerTest, QuotaCountersBalancePerTenantUnderBatching) {
  ServerOptions sopt = batched_server(2, 4);
  sopt.queue_capacity = 32;
  sopt.quotas.tenants = {{"alpha", 1.0}, {"beta", 1.0}};
  ForestServer server(forest_, gpu_hybrid_options(), sopt);

  constexpr int kPerTenant = 20;
  std::atomic<int> ok_alpha{0}, ok_beta{0}, shed{0};
  const auto client = [&](const std::string& tenant, std::atomic<int>& ok) {
    for (int i = 0; i < kPerTenant; ++i) {
      try {
        ServeResult res = server.submit(queries_, 0.0, tenant).get();
        if (res.report.predictions == reference_) ok.fetch_add(1);
      } catch (const QuotaError&) {
        shed.fetch_add(1);
      }
    }
  };
  std::thread a(client, "alpha", std::ref(ok_alpha));
  std::thread b(client, "beta", std::ref(ok_beta));
  a.join();
  b.join();

  // Every admitted request completed bit-identically; admitted + shed
  // accounts for every submission, per tenant.
  const std::vector<TenantCounters> rows = server.tenant_stats();
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t admitted = 0, quota_shed = 0;
  for (const TenantCounters& t : rows) {
    EXPECT_EQ(t.admitted + t.shed, static_cast<std::uint64_t>(kPerTenant)) << t.name;
    admitted += t.admitted;
    quota_shed += t.shed;
  }
  EXPECT_EQ(static_cast<int>(admitted), ok_alpha.load() + ok_beta.load());
  EXPECT_EQ(static_cast<int>(quota_shed), shed.load());
  EXPECT_EQ(server.counters().value("requests.completed"), admitted);
  EXPECT_EQ(server.counters().value("requests.failed"), 0u);
  server.shutdown();
}

TEST_F(BatchedServerTest, DrainCompletesEveryQueuedBatchMember) {
  ServerOptions sopt = batched_server(2, 8);
  sopt.start_paused = true;
  ForestServer server(forest_, gpu_hybrid_options(), sopt);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(server.submit(queries_));
  // shutdown() resumes a paused server; the backlog drains through the
  // batcher (stopping workers flush immediately instead of waiting out
  // the batch deadline).
  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  std::size_t answered = 0;
  for (std::future<ServeResult>& f : futures) {
    ServeResult res = f.get();
    EXPECT_EQ(res.report.predictions, reference_);
    ++answered;
  }
  EXPECT_EQ(answered, futures.size());
}

}  // namespace
}  // namespace hrf::serve
