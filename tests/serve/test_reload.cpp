// Hot-reload state-machine coverage (docs/model-lifecycle.md): promote
// with canary traffic, every rejection and rollback trigger (bad CRC,
// shadow mismatch, canary starvation, post-promotion error spike, torn
// store manifest), and an 8-client reload-under-load stress test that
// must show zero client-visible failures and bit-identical predictions
// across swaps. The whole file also runs under ThreadSanitizer via
// tools/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/layout_io.hpp"
#include "serve/model_store.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

namespace fs = std::filesystem;

Forest make_forest(std::uint64_t seed) {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 8;
  spec.num_features = 7;
  spec.seed = seed;
  return make_random_forest(spec);
}

HierarchicalForest hier_layout(const Forest& forest) {
  HierConfig cfg;
  cfg.subtree_depth = 4;
  return HierarchicalForest::build(forest, cfg);
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

/// Background client pool: hammers the server until halt(), tallying
/// correctness against a fixed reference (the lifecycle contract is that
/// good reloads are bit-identical, so one reference validates all).
class Traffic {
 public:
  void start(ForestServer& server, const Dataset& queries,
             const std::vector<std::uint8_t>& reference, int clients) {
    for (int c = 0; c < clients; ++c) {
      threads_.emplace_back([this, &server, &queries, &reference] {
        while (!stop_.load(std::memory_order_acquire)) {
          try {
            const ServeResult res = server.submit(queries).get();
            ok_.fetch_add(1, std::memory_order_relaxed);
            if (res.report.predictions != reference) {
              wrong_.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const Error&) {
            failed_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  void halt() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
  ~Traffic() { halt(); }

  std::uint64_t ok() const { return ok_.load(std::memory_order_relaxed); }
  std::uint64_t wrong() const { return wrong_.load(std::memory_order_relaxed); }
  std::uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ok_{0}, wrong_{0}, failed_{0};
  std::vector<std::thread> threads_;
};

class ModelReloadTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disarm_all();
    dir_ = testing::TempDir() + "/hrf_reload_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store_.emplace(ModelStore::open(dir_));
    store_->publish(forest_, hier_layout(forest_), "gen1");
  }
  void TearDown() override {
    FaultInjector::global().disarm_all();
    store_.reset();
    fs::remove_all(dir_);
  }

  /// Reload options tuned for test runtime: no canary / no watch unless a
  /// test opts in.
  ReloadOptions quick_opts() const {
    ReloadOptions r;
    r.shadow_queries = 64;
    r.canary_success_requests = 0;
    r.post_promotion_watch_requests = 0;
    return r;
  }

  /// Publishes a generation whose layout was compiled from a *different*
  /// forest: structurally valid, behaviorally wrong — exactly what shadow
  /// validation exists to catch.
  std::uint64_t publish_behaviorally_wrong() {
    const std::string model_path = dir_ + "/wrong_model.hrff";
    const std::string blob_path = dir_ + "/wrong_layout.hrfl";
    forest_.save(model_path);
    save_hierarchical(hier_layout(make_forest(909)), blob_path);
    return store_->publish_files(model_path, blob_path, "behaviorally wrong");
  }

  void corrupt_generation_blob(std::uint64_t id) {
    char gen[32];
    std::snprintf(gen, sizeof gen, "gen-%06llu", static_cast<unsigned long long>(id));
    const std::string name = dir_ + "/" + gen + "/layout.hrfl";
    std::fstream f(name, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << name;
    f.seekg(64);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= '\x5A';
    f.seekp(64);
    f.write(&byte, 1);
  }

  std::string dir_;
  Forest forest_ = make_forest(33);
  std::optional<ModelStore> store_;
  Dataset queries_ = make_random_queries(64, 7, 5);
  std::vector<std::uint8_t> reference_ =
      forest_.classify_batch(queries_.features(), queries_.num_samples());
};

TEST_F(ModelReloadTest, ServesStoreGenerationBitIdentically) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.stats().model_generation, 1u);
  const ServeResult res = server.submit(queries_).get();
  EXPECT_EQ(res.report.predictions, reference_);
}

TEST_F(ModelReloadTest, ConstructionFromEmptyStoreThrows) {
  const std::string empty = dir_ + "_empty";
  ModelStore store = ModelStore::open(empty);
  EXPECT_THROW(ForestServer(store, gpu_hybrid_options(), fast_server()), ConfigError);
  fs::remove_all(empty);
}

TEST_F(ModelReloadTest, PromotesImmediatelyWithoutCanary) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  store_->publish(forest_, hier_layout(forest_), "gen2");
  const ReloadReport rep = server.reload_latest(*store_, quick_opts());
  EXPECT_EQ(rep.outcome, ReloadOutcome::Promoted);
  EXPECT_EQ(rep.from_generation, 1u);
  EXPECT_EQ(rep.to_generation, 2u);
  EXPECT_EQ(server.generation(), 2u);
  // Same forest republished: the swap must be invisible in predictions.
  EXPECT_EQ(server.submit(queries_).get().report.predictions, reference_);
  EXPECT_EQ(server.stats().reloads_promoted, 1u);
}

TEST_F(ModelReloadTest, ReloadLatestIsNoOpWhenCurrent) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  const ReloadReport rep = server.reload_latest(*store_, quick_opts());
  EXPECT_EQ(rep.outcome, ReloadOutcome::NoOp);
  EXPECT_TRUE(server.reload_history().empty());  // polling no-ops are not attempts
}

TEST_F(ModelReloadTest, CanaryPromotesUnderLiveTraffic) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  Traffic traffic;
  traffic.start(server, queries_, reference_, 4);

  store_->publish(forest_, hier_layout(forest_), "gen2");
  ReloadOptions opts = quick_opts();
  opts.canary_success_requests = 3;
  opts.canary_timeout_seconds = 10.0;
  const ReloadReport rep = server.reload(*store_, 2, opts);
  traffic.halt();

  EXPECT_EQ(rep.outcome, ReloadOutcome::Promoted);
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(traffic.wrong(), 0u);
  EXPECT_EQ(traffic.failed(), 0u);
  EXPECT_GT(traffic.ok(), 0u);
}

TEST_F(ModelReloadTest, CanaryWithoutTrafficRollsBack) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  store_->publish(forest_, hier_layout(forest_), "gen2");
  ReloadOptions opts = quick_opts();
  opts.canary_success_requests = 2;
  opts.canary_timeout_seconds = 0.05;  // no traffic is coming
  const ReloadReport rep = server.reload(*store_, 2, opts);
  EXPECT_EQ(rep.outcome, ReloadOutcome::RolledBackCanary);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.stats().reloads_rolled_back, 1u);
  // The rolled-back server still serves the old model correctly.
  EXPECT_EQ(server.submit(queries_).get().report.predictions, reference_);
}

TEST_F(ModelReloadTest, CorruptBlobIsRejectedAtLoad) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  const std::uint64_t id = store_->publish(forest_, hier_layout(forest_), "gen2");
  corrupt_generation_blob(id);
  const ReloadReport rep = server.reload(*store_, id, quick_opts());
  EXPECT_EQ(rep.outcome, ReloadOutcome::RejectedLoad);
  EXPECT_NE(rep.reason.find("checksum mismatch"), std::string::npos) << rep.reason;
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.stats().reloads_rejected, 1u);
  EXPECT_EQ(server.submit(queries_).get().report.predictions, reference_);
}

TEST_F(ModelReloadTest, ShadowMismatchIsRejected) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  const std::uint64_t id = publish_behaviorally_wrong();
  const ReloadReport rep = server.reload(*store_, id, quick_opts());
  EXPECT_EQ(rep.outcome, ReloadOutcome::RejectedShadow);
  EXPECT_GT(rep.shadow_mismatches, 0u);
  EXPECT_GT(rep.shadow_queries, 0u);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.submit(queries_).get().report.predictions, reference_);
}

TEST_F(ModelReloadTest, PostPromotionErrorSpikeRollsBackAllWorkers) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  Traffic traffic;
  traffic.start(server, queries_, reference_, 4);

  store_->publish(forest_, hier_layout(forest_), "gen2");
  // Every primary attempt fails from here on; clients still succeed via
  // the CPU fallback, but the health counters see the error spike. Shadow
  // validation would also trip over the persistent fault, so it is off —
  // this test targets the post-promotion watch in isolation.
  FaultInjector::global().arm("resource:gpu", -1);
  ReloadOptions opts = quick_opts();
  opts.shadow_validation = false;
  opts.post_promotion_watch_requests = 200;
  opts.post_promotion_error_threshold = 3;
  opts.post_promotion_timeout_seconds = 10.0;
  const ReloadReport rep = server.reload(*store_, 2, opts);
  FaultInjector::global().disarm_all();
  traffic.halt();

  EXPECT_EQ(rep.outcome, ReloadOutcome::RolledBackPostPromotion);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.stats().reloads_rolled_back, 1u);
  // The spike was never client-visible: every request got served (by the
  // fallback replica) with correct predictions.
  EXPECT_EQ(traffic.wrong(), 0u);
  EXPECT_EQ(traffic.failed(), 0u);
}

TEST_F(ModelReloadTest, TornStoreManifestDoesNotStopReloads) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  store_->publish(forest_, hier_layout(forest_), "gen2");
  {
    std::ofstream f(dir_ + "/MANIFEST.json", std::ios::trunc);
    f << "{\"schema\": 1, \"curr";  // torn mid-write
  }
  // current() falls back to scanning for the newest complete generation.
  const ReloadReport rep = server.reload_latest(*store_, quick_opts());
  EXPECT_EQ(rep.outcome, ReloadOutcome::Promoted);
  EXPECT_EQ(server.generation(), 2u);
}

TEST_F(ModelReloadTest, ReloadHistoryRecordsEveryAttempt) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server());
  store_->publish(forest_, hier_layout(forest_), "gen2");
  server.reload(*store_, 2, quick_opts());
  const std::uint64_t bad = publish_behaviorally_wrong();
  server.reload(*store_, bad, quick_opts());

  const std::vector<ReloadReport> history = server.reload_history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].outcome, ReloadOutcome::Promoted);
  EXPECT_EQ(history[1].outcome, ReloadOutcome::RejectedShadow);
  EXPECT_FALSE(history[0].phases.empty());
  EXPECT_FALSE(history[1].to_string().empty());
  EXPECT_GT(server.latency().reload.total, 0u);
}

// The headline guarantee: 8 persistent clients, repeated good-swap /
// bad-reject cycles, zero client-visible failures, bit-identical
// predictions throughout. TSan-clean via tools/check.sh.
TEST_F(ModelReloadTest, StressReloadUnderLoadZeroClientImpact) {
  ForestServer server(*store_, gpu_hybrid_options(), fast_server(3));
  Traffic traffic;
  traffic.start(server, queries_, reference_, 8);

  constexpr int kCycles = 3;
  std::uint64_t expected_gen = 1;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Good publish: same forest recompiled — must promote through a canary.
    const std::uint64_t good = store_->publish(forest_, hier_layout(forest_), "good");
    ReloadOptions opts = quick_opts();
    opts.canary_success_requests = 2;
    opts.canary_timeout_seconds = 10.0;
    const ReloadReport promoted = server.reload(*store_, good, opts);
    ASSERT_EQ(promoted.outcome, ReloadOutcome::Promoted) << promoted.to_string();
    expected_gen = good;

    // Bad publish: behaviorally wrong — must be rejected by shadow.
    const std::uint64_t bad = publish_behaviorally_wrong();
    const ReloadReport rejected = server.reload(*store_, bad, quick_opts());
    ASSERT_EQ(rejected.outcome, ReloadOutcome::RejectedShadow) << rejected.to_string();
    ASSERT_EQ(server.generation(), expected_gen);
  }
  traffic.halt();

  EXPECT_GT(traffic.ok(), 0u);
  EXPECT_EQ(traffic.wrong(), 0u);   // bit-identical across every swap
  EXPECT_EQ(traffic.failed(), 0u);  // zero client-visible failures
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.reloads_promoted, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(stats.reloads_rejected, static_cast<std::uint64_t>(kCycles));
  EXPECT_TRUE(server.healthy());
}

}  // namespace
}  // namespace hrf::serve
