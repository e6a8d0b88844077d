// ClusterAutoscaler control-loop coverage, fully deterministic: a fake
// clock and a synthetic metrics source drive evaluate() by hand — no
// background thread, no sleeps, no real latency. Pins the hysteresis
// contract (K consecutive breaches before a resize, no flapping inside
// the band), the post-resize cooldown, the min/max clamps, convergence
// of a full 2 -> 4 -> 2 wave, and the stall:autoscaler chaos site.
// Runs under ThreadSanitizer via tools/check.sh.

#include "cluster/autoscaler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf::cluster {
namespace {

Forest make_forest() {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 8;
  spec.num_features = 7;
  spec.seed = 33;
  return make_random_forest(spec);
}

ClassifierOptions cpu_options() {
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  return opt;
}

serve::ServerOptions fast_server() {
  serve::ServerOptions s;
  s.num_workers = 1;
  s.queue_capacity = 64;
  s.retry.max_retries = 0;
  s.breaker.failure_threshold = 1000;
  return s;
}

ClusterOptions elastic_cluster(std::size_t shards = 2, std::size_t max_shards = 4) {
  ClusterOptions c;
  c.num_shards = shards;
  c.max_shards = max_shards;
  c.start_probes = false;
  c.hedge.enabled = false;
  return c;
}

AutoscalerOptions manual_autoscaler() {
  AutoscalerOptions o;
  o.min_shards = 2;
  o.max_shards = 4;
  o.hysteresis_evaluations = 3;
  o.cooldown_seconds = 1.0;
  o.start_thread = false;  // tests call evaluate() themselves
  return o;
}

/// Deterministic test rig: `now` advances only when the test says so,
/// `sample` is whatever the test wants the fleet to look like.
struct Rig {
  double now = 0.0;
  AutoscalerSample sample{};

  ClusterAutoscaler::Clock clock() {
    return [this] { return now; };
  }
  ClusterAutoscaler::MetricsSource source() {
    return [this] { return sample; };
  }
};

class AutoscalerTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm_all(); }
  void TearDown() override { FaultInjector::global().disarm_all(); }

  Forest forest_ = make_forest();
};

TEST_F(AutoscalerTest, ValidatesOptions) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster());
  AutoscalerOptions bad = manual_autoscaler();
  bad.min_shards = 0;
  EXPECT_THROW(ClusterAutoscaler(router, bad), ConfigError);
  bad = manual_autoscaler();
  bad.max_shards = 1;  // < min_shards
  EXPECT_THROW(ClusterAutoscaler(router, bad), ConfigError);
  bad = manual_autoscaler();
  bad.scale_down_p95_seconds = bad.scale_up_p95_seconds;
  EXPECT_THROW(ClusterAutoscaler(router, bad), ConfigError);
  router.shutdown();
}

TEST_F(AutoscalerTest, ScalesUpOnlyAfterConsecutiveBreaches) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster());
  Rig rig;
  ClusterAutoscaler scaler(router, manual_autoscaler(), rig.clock(), rig.source());

  rig.sample.route_p95_seconds = 1.0;  // far over scale_up_p95_seconds
  scaler.evaluate();
  scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 2u);  // 2 breaches < hysteresis 3

  // A healthy evaluation in between resets the streak.
  rig.sample.route_p95_seconds = 0.02;
  scaler.evaluate();
  rig.sample.route_p95_seconds = 1.0;
  scaler.evaluate();
  scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 2u);

  scaler.evaluate();  // third consecutive breach
  EXPECT_EQ(router.active_shards(), 3u);
  EXPECT_EQ(scaler.stats().scale_ups, 1u);
  router.shutdown();
}

TEST_F(AutoscalerTest, CooldownAbsorbsBreachesRightAfterAResize) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster());
  Rig rig;
  ClusterAutoscaler scaler(router, manual_autoscaler(), rig.clock(), rig.source());

  rig.sample.route_p95_seconds = 1.0;
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  ASSERT_EQ(router.active_shards(), 3u);

  // Still breaching, but inside the 1s cooldown: no second resize.
  for (int i = 0; i < 10; ++i) scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 3u);

  rig.now = 2.0;  // past the cooldown
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 4u);

  // At max_shards: breaches can no longer grow the fleet.
  rig.now = 4.0;
  for (int i = 0; i < 6; ++i) scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 4u);
  EXPECT_EQ(scaler.stats().scale_ups, 2u);
  router.shutdown();
}

TEST_F(AutoscalerTest, HoldsSizeInsideTheHysteresisBandWithoutFlapping) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster(3));
  Rig rig;
  // Between scale_down (0.01) and scale_up (0.05) thresholds: healthy
  // but not idle. The fleet must not move in either direction.
  rig.sample.route_p95_seconds = 0.03;
  rig.sample.avg_queue_depth = 1.0;
  ClusterAutoscaler scaler(router, manual_autoscaler(), rig.clock(), rig.source());
  for (int i = 0; i < 50; ++i) {
    rig.now += 10.0;  // cooldown can never be the reason nothing happens
    scaler.evaluate();
  }
  const AutoscalerStats stats = scaler.stats();
  EXPECT_EQ(router.active_shards(), 3u);
  EXPECT_EQ(stats.scale_ups, 0u);
  EXPECT_EQ(stats.scale_downs, 0u);
  EXPECT_EQ(stats.evaluations, 50u);
  EXPECT_EQ(stats.up_streak, 0);
  EXPECT_EQ(stats.down_streak, 0);
  router.shutdown();
}

TEST_F(AutoscalerTest, ConvergesThroughAFullUpDownWaveAndKeepsServing) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster());
  const Dataset queries = make_random_queries(16, 7, 5);
  const std::vector<std::uint8_t> reference =
      forest_.classify_batch(queries.features(), queries.num_samples());
  Rig rig;
  ClusterAutoscaler scaler(router, manual_autoscaler(), rig.clock(), rig.source());

  const auto serve_everywhere = [&] {
    for (std::uint64_t key = 0; key < 8; ++key) {
      QueryOptions qopt;
      qopt.key = key;
      const ClusterResult res = router.query(queries, qopt);
      EXPECT_EQ(res.result.report.predictions, reference);
    }
  };

  // Surge: 2 -> 4.
  rig.sample.route_p95_seconds = 1.0;
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  rig.now = 2.0;
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  ASSERT_EQ(router.active_shards(), 4u);
  serve_everywhere();

  // Quiet: 4 -> 2 (min_shards floor), draining one shard per step.
  rig.now = 4.0;
  rig.sample.route_p95_seconds = 0.001;
  rig.sample.avg_queue_depth = 0.0;
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  rig.now = 6.0;
  for (int i = 0; i < 3; ++i) scaler.evaluate();
  ASSERT_EQ(router.active_shards(), 2u);
  // min_shards: idle evaluations cannot shrink further.
  rig.now = 8.0;
  for (int i = 0; i < 6; ++i) scaler.evaluate();
  EXPECT_EQ(router.active_shards(), 2u);
  serve_everywhere();

  const ClusterStats cs = router.stats();
  EXPECT_EQ(cs.scale_ups, 2u);
  EXPECT_EQ(cs.scale_downs, 2u);
  EXPECT_EQ(cs.failed, 0u);  // zero resize-attributable client failures

  // The autoscaler's decisions export through the router's registry.
  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("autoscaler.scale_ups"), 2u);
  EXPECT_EQ(snap.counters.at("autoscaler.scale_downs"), 2u);
  EXPECT_GE(snap.counters.at("autoscaler.evaluations"), 18u);
  router.shutdown();
}

TEST_F(AutoscalerTest, ScaledUpSlotGetsAFreshServerAfterADrain) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster(2, 2));
  // max_shards == num_shards: a fixed fleet refuses to grow...
  EXPECT_FALSE(router.scale_up());
  // ...but can shrink and re-grow into the same slot.
  ASSERT_TRUE(router.scale_down().has_value());
  EXPECT_EQ(router.active_shards(), 1u);
  EXPECT_FALSE(router.scale_down().has_value());  // never below one shard
  ASSERT_TRUE(router.scale_up());
  EXPECT_EQ(router.active_shards(), 2u);

  const Dataset queries = make_random_queries(16, 7, 5);
  QueryOptions qopt;
  qopt.key = 1;
  EXPECT_NO_THROW(router.query(queries, qopt));
  // The reused slot serves again: find a key that lands on shard 1.
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (rendezvous_order(key, 2, router.options().hash_salt)[0] == 1) {
      qopt.key = key;
      const ClusterResult res = router.query(queries, qopt);
      EXPECT_EQ(res.shard, 1u);
      break;
    }
  }
  router.shutdown();
}

TEST_F(AutoscalerTest, StallSiteWedgesTheLoopVisiblyButNotTheFleet) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), elastic_cluster());
  Rig rig;
  AutoscalerOptions opt = manual_autoscaler();
  opt.inject_stall_seconds = 0.01;
  ClusterAutoscaler scaler(router, opt, rig.clock(), rig.source());

  FaultInjector::global().arm("stall:autoscaler", 2);
  scaler.evaluate();
  scaler.evaluate();
  scaler.evaluate();  // charges exhausted: no stall
  EXPECT_EQ(scaler.stats().stalled, 2u);

  // The fleet served normally throughout the stall window.
  const Dataset queries = make_random_queries(8, 7, 5);
  EXPECT_NO_THROW(router.query(queries));
  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("autoscaler.stalled"), 2u);
  router.shutdown();
}

}  // namespace
}  // namespace hrf::cluster
