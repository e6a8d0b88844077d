// ClusterRouter coverage (docs/cluster.md): rendezvous hashing
// properties, policy parsing, oracle-identical answers, failover away
// from a killed shard, partition quarantine + probe-loop recovery,
// hedging against a frozen shard, the crash:route chaos site's exact
// fire counts, staged rolling reload (complete wave, halted wave with
// reverse rollback), and the fleet metrics snapshot's schema contract.
// The whole file also runs under ThreadSanitizer via tools/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "obs/exporter.hpp"
#include "serve/model_store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace hrf::cluster {
namespace {

namespace fs = std::filesystem;

Forest make_forest(std::uint64_t seed = 33) {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 8;
  spec.num_features = 7;
  spec.seed = seed;
  return make_random_forest(spec);
}

ClassifierOptions cpu_options() {
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  return opt;
}

ClassifierOptions gpu_hybrid_options() {
  ClassifierOptions opt;
  opt.backend = Backend::GpuSim;
  opt.variant = Variant::Hybrid;
  opt.layout.subtree_depth = 4;
  return opt;
}

serve::ServerOptions fast_server(std::size_t workers = 1) {
  serve::ServerOptions s;
  s.num_workers = workers;
  s.queue_capacity = 64;
  s.retry.max_retries = 0;
  s.retry.backoff_base_seconds = 1e-5;
  s.breaker.failure_threshold = 1000;  // in-server breaker off; the router's is under test
  return s;
}

ClusterOptions quiet_cluster(std::size_t shards = 2) {
  ClusterOptions c;
  c.num_shards = shards;
  c.start_probes = false;  // deterministic tests drive recovery by hand
  c.hedge.enabled = false;
  return c;
}

/// First key in [0, 4096) whose rendezvous order starts at `shard`.
std::uint64_t key_for_shard(const ClusterOptions& opts, std::size_t shard) {
  for (std::uint64_t key = 0; key < 4096; ++key) {
    if (rendezvous_order(key, opts.num_shards, opts.hash_salt)[0] == shard) return key;
  }
  ADD_FAILURE() << "no key routes first to shard " << shard;
  return 0;
}

class ClusterTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm_all(); }
  void TearDown() override { FaultInjector::global().disarm_all(); }

  Forest forest_ = make_forest();
  Dataset queries_ = make_random_queries(32, 7, 5);
  std::vector<std::uint8_t> reference_ =
      forest_.classify_batch(queries_.features(), queries_.num_samples());
};

TEST_F(ClusterTest, RendezvousOrderIsADeterministicPermutation) {
  for (const std::uint64_t key : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    const std::vector<std::size_t> order = rendezvous_order(key, 5, 7);
    EXPECT_EQ(order, rendezvous_order(key, 5, 7)) << "key " << key;
    std::set<std::size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 5u) << "key " << key;
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 4u);
  }
  // Different salts re-shuffle the ring (fleet identity matters).
  bool any_differ = false;
  for (std::uint64_t key = 0; key < 32; ++key) {
    any_differ |= rendezvous_order(key, 5, 7) != rendezvous_order(key, 5, 8);
  }
  EXPECT_TRUE(any_differ);
}

TEST_F(ClusterTest, RendezvousRemovalOnlyRemapsKeysThatRankedTheLostShard) {
  // Shrinking 5 -> 4 shards must not move any key whose first choice
  // survives: the minimal-disruption property consistent hashing is for.
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::vector<std::size_t> with5 = rendezvous_order(key, 5, 0);
    const std::vector<std::size_t> with4 = rendezvous_order(key, 4, 0);
    if (with5[0] != 4) {
      EXPECT_EQ(with4[0], with5[0]) << "key " << key;
    }
  }
}

TEST_F(ClusterTest, RendezvousSubsetCombinedResizeOnlyRemapsAffectedKeys) {
  // The autoscaler resizes by activating/deactivating slot ids, so the
  // property that matters is over arbitrary subsets: after a combined
  // add+remove (drop slot 1, add slots 5 and 6), every key whose old
  // first choice survived must keep it — only keys that ranked the
  // removed slot first, or that a new slot legitimately wins, move.
  const std::vector<std::size_t> before = {0, 1, 2, 3, 4};
  const std::vector<std::size_t> after = {0, 2, 3, 4, 5, 6};
  std::size_t moved_to_new = 0;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    const std::size_t old_first = rendezvous_order_subset(key, before, 9)[0];
    const std::size_t new_first = rendezvous_order_subset(key, after, 9)[0];
    if (new_first == old_first) continue;
    // A remap is only legitimate if the old choice vanished or a new
    // slot outscored it — never a reshuffle among surviving slots.
    EXPECT_TRUE(old_first == 1 || new_first == 5 || new_first == 6)
        << "key " << key << " moved " << old_first << " -> " << new_first;
    if (new_first == 5 || new_first == 6) ++moved_to_new;
  }
  // The new slots actually take a share of the keyspace (they are not
  // just present-but-cold), roughly 2/7 of 1024 keys.
  EXPECT_GT(moved_to_new, 150u);

  // Subset scoring is consistent with the dense ranking: a contiguous
  // prefix subset is exactly the dense order.
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(rendezvous_order_subset(key, before, 3), rendezvous_order(key, 5, 3));
  }
}

TEST_F(ClusterTest, RendezvousSpreadsKeysAcrossShards) {
  std::vector<int> hits(4, 0);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    ++hits[rendezvous_order(key, 4, 0)[0]];
  }
  for (std::size_t s = 0; s < hits.size(); ++s) {
    // Expected 250 per shard; an eighth of the keys is a loose floor that
    // still catches a broken hash collapsing onto one shard.
    EXPECT_GT(hits[s], 125) << "shard " << s;
  }
}

TEST_F(ClusterTest, RoutingPolicyNamesRoundTrip) {
  EXPECT_EQ(routing_policy_from_name("hash"), RoutingPolicy::ConsistentHash);
  EXPECT_EQ(routing_policy_from_name("consistent-hash"), RoutingPolicy::ConsistentHash);
  EXPECT_EQ(routing_policy_from_name("least-loaded"), RoutingPolicy::LeastLoaded);
  EXPECT_STREQ(to_string(RoutingPolicy::ConsistentHash), "consistent-hash");
  EXPECT_STREQ(to_string(RoutingPolicy::LeastLoaded), "least-loaded");
  EXPECT_THROW(routing_policy_from_name("round-robin"), ConfigError);
}

TEST_F(ClusterTest, AnswersMatchTheSingleServerOracleUnderBothPolicies) {
  for (const RoutingPolicy policy : {RoutingPolicy::ConsistentHash, RoutingPolicy::LeastLoaded}) {
    ClusterOptions copt = quiet_cluster(3);
    copt.policy = policy;
    ClusterRouter router(forest_, cpu_options(), fast_server(), copt);
    for (std::uint64_t key = 0; key < 9; ++key) {
      const ClusterResult res = router.query(queries_, {.key = key});
      EXPECT_EQ(res.result.report.predictions, reference_) << to_string(policy);
      EXPECT_EQ(res.failovers, 0);
      EXPECT_FALSE(res.hedged);
    }
    const ClusterStats stats = router.stats();
    EXPECT_EQ(stats.completed, 9u);
    EXPECT_EQ(stats.failed, 0u);
    router.shutdown();
  }
}

TEST_F(ClusterTest, FailoverSkipsAKilledShardAndTheBreakerQuarantinesIt) {
  const ClusterOptions copt = quiet_cluster(2);
  ClusterRouter router(forest_, cpu_options(), fast_server(), copt);
  const std::uint64_t key = key_for_shard(copt, 0);

  router.kill_shard(0);
  // Every request still answers — from the surviving shard.
  for (int i = 0; i < 5; ++i) {
    const ClusterResult res = router.query(queries_, {.key = key});
    EXPECT_EQ(res.shard, 1u);
    EXPECT_EQ(res.result.report.predictions, reference_);
  }
  // Three dispatch failures (breaker threshold) tripped the router-side
  // breaker; later requests skip the corpse without spending an attempt.
  EXPECT_EQ(router.shard_breaker_state(0), serve::CircuitState::Open);
  EXPECT_EQ(router.available_shards(), 1u);
  const ClusterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.shard_status[0].failures,
            static_cast<std::uint64_t>(copt.shard_breaker.failure_threshold));
  EXPECT_FALSE(stats.shard_status[0].alive);
}

TEST_F(ClusterTest, PartitionQuarantinesAndTheProbeLoopHeals) {
  ClusterOptions copt = quiet_cluster(2);
  copt.start_probes = true;
  copt.probe_interval_seconds = 0.005;
  copt.shard_breaker.failure_threshold = 2;
  copt.shard_breaker.open_seconds = 0.02;
  ClusterRouter router(forest_, cpu_options(), fast_server(), copt);
  const std::uint64_t key = key_for_shard(copt, 0);

  router.set_partitioned(0, true);
  // The probe loop alone must discover the partition and trip the breaker.
  WallTimer t;
  while (router.shard_breaker_state(0) != serve::CircuitState::Open && t.seconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(router.shard_breaker_state(0), serve::CircuitState::Open);

  // Clients keep getting answers from the healthy shard meanwhile.
  EXPECT_EQ(router.query(queries_, {.key = key}).result.report.predictions, reference_);

  router.set_partitioned(0, false);
  // ... and the probe loop alone must bring the shard back (Open ->
  // HalfOpen probe -> success -> Closed), no client traffic required.
  t.reset();
  while (router.shard_breaker_state(0) != serve::CircuitState::Closed && t.seconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(router.shard_breaker_state(0), serve::CircuitState::Closed);
  const ClusterResult res = router.query(queries_, {.key = key});
  EXPECT_EQ(res.shard, 0u);
  const ClusterStats stats = router.stats();
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.probe_failures, 0u);
}

TEST_F(ClusterTest, HedgeFiresOnAFrozenShardAndWins) {
  ClusterOptions copt = quiet_cluster(2);
  copt.hedge.enabled = true;
  copt.hedge.min_seconds = 0.005;
  serve::ServerOptions sopt = fast_server();
  sopt.inject_freeze_seconds = 0.3;
  ClusterRouter router(forest_, cpu_options(), sopt, copt);
  const std::uint64_t key = key_for_shard(copt, 0);

  // One charge: exactly the first client dispatch's worker stalls.
  FaultInjector::global().arm_spec("freeze:shard");
  const ClusterResult res = router.query(queries_, {.key = key});
  EXPECT_TRUE(res.hedged);
  EXPECT_TRUE(res.hedge_won);
  EXPECT_EQ(res.shard, 1u);
  EXPECT_EQ(res.result.report.predictions, reference_);
  const ClusterStats stats = router.stats();
  EXPECT_EQ(stats.hedged, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(FaultInjector::global().remaining("freeze:shard"), 0);
}

TEST_F(ClusterTest, CrashRouteFailsExactlyTheArmedDispatches) {
  const ClusterOptions copt = quiet_cluster(2);
  ClusterRouter router(forest_, cpu_options(), fast_server(), copt);
  const std::uint64_t key = key_for_shard(copt, 0);
  const std::uint64_t fired_before = FaultInjector::global().fired("crash:route");

  FaultInjector::global().arm_spec("crash:route");  // one charge
  const ClusterResult res = router.query(queries_, {.key = key});
  // The first dispatch crashed (burning a budget slot and feeding shard
  // 0's breaker); the request still answered from the next candidate.
  EXPECT_EQ(res.shard, 1u);
  EXPECT_EQ(res.result.report.predictions, reference_);
  EXPECT_EQ(FaultInjector::global().fired("crash:route"), fired_before + 1);
  EXPECT_EQ(router.stats().shard_status[0].failures, 1u);

  // Exhausted site: later dispatches fly clean.
  const ClusterResult clean = router.query(queries_, {.key = key});
  EXPECT_EQ(clean.shard, 0u);
  EXPECT_EQ(FaultInjector::global().fired("crash:route"), fired_before + 1);
}

class ClusterReloadTest : public ClusterTest {
 protected:
  void SetUp() override {
    ClusterTest::SetUp();
    dir_ = testing::TempDir() + "/hrf_cluster_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store_.emplace(serve::ModelStore::open(dir_));
    HierConfig cfg;
    cfg.subtree_depth = 4;
    store_->publish(forest_, HierarchicalForest::build(forest_, cfg), "gen1");
  }
  void TearDown() override {
    store_.reset();
    fs::remove_all(dir_);
    ClusterTest::TearDown();
  }

  std::uint64_t publish_gen2() {
    HierConfig cfg;
    cfg.subtree_depth = 4;
    return store_->publish(forest_, HierarchicalForest::build(forest_, cfg), "gen2");
  }

  RollingReloadOptions quick_wave(std::uint64_t canary = 0) const {
    RollingReloadOptions r;
    r.reload.shadow_queries = 32;
    r.reload.canary_success_requests = canary;
    r.reload.post_promotion_watch_requests = 0;
    return r;
  }

  std::string dir_;
  std::optional<serve::ModelStore> store_;
};

TEST_F(ClusterReloadTest, RollingReloadPromotesEveryShardInOrder) {
  ClusterRouter router(*store_, gpu_hybrid_options(), fast_server(), quiet_cluster(3));
  const std::uint64_t gen2 = publish_gen2();

  const RollingReloadReport rep = router.rolling_reload(*store_, gen2, quick_wave());
  EXPECT_TRUE(rep.completed) << rep.to_string();
  EXPECT_TRUE(rep.rollbacks.empty());
  ASSERT_EQ(rep.shards.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rep.shards[s].shard, s);  // wave order is index order
    EXPECT_EQ(router.shard(s).generation(), gen2);
  }
  // Predictions stay bit-identical across the fleet-wide swap.
  EXPECT_EQ(router.query(queries_, {.key = 1}).result.report.predictions, reference_);
  const ClusterStats stats = router.stats();
  EXPECT_EQ(stats.reload_waves, 1u);
  EXPECT_EQ(stats.reload_waves_halted, 0u);
}

TEST_F(ClusterReloadTest, HaltedWaveRollsBackThePromotedPrefixInReverse) {
  ClusterRouter router(*store_, gpu_hybrid_options(), fast_server(), quiet_cluster(3));
  const std::uint64_t gen2 = publish_gen2();
  router.kill_shard(2);

  // Canary > 0 so the dead shard must prove itself with traffic — which a
  // shut-down server never can. Client pumps feed the live canaries.
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    for (std::uint64_t key = 0; !stop.load(std::memory_order_acquire); ++key) {
      try {
        (void)router.query(queries_, {.key = key % 64});
      } catch (const Error&) {
      }
    }
  });
  const RollingReloadReport rep =
      router.rolling_reload(*store_, gen2, quick_wave(/*canary=*/1));
  stop.store(true, std::memory_order_release);
  pump.join();

  EXPECT_FALSE(rep.completed) << rep.to_string();
  EXPECT_NE(rep.reason.find("shard 2"), std::string::npos) << rep.reason;
  ASSERT_EQ(rep.shards.size(), 3u);
  // Reverse-order rollback: most recently promoted shard reverts first.
  ASSERT_EQ(rep.rollbacks.size(), 2u);
  EXPECT_EQ(rep.rollbacks[0].shard, 1u);
  EXPECT_EQ(rep.rollbacks[1].shard, 0u);
  EXPECT_EQ(router.shard(0).generation(), 1u);
  EXPECT_EQ(router.shard(1).generation(), 1u);
  const ClusterStats stats = router.stats();
  EXPECT_EQ(stats.reload_waves_halted, 1u);
  EXPECT_EQ(stats.shard_rollbacks, 2u);
}

TEST_F(ClusterTest, MetricsSnapshotPassesTheSchemaGate) {
  ClusterRouter router(forest_, cpu_options(), fast_server(), quiet_cluster(2));
  for (std::uint64_t key = 0; key < 4; ++key) (void)router.query(queries_, {.key = key});

  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_NO_THROW(obs::check_metrics_schema(obs::to_prometheus(snap),
                                            obs::snapshot_to_json(snap).dump(2)));
  // Fleet counters roll up the shard counters plus the router's own.
  EXPECT_EQ(snap.counters.at("cluster.submitted"), 4u);
  EXPECT_EQ(snap.counters.at("cluster.completed"), 4u);
  EXPECT_GE(snap.counters.at("requests.submitted"), 4u);
  EXPECT_EQ(snap.gauges.at("cluster_shards"), 2.0);
  EXPECT_EQ(snap.gauges.at("cluster_shards_available"), 2.0);
}

TEST_F(ClusterTest, MetricsSnapshotMergesEveryShardStageByName) {
  serve::ServerOptions so = fast_server();
  so.batching.max_requests = 4;
  const ClusterOptions co = quiet_cluster(2);
  ClusterRouter router(forest_, cpu_options(), so, co);
  for (const std::size_t shard : {0u, 1u, 1u}) {
    (void)router.query(queries_, {.key = key_for_shard(co, shard)});
  }

  std::uint64_t shard_batches = 0;
  for (std::size_t s = 0; s < 2; ++s) shard_batches += router.shard(s).latency().batch_size.total;
  EXPECT_EQ(shard_batches, 3u);
  EXPECT_EQ(router.latency().batch_size.total, shard_batches);

  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  const auto stage = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                                  [](const auto& h) { return h.first == "batch_size"; });
  ASSERT_NE(stage, snap.histograms.end());
  EXPECT_EQ(stage->second.total, shard_batches);
  EXPECT_NO_THROW(obs::check_metrics_schema(obs::to_prometheus(snap),
                                            obs::snapshot_to_json(snap).dump(2)));
  router.shutdown();
}

TEST_F(ClusterTest, TenantQuotaShedPropagatesWithoutFeedingTheBreaker) {
  serve::ServerOptions so = fast_server();
  so.queue_capacity = 2;        // 1 reserved slot per tenant, no spare
  so.start_paused = true;       // nothing dequeues until resume()
  so.quotas.tenants = {{"victim", 1.0}, {"surger", 1.0}};
  ClusterRouter router(forest_, cpu_options(), so, quiet_cluster(1));

  QueryOptions surge;
  surge.tenant = "surger";
  std::thread surge_thread([&] { (void)router.query(queries_, surge); });
  WallTimer t;
  while (router.shard(0).queue_depth() < 1 && t.seconds() < 5.0) std::this_thread::yield();
  ASSERT_EQ(router.shard(0).queue_depth(), 1u);

  // The surger's second request finds its reserved share and the (empty)
  // spare pool exhausted: the quota-specific error reaches the client.
  EXPECT_THROW(router.query(queries_, surge), QuotaError);
  EXPECT_EQ(router.stats().quota_shed, 1u);
  // Quota shedding is not shard sickness: no breaker verdict, no failover.
  EXPECT_EQ(router.shard_breaker_state(0), serve::CircuitState::Closed);
  EXPECT_EQ(router.stats().failovers, 0u);

  // The victim's reserved slot is untouched by the surge.
  QueryOptions victim;
  victim.tenant = "victim";
  std::thread victim_thread([&] { (void)router.query(queries_, victim); });
  while (router.shard(0).queue_depth() < 2 && t.seconds() < 5.0) std::this_thread::yield();
  router.shard(0).resume();
  surge_thread.join();
  victim_thread.join();
  EXPECT_EQ(router.stats().completed, 2u);

  // The shed shows up per tenant in the fleet snapshot.
  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[1].name, "surger");
  EXPECT_EQ(snap.tenants[1].shed, 1u);
  EXPECT_EQ(snap.counters.at("cluster.quota_shed"), 1u);
  EXPECT_NO_THROW(obs::check_metrics_schema(obs::to_prometheus(snap),
                                            obs::snapshot_to_json(snap).dump(2)));
  router.shutdown();
}

TEST_F(ClusterTest, ShedThenServedRequestRecordsAQuotaDegradation) {
  serve::ServerOptions so = fast_server();
  so.queue_capacity = 2;   // 1 reserved slot per tenant, no spare
  so.start_paused = true;  // nothing dequeues until resume()
  so.quotas.tenants = {{"victim", 1.0}, {"surger", 1.0}};
  const ClusterOptions co = quiet_cluster(2);
  ClusterRouter router(forest_, cpu_options(), so, co);
  router.shard(1).resume();  // only shard 0 holds requests

  // Park a surger request in shard 0's only surger slot.
  QueryOptions surge;
  surge.tenant = "surger";
  surge.key = key_for_shard(co, 0);
  std::thread holder([&] { (void)router.query(queries_, surge); });
  WallTimer t;
  while (router.shard(0).queue_depth() < 1 && t.seconds() < 5.0) std::this_thread::yield();
  ASSERT_EQ(router.shard(0).queue_depth(), 1u);

  // The same tenant's next request sheds at shard 0 and fails over to
  // shard 1, which has a free surger slot: a degraded success, and the
  // trail says quota — distinct from an overload or failover note.
  const ClusterResult res = router.query(queries_, surge);
  EXPECT_EQ(res.shard, 1u);
  ASSERT_TRUE(res.result.report.degraded());
  EXPECT_NE(res.result.report.degradations.back().find("tenant 'surger' quota-shed"),
            std::string::npos)
      << res.result.report.degradations.back();
  EXPECT_EQ(router.stats().quota_shed, 1u);
  EXPECT_EQ(router.stats().failovers, 0u);  // nothing failed, nothing sick

  router.shard(0).resume();
  holder.join();
  router.shutdown();
}

TEST_F(ClusterTest, AdaptiveLimiterRefusesExcessConcurrencyAtTheDoor) {
  serve::ServerOptions so = fast_server();
  so.start_paused = true;
  ClusterOptions copt = quiet_cluster(1);
  copt.limit.enabled = true;
  copt.limit.initial_limit = 2;
  copt.limit.min_limit = 1;
  ClusterRouter router(forest_, cpu_options(), so, copt);

  std::vector<std::thread> in_flight;
  for (int i = 0; i < 2; ++i) {
    in_flight.emplace_back([&] { (void)router.query(queries_); });
  }
  // Both holders count as submitted a beat after they take their limiter
  // slot; wait for both so the count below only measures the refusal.
  WallTimer t;
  while ((router.limiter_in_flight() < 2 || router.stats().submitted < 2) && t.seconds() < 5.0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(router.limiter_in_flight(), 2u);
  EXPECT_EQ(router.concurrency_limit(), 2u);

  // Third concurrent request: refused before it touches a shard queue.
  EXPECT_THROW(router.query(queries_), OverloadError);
  EXPECT_EQ(router.stats().limited, 1u);
  EXPECT_EQ(router.stats().submitted, 2u);  // the refusal never counted as submitted

  router.shard(0).resume();
  for (std::thread& th : in_flight) th.join();
  EXPECT_EQ(router.stats().completed, 2u);
  EXPECT_EQ(router.limiter_in_flight(), 0u);

  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  EXPECT_EQ(snap.gauges.at("cluster_concurrency_limit"), 2.0);
  EXPECT_EQ(snap.counters.at("cluster.limited"), 1u);
  router.shutdown();
}

TEST_F(ClusterTest, RouterRequestIdCorrelatesSpansAcrossShardTracers) {
  // Every routed query carries one router-assigned id stamped as the
  // "router_request" attribute on the shard-side root span — the
  // correlation key that stitches a request's spans back together across
  // tracers, including after a failover reroute.
  const ClusterOptions copt = quiet_cluster(2);
  serve::ServerOptions sopt = fast_server();
  sopt.trace_sampling = 1.0;  // record every request on every shard
  ClusterRouter router(forest_, cpu_options(), sopt, copt);
  const std::uint64_t key0 = key_for_shard(copt, 0);
  const std::uint64_t key1 = key_for_shard(copt, 1);

  const ClusterResult r0 = router.query(queries_, {.key = key0});
  const ClusterResult r1 = router.query(queries_, {.key = key1});
  ASSERT_EQ(r0.shard, 0u);
  ASSERT_EQ(r1.shard, 1u);
  EXPECT_NE(r0.request_id, 0u);
  EXPECT_NE(r1.request_id, 0u);
  EXPECT_NE(r0.request_id, r1.request_id);  // fleet-unique, not per-shard

  // Failover: the id assigned at admission survives the reroute, so the
  // surviving shard's trace still correlates with the router's view.
  router.kill_shard(0);
  const ClusterResult rerouted = router.query(queries_, {.key = key0});
  ASSERT_EQ(rerouted.shard, 1u);

  const auto router_request_attr =
      [](const std::shared_ptr<const trace::Trace>& t) -> std::string {
    for (const auto& [key, value] : t->root().attributes) {
      if (key == "router_request") return value;
    }
    return {};
  };
  std::set<std::string> shard0_ids;
  for (const auto& t : router.shard(0).tracer().traces()) {
    shard0_ids.insert(router_request_attr(t));
  }
  std::set<std::string> shard1_ids;
  for (const auto& t : router.shard(1).tracer().traces()) {
    shard1_ids.insert(router_request_attr(t));
  }
  EXPECT_TRUE(shard0_ids.count(std::to_string(r0.request_id)));
  EXPECT_TRUE(shard1_ids.count(std::to_string(r1.request_id)));
  EXPECT_TRUE(shard1_ids.count(std::to_string(rerouted.request_id)));
  // No shard-side trace is missing the correlation attribute.
  EXPECT_FALSE(shard0_ids.count(""));
  EXPECT_FALSE(shard1_ids.count(""));
  router.shutdown();
}

}  // namespace
}  // namespace hrf::cluster
