// One immutable Forest per installed generation: every rung of every
// worker's degradation plan, every shard of a cluster (one added by
// scale_up() included), every worker a reload installs, and a replica
// rebuilt by repair_replica() all read the same Forest object. Only the
// layouts are per replica. Runs under ThreadSanitizer via tools/check.sh.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "cluster/cluster.hpp"
#include "forest/random_forest_gen.hpp"
#include "serve/model_store.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

namespace fs = std::filesystem;

Forest make_forest(std::uint64_t seed = 17) {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 8;
  spec.num_features = 7;
  spec.seed = seed;
  return make_random_forest(spec);
}

/// Hybrid on gpu-sim with a root subtree too deep for shared memory, so
/// the plan has all four rungs: primary, shrunk RSD, independent, cpu.
ClassifierOptions four_rung_options() {
  ClassifierOptions opt;
  opt.backend = Backend::GpuSim;
  opt.variant = Variant::Hybrid;
  opt.layout.subtree_depth = 4;
  opt.layout.root_subtree_depth = max_fitting_rsd(opt) + 1;
  return opt;
}

ServerOptions workers(std::size_t n) {
  ServerOptions s;
  s.num_workers = n;
  s.queue_capacity = 64;
  return s;
}

/// Every rung of every worker of `server` reads `forest`.
void expect_all_rungs_share(const ForestServer& server, const Forest* forest,
                            std::size_t min_rungs = 1) {
  for (std::size_t w = 0; w < server.options().num_workers; ++w) {
    const DegradationPlan plan = server.worker_plan(w);
    EXPECT_GE(plan.size(), min_rungs) << "worker " << w;
    for (std::size_t r = 0; r < plan.size(); ++r) {
      EXPECT_EQ(&plan[r].classifier->forest(), forest) << "worker " << w << " rung " << r;
    }
  }
}

TEST(ForestServerSharing, EveryRungOfEveryWorkerSharesTheCallersForest) {
  const auto forest = std::make_shared<const Forest>(make_forest());
  ForestServer server(forest, four_rung_options(), workers(3));
  expect_all_rungs_share(server, forest.get(), 4);
  server.shutdown();
}

TEST(ForestServerSharing, ByValueConstructorSharesItsOneCopy) {
  for (const Variant v : {Variant::FilBaseline, Variant::Csr, Variant::Hybrid}) {
    ClassifierOptions opt;
    opt.backend = Backend::GpuSim;
    opt.variant = v;
    opt.layout.subtree_depth = 4;
    ForestServer server(make_forest(), opt, workers(2));
    expect_all_rungs_share(server, &server.worker_plan(0).front().classifier->forest(), 2);
    server.shutdown();
  }
}

TEST(ForestServerSharing, RepairedReplicaKeepsTheSharedForest) {
  FaultInjector::global().disarm_all();
  const auto forest = std::make_shared<const Forest>(make_forest());
  ServerOptions sopt = workers(2);
  sopt.integrity.scrub_interval_seconds = 0.005;
  ForestServer server(forest, four_rung_options(), sopt);

  FaultInjector::global().arm("corrupt:replica", 1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.self_heal().scrub_repairs < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.self_heal().scrub_repairs, 1u);
  expect_all_rungs_share(server, forest.get(), 4);
  server.shutdown();
  FaultInjector::global().disarm_all();
}

class ForestServerSharingStore : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disarm_all();
    dir_ = testing::TempDir() + "/hrf_sharing_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store_ = std::make_unique<ModelStore>(ModelStore::open(dir_));
  }
  void TearDown() override {
    FaultInjector::global().disarm_all();
    store_.reset();
    fs::remove_all(dir_);
  }

  std::uint64_t publish(const Forest& forest) {
    HierConfig cfg;
    cfg.subtree_depth = 4;
    return store_->publish(forest, HierarchicalForest::build(forest, cfg));
  }

  std::string dir_;
  std::unique_ptr<ModelStore> store_;
};

TEST_F(ForestServerSharingStore, LoadReloadAndStoreRepairShareOneForestPerGeneration) {
  publish(make_forest(1));
  ClassifierOptions opt;
  opt.backend = Backend::GpuSim;
  opt.variant = Variant::Independent;
  ServerOptions sopt = workers(3);
  sopt.integrity.scrub_interval_seconds = 0.005;
  sopt.integrity.rebuild_store_dir = dir_;
  ForestServer server(*store_, opt, sopt);
  const Forest* gen1 = &server.worker_plan(0).front().classifier->forest();
  expect_all_rungs_share(server, gen1, 2);

  const std::uint64_t gen2_id = publish(make_forest(2));
  ReloadOptions ro;
  ro.canary_success_requests = 0;
  const ReloadReport rep = server.reload(*store_, gen2_id, ro);
  ASSERT_EQ(rep.outcome, ReloadOutcome::Promoted) << rep.to_string();
  const Forest* gen2 = &server.worker_plan(0).front().classifier->forest();
  EXPECT_NE(gen2, gen1);
  expect_all_rungs_share(server, gen2, 2);

  // A repair takes its layout from the store, its forest from the
  // generation already installed.
  FaultInjector::global().arm("corrupt:replica", 1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.self_heal().scrub_repairs < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.self_heal().scrub_repairs, 1u);
  expect_all_rungs_share(server, gen2, 2);
  server.shutdown();
}

}  // namespace
}  // namespace hrf::serve

namespace hrf::cluster {
namespace {

TEST(ClusterSharing, EveryShardIncludingScaledUpOnesSharesTheRoutersForest) {
  const Forest forest = serve::make_forest();
  ClassifierOptions opt;
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  ClusterOptions co;
  co.num_shards = 2;
  co.max_shards = 3;
  co.start_probes = false;
  co.hedge.enabled = false;
  ClusterRouter router(forest, opt, serve::workers(2), co);

  // The router owns one copy of the caller's forest; every shard reads it.
  const Forest* shared = &router.shard(0).worker_plan(0).front().classifier->forest();
  EXPECT_NE(shared, &forest);
  ASSERT_TRUE(router.scale_up());
  ASSERT_EQ(router.active_shards(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    serve::expect_all_rungs_share(router.shard(s), shared, 2);
  }
  router.shutdown();
}

}  // namespace
}  // namespace hrf::cluster
