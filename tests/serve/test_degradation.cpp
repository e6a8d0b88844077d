// Graceful-degradation coverage: force ResourceError at every injection
// site, serve the request through a 1-worker ForestServer, and assert
// (a) the degradation plan still produces predictions identical to the
// forest's own (CPU) answer and (b) RunReport::degradations records the
// exact rungs taken, in order. The plan itself (core/degradation_plan.hpp)
// is pinned separately: built once at install, sharing the primary's
// layout wherever it can.

#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/degradation_plan.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf {
namespace {

Forest small_forest() {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 9;
  spec.num_features = 7;
  spec.seed = 33;
  return make_random_forest(spec);
}

gpusim::DeviceConfig small_gpu() {
  auto cfg = gpusim::DeviceConfig::titan_xp();
  cfg.num_sms = 4;
  return cfg;
}

ClassifierOptions base_options(Backend backend, Variant variant) {
  ClassifierOptions opt;
  opt.backend = backend;
  opt.variant = variant;
  opt.layout.subtree_depth = 4;
  opt.gpu = small_gpu();
  return opt;
}

/// One worker, one retry (two primary attempts), a breaker that never
/// opens: the ladder below the primary is what these tests observe.
serve::ServerOptions one_worker() {
  serve::ServerOptions s;
  s.num_workers = 1;
  s.retry.max_retries = 1;
  s.retry.backoff_base_seconds = 1e-5;
  s.breaker.failure_threshold = 1000;
  return s;
}

class Degradation : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm_all(); }
  void TearDown() override { FaultInjector::global().disarm_all(); }

  serve::ServeResult serve(const ClassifierOptions& opt) {
    serve::ForestServer server(small_forest(), opt, one_worker());
    return server.submit(queries_).get();
  }

  Forest forest_ = small_forest();
  Dataset queries_ = make_random_queries(250, 7, 5);
  std::vector<std::uint8_t> reference_ =
      forest_.classify_batch(queries_.features(), queries_.num_samples());
};

TEST_F(Degradation, PersistentGpuFaultFallsBackToCpu) {
  FaultInjector::global().arm("resource:gpu", -1);
  const serve::ServeResult r = serve(base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_FALSE(r.report.simulated);  // ended up on the CPU
  EXPECT_TRUE(r.via_fallback);
  EXPECT_EQ(r.retries, 1);
  // Exact path: 2 failed hybrid attempts, downgrade, 1 failed independent
  // attempt, CPU fallback.
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 4u);
  EXPECT_TRUE(d[0].starts_with("serve: primary gpu-sim/hybrid failed after 2 attempt(s)")) << d[0];
  EXPECT_EQ(d[1], "degrade: variant hybrid -> independent");
  EXPECT_TRUE(d[2].starts_with("serve: gpu-sim/independent failed")) << d[2];
  EXPECT_EQ(d[3], "degrade: backend gpu-sim -> cpu-native fallback (independent)");
}

// The cpu-native rung runs cpu::classify_hierarchical, the interleaved
// kernel: requests smaller than its row group, and many groups long, must
// come back oracle-equal through it.
TEST_F(Degradation, CpuRungAnswersEveryRequestSizeLikeTheOracle) {
  FaultInjector::global().arm("resource:gpu", -1);
  serve::ForestServer server(forest_, base_options(Backend::GpuSim, Variant::Hybrid),
                             one_worker());
  for (const std::size_t rows : {1, 4, 256}) {
    const Dataset q = make_random_queries(rows, 7, 40 + rows);
    const serve::ServeResult r = server.submit(q).get();
    EXPECT_EQ(r.report.predictions, forest_.classify_batch(q.features(), rows)) << rows;
    EXPECT_TRUE(r.via_fallback) << rows;
    EXPECT_FALSE(r.report.simulated) << rows;
    ASSERT_FALSE(r.report.degradations.empty()) << rows;
    EXPECT_EQ(r.report.degradations.back(),
              "degrade: backend gpu-sim -> cpu-native fallback (independent)");
  }
}

// Shadow audits re-run each answer on the plan's cpu-native step, so the
// interleaved kernel is the audit oracle here: it must agree with the
// gpu-sim hybrid kernel on every request.
TEST_F(Degradation, ShadowAuditsThroughTheCpuStepFindNoMismatch) {
  serve::ServerOptions sopt = one_worker();
  sopt.integrity.audit_sample_every = 1;
  serve::ForestServer server(forest_, base_options(Backend::GpuSim, Variant::Hybrid), sopt);
  for (const std::size_t rows : {1, 4, 256}) {
    const Dataset q = make_random_queries(rows, 7, 40 + rows);
    const serve::ServeResult r = server.submit(q).get();
    EXPECT_EQ(r.report.predictions, forest_.classify_batch(q.features(), rows)) << rows;
    EXPECT_FALSE(r.via_fallback) << rows;
    EXPECT_TRUE(r.report.degradations.empty()) << rows;
  }
  EXPECT_EQ(server.self_heal().audit_sampled, 3u);
  EXPECT_EQ(server.self_heal().audit_mismatches, 0u);
}

TEST_F(Degradation, TransientGpuFaultRecoversViaRetry) {
  FaultInjector::global().arm("resource:gpu", 1);  // fails once, then clean
  const serve::ServeResult r = serve(base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  ASSERT_TRUE(r.report.gpu_counters.has_value());  // stayed on the GPU
  EXPECT_FALSE(r.via_fallback);
  EXPECT_EQ(r.retries, 1);  // the server's retry absorbed it on the primary
  EXPECT_FALSE(r.report.degraded());
}

TEST_F(Degradation, SmemFaultDowngradesVariantButStaysOnGpu) {
  // Only the hybrid kernel consults resource:gpu-smem, so the independent
  // downgrade succeeds on the same backend.
  FaultInjector::global().arm("resource:gpu-smem", -1);
  const serve::ServeResult r = serve(base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  EXPECT_TRUE(r.report.gpu_counters.has_value());
  EXPECT_FALSE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d[0].starts_with("serve: primary gpu-sim/hybrid failed after 2 attempt(s)")) << d[0];
  EXPECT_EQ(d[1], "degrade: variant hybrid -> independent");
}

TEST_F(Degradation, PersistentFpgaFaultFallsBackToCpu) {
  FaultInjector::global().arm("resource:fpga", -1);
  const serve::ServeResult r = serve(base_options(Backend::FpgaSim, Variant::Hybrid));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_FALSE(r.report.simulated);
  EXPECT_TRUE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 4u);
  EXPECT_TRUE(d[0].starts_with("serve: primary fpga-sim/hybrid failed")) << d[0];
  EXPECT_EQ(d[1], "degrade: variant hybrid -> independent");
  EXPECT_TRUE(d[2].starts_with("serve: fpga-sim/independent failed")) << d[2];
  EXPECT_EQ(d[3], "degrade: backend fpga-sim -> cpu-native fallback (independent)");
}

TEST_F(Degradation, FpgaBramFaultDowngradesVariantButStaysOnFpga) {
  // Only the collaborative/hybrid FPGA kernels reserve BRAM buffers.
  FaultInjector::global().arm("resource:fpga-bram", -1);
  const serve::ServeResult r = serve(base_options(Backend::FpgaSim, Variant::Collaborative));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  EXPECT_TRUE(r.report.fpga_report.has_value());
  EXPECT_FALSE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d[0].starts_with("serve: primary fpga-sim/collaborative failed")) << d[0];
  EXPECT_EQ(d[1], "degrade: variant collaborative -> independent");
}

TEST_F(Degradation, FilBaselineDegradesThroughCsrToCpu) {
  FaultInjector::global().arm("resource:gpu", -1);
  const serve::ServeResult r = serve(base_options(Backend::GpuSim, Variant::FilBaseline));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_FALSE(r.report.simulated);
  EXPECT_TRUE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 4u);
  EXPECT_TRUE(d[0].starts_with("serve: primary gpu-sim/fil-baseline failed")) << d[0];
  EXPECT_EQ(d[1], "degrade: variant fil-baseline -> csr");
  EXPECT_TRUE(d[2].starts_with("serve: gpu-sim/csr failed")) << d[2];
  EXPECT_EQ(d[3], "degrade: backend gpu-sim -> cpu-native fallback (csr)");
}

TEST_F(Degradation, OversizedRootSubtreeShrinksToFit) {
  // No injected fault: RSD 14 genuinely exceeds the 48 KB of shared
  // memory ((2^14 - 1) * 8 B), so the plan's shrink step kicks in.
  ClassifierOptions opt = base_options(Backend::GpuSim, Variant::Hybrid);
  opt.layout.root_subtree_depth = 14;
  const serve::ServeResult r = serve(opt);
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  EXPECT_TRUE(r.report.gpu_counters.has_value());
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NE(d[0].find("exceeds shared memory"), std::string::npos) << d[0];
  EXPECT_EQ(d[1], "degrade: shrink rsd 14 -> 12");
}

TEST_F(Degradation, CollaborativeRootOverSharedMemoryDowngradesToIndependent) {
  // No injected fault: an RSD 13 root subtree ((2^13 - 1) * 8 B) exceeds
  // the 48 KB the collaborative kernel stages a batch in. The ladder has
  // no shrink step for collaborative, so it runs independent on the GPU.
  ClassifierOptions opt = base_options(Backend::GpuSim, Variant::Collaborative);
  opt.layout.root_subtree_depth = 13;
  const serve::ServeResult r = serve(opt);
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  EXPECT_TRUE(r.report.gpu_counters.has_value());
  EXPECT_FALSE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_TRUE(d[0].starts_with("serve: primary gpu-sim/collaborative failed after 2 attempt(s)"))
      << d[0];
  EXPECT_NE(d[0].find("exceeds shared memory"), std::string::npos) << d[0];
  EXPECT_EQ(d[1], "degrade: variant collaborative -> independent");
}

TEST_F(Degradation, FpgaHybridRootOverPerCuBudgetShrinksAndStaysOnFpga) {
  // Four compute units per SLR split the on-chip budget four ways: RSD 9
  // ((2^9 - 1) * 8 B = 4088 B) would fit one CU's 8 KB but not a quarter
  // of it, so the plan shrinks to the largest RSD that fits per CU.
  ClassifierOptions opt = base_options(Backend::FpgaSim, Variant::Hybrid);
  opt.layout.root_subtree_depth = 9;
  opt.fpga.onchip_bytes_per_slr = 8192;
  opt.fpga_layout.cus_per_slr = 4;
  ASSERT_EQ(max_fitting_rsd(opt), 8);
  const serve::ServeResult r = serve(opt);
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_TRUE(r.report.simulated);
  ASSERT_TRUE(r.report.fpga_report.has_value());  // stayed on fpga-sim
  EXPECT_FALSE(r.via_fallback);
  const std::vector<std::string>& d = r.report.degradations;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NE(d[0].find("root subtree buffers exceed BRAM/URAM"), std::string::npos) << d[0];
  EXPECT_EQ(d[1], "degrade: shrink rsd 9 -> 8");
}

TEST_F(Degradation, ClassifierPropagatesResourceError) {
  // Classifier is validate + execute: one device bring-up per call, and
  // the failure reaches the caller untouched.
  FaultInjector& inj = FaultInjector::global();
  inj.arm("resource:gpu", -1);
  const std::uint64_t before = inj.fired("resource:gpu");  // cumulative per process
  const Classifier clf(small_forest(), base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_THROW(clf.classify(queries_), ResourceError);
  EXPECT_EQ(inj.fired("resource:gpu"), before + 1);

  // A time-boxed request runs in chunks (250 rows / 64 = 4), but a fault
  // ends its attempt at the first chunk: the device is brought up once
  // per attempt, exactly as for a one-shot request. Either way the path is
  // 2 hybrid attempts + 1 independent attempt, then the CPU rung.
  serve::ServerOptions chunked = one_worker();
  chunked.deadline_chunk_size = 64;
  for (const double deadline_seconds : {0.0, 30.0}) {
    SCOPED_TRACE(deadline_seconds);
    serve::ForestServer server(small_forest(), base_options(Backend::GpuSim, Variant::Hybrid),
                               chunked);
    const std::uint64_t fired = inj.fired("resource:gpu");
    const serve::ServeResult r = server.submit(queries_, deadline_seconds).get();
    EXPECT_EQ(r.report.predictions, reference_);
    EXPECT_TRUE(r.via_fallback);
    EXPECT_EQ(inj.fired("resource:gpu"), fired + 3);
  }
}

TEST_F(Degradation, EveryPlanEndsOnASeparateCpuReplica) {
  // The ladder cannot be exhausted: whatever the configuration, its last
  // rung is a CPU-native classifier of its own (the audit oracle), and
  // every other rung either reuses the primary or is the one layout the
  // plan compiles at install (shrunk hybrid, or FIL's CSR).
  ClassifierOptions oversized = base_options(Backend::GpuSim, Variant::Hybrid);
  oversized.layout.root_subtree_depth = 14;
  for (const ClassifierOptions& opt :
       {oversized, base_options(Backend::GpuSim, Variant::Hybrid),
        base_options(Backend::GpuSim, Variant::FilBaseline),
        base_options(Backend::GpuSim, Variant::Csr),
        base_options(Backend::FpgaSim, Variant::Collaborative),
        base_options(Backend::CpuNative, Variant::Independent)}) {
    SCOPED_TRACE(std::string(to_string(opt.backend)) + "/" + to_string(opt.variant));
    auto primary = std::make_shared<const Classifier>(small_forest(), opt);
    const DegradationPlan plan = build_degradation_plan(primary);
    ASSERT_GE(plan.size(), 2u);
    EXPECT_EQ(plan.front().classifier, primary);
    EXPECT_TRUE(plan.front().note.empty());
    EXPECT_EQ(plan.back().classifier->options().backend, Backend::CpuNative);
    EXPECT_NE(plan.back().classifier, primary);
    std::size_t compiled = 0;
    for (std::size_t i = 1; i + 1 < plan.size(); ++i) {
      if (plan[i].classifier != primary) ++compiled;
    }
    EXPECT_LE(compiled, 1u);
    for (std::size_t i = 1; i < plan.size(); ++i) {  // step 0 may be the oversized root
      EXPECT_EQ(plan[i].classifier->classify(queries_, plan[i].variant).predictions, reference_);
    }
  }

  // The shrunk rung carries its own layout, compiled here, once; the
  // downgrade rung runs the primary's.
  auto primary = std::make_shared<const Classifier>(small_forest(), oversized);
  const DegradationPlan plan = build_degradation_plan(primary);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[1].classifier->hierarchical().config().root_subtree_depth, 12);
  EXPECT_NE(&plan[1].classifier->hierarchical(), &primary->hierarchical());
  EXPECT_EQ(plan[2].classifier, primary);
  EXPECT_EQ(plan[2].variant, Variant::Independent);
}

TEST_F(Degradation, VariantsTheLayoutDoesNotServeAreRejected) {
  const Classifier hybrid(small_forest(), base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_THROW(hybrid.classify(queries_, Variant::Csr), ConfigError);
  EXPECT_THROW(hybrid.classify(queries_, Variant::FilBaseline), ConfigError);
  EXPECT_EQ(hybrid.classify(queries_, Variant::Collaborative).predictions, reference_);
  const Classifier cpu(small_forest(), base_options(Backend::CpuNative, Variant::Independent));
  EXPECT_THROW(cpu.classify(queries_, Variant::Hybrid), ConfigError);
  // A row range (a deadline chunk) is checked the same way.
  EXPECT_THROW(cpu.classify(QueryView(queries_).rows(64, 128), Variant::Csr), ConfigError);
}

TEST_F(Degradation, CleanRunsReportNoDegradations) {
  const serve::ServeResult r = serve(base_options(Backend::GpuSim, Variant::Hybrid));
  EXPECT_EQ(r.report.predictions, reference_);
  EXPECT_FALSE(r.report.degraded());
  EXPECT_FALSE(r.via_fallback);
  EXPECT_EQ(r.retries, 0);
}

}  // namespace
}  // namespace hrf
