// Silent-corruption defense (docs/robustness.md, serve/integrity.hpp):
//
//   * The cross-check property the header promises: layout_crc32() over a
//     built layout equals folding the per-section CRC32s that layout_io
//     writes into the same layout's v2 blob — pinned here for all three
//     resident variants (CSR, independent hierarchical, hybrid).
//   * replica_crc32() covers the node records a gpu-sim replica's kernels
//     read: its layout's packed nodes, or the FIL baseline's image.
//   * corrupt_replica_copy() produces a structurally valid copy whose CRC
//     drifts and whose predictions diverge, without touching the source —
//     also through a gpu-sim replica.
//   * ForestServer self-healing: the scrubber detects and repairs an
//     injected replica corruption; sampled shadow audits serve the oracle
//     answer on divergence and trigger a repair; the watchdog rescues a
//     hung worker's request and replaces the thread — for coalesced
//     batches as for lone requests.
//
// All deterministic and fast enough for tier1; the concurrent soak lives
// in test_integrity_chaos.cpp (chaos label).

#include "serve/integrity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/layout_io.hpp"
#include "serve/server.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

Forest demo_forest() {
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = 8;
  spec.num_features = 9;
  spec.num_classes = 3;
  spec.seed = 91;
  return make_random_forest(spec);
}

std::string tmp_path(const char* name) { return testing::TempDir() + "/" + name; }

// Walks a v2 blob (8-byte preamble, then {u64 size, u32 crc, payload}
// frames), asserting each section's stored CRC matches its payload, and
// returns the chained CRC over all payloads in file order.
std::uint32_t fold_blob_section_crcs(const std::string& path, std::size_t expect_sections) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t off = 8;  // u32 magic + u32 version
  std::uint32_t folded = 0;
  std::size_t sections = 0;
  while (off < bytes.size()) {
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    EXPECT_LE(off + 12, bytes.size());
    std::memcpy(&size, bytes.data() + off, sizeof size);
    off += sizeof size;
    std::memcpy(&crc, bytes.data() + off, sizeof crc);
    off += sizeof crc;
    EXPECT_LE(off + size, bytes.size());
    EXPECT_EQ(crc32(bytes.data() + off, size), crc) << "section " << sections;
    folded = crc32(bytes.data() + off, size, folded);
    off += size;
    ++sections;
  }
  EXPECT_EQ(off, bytes.size());
  EXPECT_EQ(sections, expect_sections);
  return folded;
}

TEST(IntegrityCrc, CsrReplicaCrcEqualsFoldedBlobSectionCrcs) {
  const CsrForest csr = CsrForest::build(demo_forest());
  const std::string path = tmp_path("hrf_integrity_csr.hrfc");
  save_csr(csr, path);
  // header, feature_id, value, children_arr, children_arr_idx, tree_root
  EXPECT_EQ(layout_crc32(csr), fold_blob_section_crcs(path, 6));
  std::remove(path.c_str());
}

TEST(IntegrityCrc, HierarchicalReplicaCrcEqualsFoldedBlobSectionCrcs) {
  const Forest f = demo_forest();
  // Independent (RSD defaults to SD) and hybrid (RSD > SD) layouts frame
  // the same eight sections; the fold must match for both.
  const HierConfig configs[] = {HierConfig{.subtree_depth = 4},
                                HierConfig{.subtree_depth = 4, .root_subtree_depth = 6}};
  for (const HierConfig& cfg : configs) {
    const HierarchicalForest h = HierarchicalForest::build(f, cfg);
    const std::string path = tmp_path("hrf_integrity_hier.hrfh");
    save_hierarchical(h, path);
    EXPECT_EQ(layout_crc32(h), fold_blob_section_crcs(path, 8))
        << "subtree_depth=" << cfg.subtree_depth << " rsd=" << cfg.root_subtree_depth;
    std::remove(path.c_str());
  }
}

TEST(IntegrityCrc, CrcIsStableAcrossRebuildsAndSensitiveToCorruption) {
  const Forest f = demo_forest();
  const CsrForest a = CsrForest::build(f);
  const CsrForest b = CsrForest::build(f);
  EXPECT_EQ(layout_crc32(a), layout_crc32(b));
  EXPECT_NE(layout_crc32(a), layout_crc32(corrupt_replica_copy(a)));
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  EXPECT_NE(layout_crc32(h), layout_crc32(corrupt_replica_copy(h)));
}

TEST(IntegrityCrc, ClobberingOneLayoutNodeChangesTheGpuReplicaCrc) {
  const Forest f = demo_forest();
  ClassifierOptions opt;  // gpu-sim hybrid
  const Classifier hybrid(f, opt);
  const HierarchicalForest& h = hybrid.hierarchical();
  EXPECT_EQ(replica_crc32(hybrid), layout_crc32(h));

  // The kernels read the layout's packed nodes, so one clobbered node
  // record (its threshold nudged, the topology intact) moves the CRC.
  std::vector<PackedNode> nodes(h.nodes().begin(), h.nodes().end());
  const auto inner = std::find_if(nodes.begin(), nodes.end(),
                                  [](const PackedNode& n) { return n.feature >= 0; });
  ASSERT_NE(inner, nodes.end());
  inner->value += 1.0f;
  const Classifier clobbered(
      f,
      HierarchicalForest::from_parts(
          h.config(), h.num_features(), h.num_classes(), h.real_nodes(),
          {h.subtree_node_offsets().begin(), h.subtree_node_offsets().end()},
          {h.subtree_depths().begin(), h.subtree_depths().end()},
          {h.connection_offsets().begin(), h.connection_offsets().end()},
          {h.subtree_connection().begin(), h.subtree_connection().end()}, std::move(nodes),
          {h.tree_subtree_begin().begin(), h.tree_subtree_begin().end()}),
      opt);
  EXPECT_NE(replica_crc32(clobbered), replica_crc32(hybrid));

  // The FIL baseline's only resident state is its image.
  opt.variant = Variant::FilBaseline;
  const Classifier fil(f, opt);
  ASSERT_NE(fil.device_image(), nullptr);
  EXPECT_EQ(replica_crc32(fil), image_crc32(*fil.device_image()));
  EXPECT_EQ(replica_crc32(Classifier(f, opt)), replica_crc32(fil));

  // A CPU replica has no image: its CRC is the layout's.
  opt.backend = Backend::CpuNative;
  opt.variant = Variant::Independent;
  const Classifier cpu(f, opt);
  EXPECT_EQ(cpu.device_image(), nullptr);
  EXPECT_EQ(replica_crc32(cpu), layout_crc32(cpu.hierarchical()));
}

TEST(IntegrityCorrupt, CorruptGpuReplicaChangesItsCrcAndDivergesFromTheOracle) {
  // The replica's kernels read the corrupted layout's nodes directly, so
  // both the scrubber's reference CRC and the shadow audit see the damage.
  const Forest f = demo_forest();
  const Dataset q = make_random_queries(64, 9, 92);
  const std::vector<std::uint8_t> oracle = f.classify_batch(q.features(), q.num_samples());
  ClassifierOptions opt;  // gpu-sim hybrid
  const Classifier clean(f, opt);
  const Classifier bad(f, corrupt_replica_copy(clean.hierarchical()), opt);
  EXPECT_NE(replica_crc32(bad), replica_crc32(clean));
  EXPECT_EQ(clean.classify(q).predictions, oracle);
  EXPECT_NE(bad.classify(q).predictions, oracle);
}

TEST(IntegrityCorrupt, CopyDivergesWithoutTouchingTheSourceOrTopology) {
  const Forest f = demo_forest();
  const CsrForest csr = CsrForest::build(f);
  const std::uint32_t before = layout_crc32(csr);
  const CsrForest bad = corrupt_replica_copy(csr);  // validates via from_parts
  EXPECT_EQ(layout_crc32(csr), before);             // source untouched
  EXPECT_EQ(bad.num_nodes(), csr.num_nodes());      // topology intact
  const Dataset q = make_random_queries(64, 9, 92);
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < q.num_samples(); ++i) {
    if (bad.classify(q.sample(i)) != csr.classify(q.sample(i))) ++diverged;
  }
  // Every internal threshold is clobbered: silent, but not subtle.
  EXPECT_GT(diverged, 0u);
}

// ---------------------------------------------------------------------------
// ForestServer self-healing behavior.

struct ServeFixture {
  Forest forest = demo_forest();
  Dataset queries = make_random_queries(16, 9, 93);
  std::vector<std::uint8_t> reference =
      forest.classify_batch(queries.features(), queries.num_samples());
};

// Polls self_heal() until `done` passes or the deadline expires.
template <typename Pred>
bool wait_for(ForestServer& server, Pred done, double seconds = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done(server.self_heal())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done(server.self_heal());
}

TEST(IntegrityServer, ScrubberDetectsAndRepairsInjectedCorruption) {
  FaultInjector::global().disarm_all();
  ServeFixture fx;

  ClassifierOptions copt;
  copt.backend = Backend::GpuSim;
  copt.variant = Variant::Hybrid;
  copt.layout.subtree_depth = 4;

  ServerOptions sopt;
  sopt.num_workers = 1;
  sopt.integrity.scrub_interval_seconds = 0.005;
  ForestServer server(fx.forest, copt, sopt);

  // Let at least one clean pass land so "passes without corruption" is
  // also covered, then poison the single worker's replica.
  ASSERT_TRUE(wait_for(server, [](const SelfHealStats& s) { return s.scrub_passes > 0; }));
  EXPECT_EQ(server.self_heal().scrub_corruptions, 0u);

  FaultInjector::global().arm("corrupt:replica", 1);
  ASSERT_TRUE(wait_for(server, [](const SelfHealStats& s) {
    return s.scrub_corruptions >= 1 && s.scrub_repairs >= 1;
  }));
  EXPECT_EQ(FaultInjector::global().fired("corrupt:replica"), 1u);

  // The rebuilt replica serves bit-exact predictions again.
  const ServeResult res = server.submit(fx.queries).get();
  EXPECT_EQ(res.report.predictions, fx.reference);

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_TRUE(server.healthy());
  FaultInjector::global().disarm_all();
}

TEST(IntegrityServer, ShadowAuditServesOracleAnswerAndTriggersRepair) {
  FaultInjector::global().disarm_all();
  ServeFixture fx;

  ClassifierOptions copt;
  copt.backend = Backend::CpuNative;
  copt.variant = Variant::Csr;

  ServerOptions sopt;
  sopt.num_workers = 1;
  sopt.integrity.audit_sample_every = 1;  // audit every request
  sopt.integrity.audit_mismatch_threshold = 2;
  ForestServer server(fx.forest, copt, sopt);

  FaultInjector::global().arm("corrupt:replica", 1);
  // The corruption lands on the monitor's next poll; wait for the charge
  // to be consumed so the request loop genuinely runs against a poisoned
  // replica.
  ASSERT_TRUE(wait_for(server, [](const SelfHealStats&) {
    return FaultInjector::global().fired("corrupt:replica") == 1;
  }));
  // From now until the repair lands, every response must still carry the
  // oracle predictions (the audit is authoritative on divergence).
  bool saw_audit_note = false;
  const auto loop_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < loop_deadline) {
    const ServeResult res = server.submit(fx.queries).get();
    ASSERT_EQ(res.report.predictions, fx.reference);
    for (const std::string& d : res.report.degradations) {
      if (d.find("audit") != std::string::npos) saw_audit_note = true;
    }
    const SelfHealStats s = server.self_heal();
    if (s.scrub_repairs >= 1 && s.audit_mismatches >= 1) break;
  }
  const SelfHealStats s = server.self_heal();
  EXPECT_GT(s.audit_sampled, 0u);
  EXPECT_GE(s.audit_mismatches, 1u);
  EXPECT_GE(s.scrub_repairs, 1u);  // audit streak handed the monitor a repair
  EXPECT_TRUE(saw_audit_note);

  // After the repair: audits keep sampling, mismatches stop accruing.
  const std::uint64_t mismatches_after_repair = server.self_heal().audit_mismatches;
  for (int i = 0; i < 5; ++i) {
    const ServeResult res = server.submit(fx.queries).get();
    EXPECT_EQ(res.report.predictions, fx.reference);
    EXPECT_TRUE(res.report.degradations.empty());
  }
  EXPECT_EQ(server.self_heal().audit_mismatches, mismatches_after_repair);

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_EQ(server.counters().value("requests.failed"), 0u);
  FaultInjector::global().disarm_all();
}

TEST(IntegrityServer, WatchdogRescuesHungWorkerAndReplacesThread) {
  FaultInjector::global().disarm_all();
  ServeFixture fx;

  ClassifierOptions copt;
  copt.backend = Backend::CpuNative;
  copt.variant = Variant::Csr;

  ServerOptions sopt;
  sopt.num_workers = 1;
  sopt.integrity.hang_timeout_seconds = 0.05;
  sopt.integrity.inject_hang_seconds = 0.5;  // well past the timeout
  ForestServer server(fx.forest, copt, sopt);

  FaultInjector::global().arm("hang:worker", 1);
  const ServeResult rescued = server.submit(fx.queries).get();
  // Rescued, not lost: the watchdog answered on the CPU oracle and said so.
  EXPECT_EQ(rescued.report.predictions, fx.reference);
  bool noted = false;
  for (const std::string& d : rescued.report.degradations) {
    if (d.find("watchdog") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);

  // The promise resolves inside the rescue, a beat before the monitor
  // finishes replacing the thread — poll for the restart rather than
  // racing it.
  ASSERT_TRUE(wait_for(server, [](const SelfHealStats& s) {
    return s.watchdog_worker_restarts >= 1;
  }));
  const SelfHealStats s = server.self_heal();
  EXPECT_GE(s.watchdog_missed_heartbeats, 1u);
  EXPECT_EQ(s.watchdog_worker_restarts, 1u);

  // The replacement thread serves normally (no degradation trail).
  for (int i = 0; i < 5; ++i) {
    const ServeResult res = server.submit(fx.queries).get();
    EXPECT_EQ(res.report.predictions, fx.reference);
    EXPECT_TRUE(res.report.degradations.empty());
  }

  // The zombie (still sleeping in the injected hang) joins at shutdown.
  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_EQ(server.counters().value("requests.failed"), 0u);
  EXPECT_TRUE(server.healthy());
  FaultInjector::global().disarm_all();
}

// A batch is one dispatch, so it is audited like a lone request: the
// corrupted replica's answer for all eight coalesced members is caught
// and replaced by the oracle's.
TEST(IntegrityServer, ShadowAuditCoversBatchedRequests) {
  FaultInjector::global().disarm_all();
  ServeFixture fx;

  ClassifierOptions copt;
  copt.backend = Backend::CpuNative;
  copt.variant = Variant::Csr;

  ServerOptions sopt;
  sopt.num_workers = 1;
  sopt.start_paused = true;  // deterministic backlog: one batch of eight
  sopt.batching.max_requests = 8;
  sopt.integrity.audit_sample_every = 1;
  ForestServer server(fx.forest, copt, sopt);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(fx.queries));
  // Fired counts are cumulative across tests; wait for this arm's charge.
  const std::uint64_t fired_before = FaultInjector::global().fired("corrupt:replica");
  FaultInjector::global().arm("corrupt:replica", 1);
  ASSERT_TRUE(wait_for(server, [&](const SelfHealStats&) {
    return FaultInjector::global().fired("corrupt:replica") == fired_before + 1;
  }));
  server.resume();

  for (std::future<ServeResult>& f : futures) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.report.predictions, fx.reference);
    bool noted = false;
    for (const std::string& d : res.report.degradations) {
      if (d.find("audit") != std::string::npos) noted = true;
    }
    EXPECT_TRUE(noted);
  }
  EXPECT_EQ(server.counters().value("requests.batched"), 8u);
  EXPECT_GE(server.self_heal().audit_sampled, 1u);
  EXPECT_GE(server.self_heal().audit_mismatches, 1u);

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_EQ(server.counters().value("requests.failed"), 0u);
  FaultInjector::global().disarm_all();
}

// The watchdog's claim window covers a whole batch: one hung dispatch of
// eight members is rescued member by member on the CPU oracle.
TEST(IntegrityServer, WatchdogRescuesEveryMemberOfAHungBatch) {
  FaultInjector::global().disarm_all();
  ServeFixture fx;

  ClassifierOptions copt;
  copt.backend = Backend::CpuNative;
  copt.variant = Variant::Csr;

  ServerOptions sopt;
  sopt.num_workers = 1;
  sopt.start_paused = true;
  sopt.batching.max_requests = 8;
  sopt.integrity.hang_timeout_seconds = 0.05;
  sopt.integrity.inject_hang_seconds = 0.5;  // well past the timeout
  ForestServer server(fx.forest, copt, sopt);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(server.submit(fx.queries));
  const std::uint64_t fired_before = FaultInjector::global().fired("hang:worker");
  FaultInjector::global().arm("hang:worker", 1);
  server.resume();

  for (std::future<ServeResult>& f : futures) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.report.predictions, fx.reference);
    EXPECT_TRUE(res.via_fallback);
    bool noted = false;
    for (const std::string& d : res.report.degradations) {
      if (d.find("watchdog") != std::string::npos) noted = true;
    }
    EXPECT_TRUE(noted);
  }
  ASSERT_TRUE(wait_for(server, [](const SelfHealStats& s) {
    return s.watchdog_worker_restarts >= 1;
  }));
  EXPECT_EQ(FaultInjector::global().fired("hang:worker"), fired_before + 1);
  EXPECT_EQ(server.counters().value("requests.batched"), 8u);
  EXPECT_EQ(server.self_heal().watchdog_worker_restarts, 1u);

  const DrainReport drain = server.shutdown();
  EXPECT_EQ(drain.abandoned, 0u);
  EXPECT_EQ(server.counters().value("requests.failed"), 0u);
  EXPECT_TRUE(server.healthy());
  FaultInjector::global().disarm_all();
}

TEST(IntegrityServer, UnconfiguredServerReportsAllZeros) {
  ServeFixture fx;
  ClassifierOptions copt;
  copt.backend = Backend::CpuNative;
  copt.variant = Variant::Csr;
  ForestServer server(fx.forest, copt, ServerOptions{});
  (void)server.submit(fx.queries).get();
  const SelfHealStats s = server.self_heal();
  EXPECT_EQ(s.scrub_passes, 0u);
  EXPECT_EQ(s.audit_sampled, 0u);
  EXPECT_EQ(s.watchdog_worker_restarts, 0u);
  (void)server.shutdown();
}

}  // namespace
}  // namespace hrf::serve
