#include "bench/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hrf::bench {
namespace {

SweepOptions tiny_sweep() {
  SweepOptions opt;
  opt.variants = {Variant::Hybrid};
  opt.backends = {Backend::FpgaSim};  // simulated -> deterministic numbers
  opt.batch_sizes = {32};
  opt.warmup_runs = 0;
  opt.repeat_runs = 2;
  opt.forest.num_trees = 5;
  opt.forest.max_depth = 6;
  opt.forest.num_features = 8;
  return opt;
}

TEST(BenchHarness, NameMappingsRoundTrip) {
  for (const Variant v : {Variant::Csr, Variant::Independent, Variant::Collaborative,
                          Variant::Hybrid, Variant::FilBaseline}) {
    EXPECT_EQ(variant_from_name(to_string(v)), v);
  }
  for (const Backend b : {Backend::CpuNative, Backend::GpuSim, Backend::FpgaSim}) {
    EXPECT_EQ(backend_from_name(to_string(b)), b);
  }
  EXPECT_EQ(backend_from_name("cpu"), Backend::CpuNative);  // CLI alias
  EXPECT_EQ(variant_from_name("fil"), Variant::FilBaseline);
  EXPECT_THROW(backend_from_name("tpu"), ConfigError);
  EXPECT_THROW(variant_from_name("quantum"), ConfigError);
}

TEST(BenchHarness, SweepSkipsInvalidCombos) {
  SweepOptions opt = tiny_sweep();
  opt.variants = {Variant::Csr, Variant::Independent, Variant::Collaborative, Variant::Hybrid};
  opt.backends = {Backend::CpuNative, Backend::FpgaSim};
  const BenchReport report = run_sweep(opt);
  // cpu-native supports csr+independent only; fpga-sim supports all four.
  EXPECT_EQ(report.cases.size(), 6u);
  EXPECT_EQ(report.find("collaborative/cpu-native/32"), nullptr);
  EXPECT_EQ(report.find("hybrid/cpu-native/32"), nullptr);
  EXPECT_NE(report.find("hybrid/fpga-sim/32"), nullptr);
}

TEST(BenchHarness, CasesCarryPopulatedMetrics) {
  SweepOptions opt = tiny_sweep();
  opt.variants = {Variant::Csr};
  opt.backends = {Backend::CpuNative, Backend::GpuSim, Backend::FpgaSim};
  const BenchReport report = run_sweep(opt);
  ASSERT_EQ(report.cases.size(), 3u);

  const BenchCase* cpu = report.find("csr/cpu-native/32");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->unit, Unit::Wall);
  EXPECT_GT(cpu->value("p50_ns"), 0.0);
  EXPECT_GE(cpu->value("p95_ns"), cpu->value("p50_ns"));
  EXPECT_GE(cpu->value("p99_ns"), cpu->value("p95_ns"));
  EXPECT_GE(cpu->value("max_ns"), cpu->value("p99_ns"));
  EXPECT_GT(cpu->value("qps"), 0.0);

  const BenchCase* gpu = report.find("csr/gpu-sim/32");
  ASSERT_NE(gpu, nullptr);
  EXPECT_EQ(gpu->unit, Unit::Modeled);
  EXPECT_DOUBLE_EQ(gpu->value("ns_per_query"), gpu->value("seconds") * 1e9 / 32.0);
  EXPECT_GT(gpu->value("cycles"), 0.0);
  EXPECT_GT(gpu->value("gld_transactions"), 0.0);
  EXPECT_GT(gpu->value("warp_instructions"), 0.0);
  EXPECT_GE(gpu->value("dram_transactions"), 0.0);
  EXPECT_GT(gpu->value(kHostNsPerQuery), 0.0);

  const BenchCase* fpga = report.find("csr/fpga-sim/32");
  ASSERT_NE(fpga, nullptr);
  EXPECT_EQ(fpga->unit, Unit::Modeled);
  EXPECT_GT(fpga->value("seconds"), 0.0);
  EXPECT_GT(fpga->value("total_cycles"), 0.0);
  EXPECT_GT(fpga->value(kHostNsPerQuery), 0.0);
  EXPECT_EQ(fpga->find("gld_transactions"), nullptr);

  EXPECT_FALSE(report.env.compiler.empty());
  EXPECT_GT(report.env.omp_max_threads, 0);
  EXPECT_NE(report.env.timestamp_utc.find("T"), std::string::npos);
}

TEST(BenchHarness, SimulatedSweepIsDeterministic) {
  SweepOptions opt = tiny_sweep();
  opt.backends = {Backend::GpuSim, Backend::FpgaSim};
  const BenchReport a = run_sweep(opt);
  const BenchReport b = run_sweep(opt);
  // Exact gate, both directions: every modeled value identical.
  EXPECT_TRUE(compare_reports(a, b, 0.0).passed());
  EXPECT_TRUE(compare_reports(b, a, 0.0).passed());
  EXPECT_EQ(compare_reports(a, b, 0.0).compared, 2);
}

// One case of each kind, with values that must survive JSON bit for bit.
BenchReport mixed_report() {
  BenchReport r = run_sweep(tiny_sweep());
  r.layout.root_subtree_depth = 9;
  BenchCase ab;
  ab.key = "trace";
  ab.set("p95_off_ns", 500'000.0).set("p95_on_ns", 510'000.0).set("ratio", 1.02);
  r.cases.push_back(ab);
  BenchCase wall;
  wall.key = "cluster";
  wall.set("p95_ns", 1.0 / 3.0).set("qps", 7162.7662221135606);
  r.cases.push_back(wall);
  return r;
}

void expect_same_cases(const BenchReport& a, const BenchReport& b) {
  ASSERT_EQ(a.cases.size(), b.cases.size());
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(a.cases[i].key, b.cases[i].key);
    EXPECT_EQ(a.cases[i].unit, b.cases[i].unit);
    EXPECT_EQ(a.cases[i].values, b.cases[i].values) << a.cases[i].key;
  }
}

TEST(BenchHarness, JsonRoundTripPreservesReport) {
  const BenchReport report = mixed_report();
  const BenchReport back = report_from_json(to_json(report));
  EXPECT_EQ(back.schema_version, kSchemaVersion);
  EXPECT_EQ(back.env.hostname, report.env.hostname);
  EXPECT_EQ(back.warmup_runs, report.warmup_runs);
  EXPECT_EQ(back.repeat_runs, report.repeat_runs);
  EXPECT_EQ(back.forest.num_trees, report.forest.num_trees);
  EXPECT_EQ(back.layout.subtree_depth, report.layout.subtree_depth);
  EXPECT_EQ(back.layout.root_subtree_depth, 9);
  expect_same_cases(report, back);
}

TEST(BenchHarness, SaveLoadRoundTrips) {
  const BenchReport report = mixed_report();
  const std::string path = testing::TempDir() + "/hrf_bench_roundtrip.json";
  save_report(report, path);
  expect_same_cases(report, load_report(path));
  std::remove(path.c_str());
}

TEST(BenchHarness, SchemaMismatchesAreRejected) {
  const BenchReport report = run_sweep(tiny_sweep());
  json::Value v1 = to_json(report);
  v1["schema_version"] = 1;  // a pre-unit baseline
  try {
    report_from_json(v1);
    FAIL() << "a v1 report must be rejected";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("regenerate the baseline"), std::string::npos);
  }

  json::Value wrong_schema = to_json(report);
  wrong_schema["schema"] = "not-a-bench";
  EXPECT_THROW(report_from_json(wrong_schema), FormatError);

  json::Value wrong_unit = to_json(report);
  json::Value bad_case = json::Value::object();
  bad_case["key"] = "x";
  bad_case["unit"] = "furlongs";
  bad_case["values"] = json::Value::object();
  wrong_unit["cases"].push_back(std::move(bad_case));
  EXPECT_THROW(report_from_json(wrong_unit), FormatError);

  json::Value empty = to_json(report);
  empty["cases"] = json::Value::array();
  EXPECT_EQ(report_from_json(empty).cases.size(), 0u);  // empty is valid
}

TEST(BenchHarness, MeasureTraceOverheadProducesSaneNumbers) {
  const BenchCase c = run_ab_case(AbCase::Trace, 8, 42);  // smoke-scale
  EXPECT_EQ(c.key, "trace");
  EXPECT_EQ(c.unit, Unit::Wall);
  EXPECT_GT(c.value("p95_off_ns"), 0.0);
  EXPECT_GT(c.value("p95_on_ns"), 0.0);
  EXPECT_DOUBLE_EQ(c.value("ratio"), c.value("p95_on_ns") / c.value("p95_off_ns"));
}

TEST(BenchHarness, MeasureAuditOverheadProducesSaneNumbers) {
  const BenchCase c = run_ab_case(AbCase::Audit, 8, 42);  // smoke-scale
  EXPECT_EQ(c.key, "audit");
  EXPECT_GT(c.value("p95_off_ns"), 0.0);
  EXPECT_GT(c.value("p95_on_ns"), 0.0);
  EXPECT_GT(c.value("ratio"), 0.0);
}

TEST(BenchHarness, ObsArmRunsUntilTheMonitorTicks) {
  // 8 requests take a few ms; the armed arm must still serve through two
  // 250 ms monitor ticks, so every run records at least one window.
  const BenchCase c = run_ab_case(AbCase::Obs, 8, 42);
  EXPECT_EQ(c.key, "obs");
  EXPECT_GE(c.value("monitor_windows"), 1.0);
  EXPECT_GT(c.value("ratio"), 0.0);
}

TEST(BenchHarness, ClosedLoopCountsEveryRequestOnce) {
  std::atomic<int> calls{0};
  const LoopStats s = closed_loop(
      3, [](std::size_t i) { return i < 40; },
      [&](std::size_t, std::size_t i) {
        calls.fetch_add(1);
        if (i % 10 == 0) throw Error("refused");
      });
  EXPECT_EQ(calls.load(), 40);
  EXPECT_EQ(s.latencies_ns.size(), 36u);
  EXPECT_EQ(s.failed, 4u);
  // Each latency is tagged with its request index, every returned call
  // exactly once.
  ASSERT_EQ(s.requests.size(), s.latencies_ns.size());
  std::vector<std::size_t> seen = s.requests;
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < 40; ++i) {
    if (i % 10 != 0) expected.push_back(i);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_GT(s.qps(), 0.0);
}

// Every A/B, batch and cluster run goes through this check: a failed call
// leaves no latency sample, so without it an arm whose requests all threw
// would read p95 = 0 and pass both the ratio and the absolute gate.
TEST(BenchHarness, FailedCallsFailTheCase) {
  // Request i goes to arm i % 2, as in the ratio cases; the "on" arm throws.
  const LoopStats on_arm_throws = closed_loop(
      1, [](std::size_t i) { return i < 20; },
      [](std::size_t, std::size_t i) {
        if (i % 2 == 1) throw Error("on arm down");
      });
  EXPECT_EQ(on_arm_throws.failed, 10u);
  try {
    on_arm_throws.require_all_served("trace");
    FAIL() << "a case with failed calls must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'trace'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("10 calls failed"), std::string::npos) << e.what();
  }
  const LoopStats none_ran = closed_loop(
      1, [](std::size_t) { return false; }, [](std::size_t, std::size_t) {});
  EXPECT_THROW(none_ran.require_all_served("cluster"), Error);
  const LoopStats all_served = closed_loop(
      2, [](std::size_t i) { return i < 8; }, [](std::size_t, std::size_t) {});
  EXPECT_NO_THROW(all_served.require_all_served("batch"));
}

// Tier-1 pin of the committed baseline: its gpu-sim and fpga-sim cases,
// re-run with the forest, layout and policy stored in the file, must
// reproduce every modeled value exactly. This is the only exact pin of
// the fpga-sim model through Classifier; test_golden_counters pins the
// gpu kernels only.
TEST(BenchHarness, CommittedBaselineModeledCasesReproduce) {
  const BenchReport committed = load_report(HRF_BENCH_BASELINE);
  BenchReport baseline = committed;
  baseline.cases.clear();
  for (const BenchCase& c : committed.cases) {
    if (c.unit == Unit::Modeled) baseline.cases.push_back(c);
  }
  ASSERT_EQ(baseline.cases.size(), 16u);

  SweepOptions opt;
  opt.backends = {Backend::GpuSim, Backend::FpgaSim};
  opt.warmup_runs = committed.warmup_runs;
  opt.repeat_runs = committed.repeat_runs;
  opt.forest = committed.forest;
  opt.layout = committed.layout;
  opt.query_seed = committed.query_seed;
  const CompareResult cmp = compare_reports(baseline, run_sweep(opt), 0.0);
  for (const Regression& r : cmp.regressions) {
    ADD_FAILURE() << r.key << " " << r.value << ": " << r.baseline << " -> " << r.current;
  }
  EXPECT_TRUE(cmp.missing_cases.empty());
  EXPECT_EQ(cmp.compared, 16);
}

BenchCase wall_case(const std::string& key, double p95) {
  BenchCase c;
  c.key = key;
  c.set("p95_ns", p95);
  return c;
}

BenchReport two_case_report() {
  BenchReport r;
  r.cases = {wall_case("csr/cpu-native/64", 100.0), wall_case("cluster", 200.0)};
  return r;
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport r = two_case_report();
  const CompareResult cmp = compare_reports(r, r, 0.25);
  EXPECT_TRUE(cmp.passed());
  EXPECT_EQ(cmp.compared, 2);
  EXPECT_TRUE(cmp.regressions.empty());
  EXPECT_TRUE(cmp.missing_cases.empty());
}

TEST(BenchCompare, GrowthWithinTolerancePasses) {
  const BenchReport base = two_case_report();
  BenchReport cur = base;
  cur.cases[0].set("p95_ns", 124.0);  // +24% < 25%
  EXPECT_TRUE(compare_reports(base, cur, 0.25).passed());
}

TEST(BenchCompare, RegressionPastToleranceFails) {
  const BenchReport base = two_case_report();
  BenchReport cur = base;
  cur.cases[1].set("p95_ns", 260.0);  // +30% > 25%
  const CompareResult cmp = compare_reports(base, cur, 0.25);
  EXPECT_FALSE(cmp.passed());
  ASSERT_EQ(cmp.regressions.size(), 1u);
  EXPECT_EQ(cmp.regressions[0].key, "cluster");
  EXPECT_EQ(cmp.regressions[0].value, "p95_ns");
  EXPECT_DOUBLE_EQ(cmp.regressions[0].baseline, 200.0);
  EXPECT_DOUBLE_EQ(cmp.regressions[0].current, 260.0);
}

TEST(BenchCompare, ImprovementNeverFails) {
  // For wall-clock cases; a modeled improvement fails (see below).
  const BenchReport base = two_case_report();
  BenchReport cur = base;
  cur.cases[0].set("p95_ns", 1.0);
  EXPECT_TRUE(compare_reports(base, cur, 0.0).passed());
}

TEST(BenchCompare, ModeledCaseFailsOnAnyChange) {
  BenchReport base = two_case_report();
  BenchCase modeled;
  modeled.key = "hybrid/gpu-sim/64";
  modeled.unit = Unit::Modeled;
  modeled.set("seconds", 7.2e-8).set("dram_transactions", 1234.0).set(kHostNsPerQuery, 900.0);
  base.cases.push_back(modeled);

  BenchReport cur = base;
  cur.cases[0].set("p95_ns", 50.0);              // a faster wall case still passes
  cur.cases[2].set(kHostNsPerQuery, 90'000.0);  // host time is never gated
  EXPECT_TRUE(compare_reports(base, cur, 0.0).passed());

  BenchReport ulp = cur;  // 1 ulp faster modeled seconds: an improvement
  ulp.cases[2].set("seconds", std::nextafter(7.2e-8, 0.0));
  const CompareResult faster = compare_reports(base, ulp, 0.25);
  EXPECT_FALSE(faster.passed());
  ASSERT_EQ(faster.regressions.size(), 1u);
  EXPECT_EQ(faster.regressions[0].key, "hybrid/gpu-sim/64");
  EXPECT_EQ(faster.regressions[0].value, "seconds");

  BenchReport txn = cur;  // one extra DRAM transaction
  txn.cases[2].set("dram_transactions", 1235.0);
  const CompareResult more = compare_reports(base, txn, 0.25);
  EXPECT_FALSE(more.passed());
  ASSERT_EQ(more.regressions.size(), 1u);
  EXPECT_EQ(more.regressions[0].value, "dram_transactions");

  BenchReport dropped = cur;  // a modeled value that disappears fails too
  dropped.cases[2].values.erase(dropped.cases[2].values.begin());
  EXPECT_FALSE(compare_reports(base, dropped, 0.25).passed());
}

TEST(BenchCompare, MissingCaseFailsNewCaseDoesNot) {
  const BenchReport base = two_case_report();
  BenchReport cur = base;
  cur.cases.pop_back();
  cur.cases.push_back(wall_case("csr/cpu-native/8", 5.0));
  const CompareResult cmp = compare_reports(base, cur, 0.25);
  EXPECT_FALSE(cmp.passed());
  ASSERT_EQ(cmp.missing_cases.size(), 1u);
  EXPECT_EQ(cmp.missing_cases[0], "cluster");
  EXPECT_EQ(cmp.compared, 1);
}

// The A/B cases (trace, audit, obs) share one record shape and one gate:
// the on/off ratio of the current report, against 1 + trace_tolerance,
// baseline or not. Each case runs the same three checks below.

BenchReport with_ab_case(const std::string& key, double ratio) {
  BenchReport report = two_case_report();
  BenchCase ab;
  ab.key = key;
  ab.set("p95_off_ns", 100'000.0).set("p95_on_ns", 100'000.0 * ratio).set("ratio", ratio);
  report.cases.push_back(ab);
  return report;
}

void expect_ab_round_trip(const std::string& key) {
  const BenchReport report = with_ab_case(key, 1.02);
  const BenchReport back = report_from_json(to_json(report));
  const BenchCase* read = back.find(key);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->unit, Unit::Wall);
  EXPECT_EQ(read->values, report.cases.back().values);
  EXPECT_DOUBLE_EQ(read->value("ratio"), 1.02);

  // A report without the case stays readable.
  EXPECT_EQ(report_from_json(to_json(two_case_report())).find(key), nullptr);
}

void expect_ab_gate_trips(const std::string& key) {
  const BenchReport base = two_case_report();
  const BenchReport cur = with_ab_case(key, 1.08);
  // 8% > 5% default: fails, named, with or without the case in the baseline.
  const BenchReport* baselines[] = {&base, &cur};
  for (const BenchReport* baseline : baselines) {
    const CompareResult cmp = compare_reports(*baseline, cur, 0.25);
    EXPECT_FALSE(cmp.passed());
    ASSERT_EQ(cmp.regressions.size(), 1u);
    EXPECT_EQ(cmp.regressions[0].key, key);
    EXPECT_EQ(cmp.regressions[0].value, "ratio");
    EXPECT_DOUBLE_EQ(cmp.regressions[0].current, 1.08);
  }
  // Within a widened tolerance the same report passes.
  EXPECT_TRUE(compare_reports(base, cur, 0.25, 0.10).passed());
}

void expect_ab_absent_or_within_tolerance_ok(const std::string& key) {
  const BenchReport base = two_case_report();
  EXPECT_TRUE(compare_reports(base, base, 0.25).passed());
  const BenchReport cur = with_ab_case(key, 1.03);
  EXPECT_TRUE(compare_reports(base, cur, 0.25).passed());
  EXPECT_TRUE(compare_reports(cur, cur, 0.25).passed());
  // A baseline case the current run lacks is missing, like any other.
  EXPECT_FALSE(compare_reports(cur, base, 0.25).passed());
}

TEST(BenchHarness, TraceOverheadRoundTripsThroughJson) { expect_ab_round_trip("trace"); }
TEST(BenchHarness, AuditOverheadRoundTripsThroughJson) { expect_ab_round_trip("audit"); }
TEST(BenchHarness, ObsOverheadRoundTripsThroughJson) { expect_ab_round_trip("obs"); }

TEST(BenchCompare, TraceOverheadGateTripsPastTolerance) { expect_ab_gate_trips("trace"); }
TEST(BenchCompare, AuditOverheadGateTripsPastTolerance) { expect_ab_gate_trips("audit"); }
TEST(BenchCompare, ObsOverheadGateTripsPastTolerance) { expect_ab_gate_trips("obs"); }

TEST(BenchCompare, TraceOverheadAbsentOrWithinToleranceIsOk) {
  expect_ab_absent_or_within_tolerance_ok("trace");
}
TEST(BenchCompare, AuditOverheadAbsentOrWithinToleranceIsOk) {
  expect_ab_absent_or_within_tolerance_ok("audit");
}
TEST(BenchCompare, ObsOverheadAbsentOrWithinToleranceIsOk) {
  expect_ab_absent_or_within_tolerance_ok("obs");
}

}  // namespace
}  // namespace hrf::bench
