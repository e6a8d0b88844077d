#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "obs/rollup.hpp"
#include "util/error.hpp"

namespace hrf::obs {
namespace {

RunReport gpu_report(std::uint64_t queries, std::uint64_t smem, std::uint64_t dram) {
  RunReport r;
  r.predictions.resize(queries, 0);
  r.seconds = 0.001;
  gpusim::Counters c;
  c.gld_requests = 100;
  c.gld_transactions = 250;
  c.smem_loads = smem;
  c.l2_hits = 10;
  c.dram_transactions = dram;
  c.branches = 1000;
  c.divergent_branches = 100;
  r.gpu_counters = c;
  return r;
}

RunReport fpga_run_report(std::uint64_t queries) {
  RunReport r;
  r.predictions.resize(queries, 0);
  r.seconds = 0.002;
  fpgasim::FpgaReport f{};
  f.seconds = 0.002;
  f.pipeline_cycles = 9'000.0;
  f.total_cycles = 10'000.0;
  f.stall_pct = 10.0;
  r.fpga_report = f;
  return r;
}

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  for (const std::string& name : counter_catalogue()) snap.counters[name] = 0;
  snap.counters["requests.submitted"] = 7;
  snap.counters["requests.completed"] = 6;
  snap.gauges["queue_depth"] = 2.0;
  snap.gauges["workers"] = 4.0;
  snap.gauges["breaker_state"] = 0.0;
  snap.gauges["model_generation"] = 3.0;
  LatencyHistogram h;
  for (std::uint64_t us = 1; us <= 100; ++us) h.record_ns(us * 1000);
  snap.histograms.emplace_back("queue_wait", h.snapshot());
  snap.histograms.emplace_back("execute", h.snapshot());
  snap.histograms.emplace_back("end_to_end", h.snapshot());
  snap.histograms.emplace_back("reload", LatencyHistogram{}.snapshot());
  RollupRegistry reg;
  reg.record("hybrid", "gpu-sim", 3, gpu_report(64, 500, 40));
  reg.record("csr", "fpga-sim", 3, fpga_run_report(64));
  snap.rollups = reg.snapshot();
  snap.traces.started = 7;
  snap.traces.sampled = 7;
  snap.traces.completed = 6;
  snap.traces.retained = 6;
  snap.traces.sampling = 1.0;
  snap.traces.capacity = 128;
  snap.has_traces = true;
  return snap;
}

// --- Rollups -------------------------------------------------------------

TEST(BackendRollup, FoldAccumulatesGpuCountersAndDerived) {
  RollupRegistry reg;
  reg.record("hybrid", "gpu-sim", 1, gpu_report(64, 500, 40));
  reg.record("hybrid", "gpu-sim", 1, gpu_report(32, 300, 60));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first.label(), "hybrid/gpu-sim/gen1");
  const BackendRollup& r = snap[0].second;
  EXPECT_EQ(r.requests, 2u);
  EXPECT_EQ(r.queries, 96u);
  EXPECT_EQ(r.gpu_runs, 2u);
  EXPECT_EQ(r.gpu.smem_loads, 800u);
  EXPECT_EQ(r.gpu.dram_transactions, 100u);
  EXPECT_NEAR(r.branch_efficiency(), 0.9, 1e-12);
  EXPECT_NEAR(r.txn_per_request(), 2.5, 1e-12);
  // on-chip = (800 smem + 0 l1 + 20 l2) / (820 + 100 dram)
  EXPECT_NEAR(r.onchip_hit_rate(), 820.0 / 920.0, 1e-12);
}

TEST(BackendRollup, FoldAccumulatesFpgaCycles) {
  RollupRegistry reg;
  reg.record("csr", "fpga-sim", 0, fpga_run_report(10));
  reg.record("csr", "fpga-sim", 0, fpga_run_report(10));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const BackendRollup& r = snap[0].second;
  EXPECT_EQ(r.fpga_runs, 2u);
  EXPECT_NEAR(r.fpga_ii_stall_cycles(), 2'000.0, 1e-9);
  EXPECT_NEAR(r.fpga_stall_pct(), 10.0, 1e-9);
  EXPECT_EQ(r.gpu_runs, 0u);
}

TEST(RollupRegistry, KeysSeparateGenerationsAndBackends) {
  RollupRegistry reg;
  reg.record("hybrid", "gpu-sim", 1, gpu_report(8, 10, 10));
  reg.record("hybrid", "gpu-sim", 2, gpu_report(8, 10, 10));
  reg.record("csr", "cpu-native", 1, RunReport{});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first.label(), "csr/cpu-native/gen1");  // key-sorted
  EXPECT_EQ(snap[1].first.generation, 1u);
  EXPECT_EQ(snap[2].first.generation, 2u);
  EXPECT_NE(reg.to_markdown().find("hybrid/gpu-sim/gen2"), std::string::npos);
}

TEST(RollupRegistry, ConcurrentRecordsAllLand) {
  RollupRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.record("hybrid", "gpu-sim", 1, gpu_report(4, 5, 5));
        (void)reg.snapshot();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].second.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --- Prometheus exposition ------------------------------------------------

TEST(Exporter, PrometheusRoundTripsThroughParser) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string text = to_prometheus(snap);
  const auto families = parse_prometheus(text);

  ASSERT_TRUE(families.count("hrf_requests_submitted_total"));
  EXPECT_EQ(families.at("hrf_requests_submitted_total").type, "counter");
  EXPECT_DOUBLE_EQ(families.at("hrf_requests_submitted_total").samples[0].value, 7.0);

  ASSERT_TRUE(families.count("hrf_latency_seconds"));
  EXPECT_EQ(families.at("hrf_latency_seconds").type, "histogram");
  ASSERT_TRUE(families.count("hrf_latency_seconds_bucket"));
  bool saw_inf = false;
  for (const PromSample& s : families.at("hrf_latency_seconds_bucket").samples) {
    ASSERT_TRUE(s.labels.count("stage"));
    ASSERT_TRUE(s.labels.count("le"));
    if (s.labels.at("le") == "+Inf" && s.labels.at("stage") == "execute") {
      saw_inf = true;
      EXPECT_DOUBLE_EQ(s.value, 100.0);
    }
  }
  EXPECT_TRUE(saw_inf);

  ASSERT_TRUE(families.count("hrf_backend_branch_efficiency"));
  bool saw_hybrid = false;
  for (const PromSample& s : families.at("hrf_backend_branch_efficiency").samples) {
    if (s.labels.at("variant") == "hybrid" && s.labels.at("backend") == "gpu-sim") {
      saw_hybrid = true;
      EXPECT_EQ(s.labels.at("generation"), "3");
      EXPECT_NEAR(s.value, 0.9, 1e-9);
    }
  }
  EXPECT_TRUE(saw_hybrid);

  // Rollup families are emitted for every key, even when zero there.
  ASSERT_TRUE(families.count("hrf_backend_fpga_ii_stall_cycles"));
  EXPECT_EQ(families.at("hrf_backend_fpga_ii_stall_cycles").samples.size(), 2u);
}

TEST(Exporter, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_prometheus("hrf_x{unclosed 1\n"), FormatError);
  EXPECT_THROW(parse_prometheus("hrf_x not-a-number\n"), FormatError);
  EXPECT_THROW(parse_prometheus("no spaces or value\n"), FormatError);
}

TEST(Exporter, PrometheusNameSanitizes) {
  EXPECT_EQ(prometheus_name("requests.shed_deadline"), "requests_shed_deadline");
  EXPECT_EQ(prometheus_name("gpu-sim"), "gpu_sim");
}

// --- JSON snapshot -------------------------------------------------------

TEST(Exporter, JsonCarriesFullSchema) {
  const MetricsSnapshot snap = sample_snapshot();
  const json::Value v = snapshot_to_json(snap);
  EXPECT_EQ(v.get("schema").as_string(), "hrf-metrics");
  EXPECT_EQ(v.get("counters").get("requests.completed").as_number(), 6.0);
  EXPECT_EQ(v.get("gauges").get("model_generation").as_number(), 3.0);

  const json::Value& hists = v.get("histograms");
  ASSERT_GE(hists.size(), 3u);
  const json::Value& h0 = hists.at(0);
  EXPECT_EQ(h0.get("stage").as_string(), "queue_wait");
  EXPECT_EQ(h0.get("count").as_number(), 100.0);
  EXPECT_GT(h0.get("buckets").size(), 0u);
  EXPECT_GT(h0.get("p95_ns").as_number(), h0.get("p50_ns").as_number());

  const json::Value& rollups = v.get("rollups");
  ASSERT_EQ(rollups.size(), 2u);
  bool saw_gpu = false;
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    const json::Value& r = rollups.at(i);
    if (r.get("backend").as_string() == "gpu-sim") {
      saw_gpu = true;
      EXPECT_NEAR(r.get("branch_efficiency").as_number(), 0.9, 1e-9);
      EXPECT_NEAR(r.get("txn_per_request").as_number(), 2.5, 1e-9);
      EXPECT_GT(r.get("onchip_hit_rate").as_number(), 0.9);
    }
  }
  EXPECT_TRUE(saw_gpu);
  EXPECT_EQ(v.get("traces").get("completed").as_number(), 6.0);
}

// --- Schema checker ------------------------------------------------------

TEST(Exporter, SchemaCheckAcceptsOwnExport) {
  const MetricsSnapshot snap = sample_snapshot();
  EXPECT_NO_THROW(
      check_metrics_schema(to_prometheus(snap), snapshot_to_json(snap).dump(2)));
}

TEST(Exporter, SchemaCheckRejectsMissingFamily) {
  const MetricsSnapshot snap = sample_snapshot();
  std::string prom = to_prometheus(snap);
  const std::string needle = "hrf_backend_branch_efficiency";
  // Strip the family entirely (TYPE line + samples).
  std::string filtered;
  std::size_t pos = 0;
  while (pos < prom.size()) {
    const std::size_t eol = prom.find('\n', pos);
    const std::string line = prom.substr(pos, eol - pos);
    if (line.find(needle) == std::string::npos) filtered += line + "\n";
    pos = eol == std::string::npos ? prom.size() : eol + 1;
  }
  EXPECT_THROW(check_metrics_schema(filtered, snapshot_to_json(snap).dump(2)), FormatError);
}

TEST(Exporter, SchemaCheckRejectsUncataloguedFamily) {
  const MetricsSnapshot snap = sample_snapshot();
  const std::string prom =
      to_prometheus(snap) + "# TYPE hrf_bogus_total counter\nhrf_bogus_total 1\n";
  EXPECT_THROW(check_metrics_schema(prom, snapshot_to_json(snap).dump(2)), FormatError);
}

TEST(Exporter, SchemaCheckTiesJsonRowsToTheirFamilies) {
  MetricsSnapshot snap = sample_snapshot();
  snap.tenants.push_back({"gold", 1.0, 2, 0, 5, 1});
  const std::string prom = to_prometheus(snap);
  const json::Value doc = snapshot_to_json(snap);
  ASSERT_NO_THROW(check_metrics_schema(prom, doc.dump(2)));

  // Tenant families without tenant rows in the JSON, and the reverse.
  json::Value without_rows = doc;
  without_rows["tenants"] = json::Value::array();
  EXPECT_THROW(check_metrics_schema(prom, without_rows.dump(2)), FormatError);
  snap.tenants.clear();
  EXPECT_THROW(check_metrics_schema(to_prometheus(snap), doc.dump(2)), FormatError);

  // A row missing a key, or carrying it with the wrong JSON kind.
  json::Value bad_kind = doc;
  bad_kind["tenants"] = json::Value::array();
  json::Value row = doc.get("tenants").at(0);
  row["shed"] = "one";
  bad_kind["tenants"].push_back(row);
  EXPECT_THROW(check_metrics_schema(prom, bad_kind.dump(2)), FormatError);
}

TEST(Exporter, IntegralValuesPrintEveryDigit) {
  MetricsSnapshot snap = sample_snapshot();
  snap.rollups[0].second.queries = 12'345'678'901;
  snap.rollups[0].second.seconds = 0.125;
  const std::string text = to_prometheus(snap);
  EXPECT_NE(text.find("hrf_backend_queries_total{variant=\"csr\",backend=\"fpga-sim\","
                      "generation=\"3\"} 12345678901\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("hrf_backend_seconds_total{variant=\"csr\",backend=\"fpga-sim\","
                      "generation=\"3\"} 0.125\n"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(parse_prometheus(text).at("hrf_backend_queries_total").samples[0].value,
                   12'345'678'901.0);
}

TEST(Exporter, SchemaCheckRejectsWrongJsonSchema) {
  const MetricsSnapshot snap = sample_snapshot();
  EXPECT_THROW(check_metrics_schema(to_prometheus(snap), R"({"schema":"other","version":1})"),
               FormatError);
}

TEST(Exporter, CatalogueCoversEveryServerCounter) {
  // The zero-fill contract: every documented counter family appears in the
  // catalogue exactly once.
  const auto& cat = metric_catalogue();
  for (const std::string& counter : counter_catalogue()) {
    const std::string family = "hrf_" + prometheus_name(counter) + "_total";
    int found = 0;
    for (const MetricInfo& m : cat) {
      if (m.name == family) ++found;
    }
    EXPECT_EQ(found, 1) << family;
  }
}

// --- Every family, read back ---------------------------------------------

/// One exported field: its Prometheus family (null when JSON only), its
/// JSON key, and the value each row carries.
struct Field {
  const char* family;
  const char* key;
  std::vector<double> rows;
};

double number_of(const json::Value& v) {
  return v.is_bool() ? (v.as_bool() ? 1.0 : 0.0) : v.as_number();
}

void expect_close(double actual, double expected, const std::string& what) {
  EXPECT_NEAR(actual, expected, 1e-9 * std::max(1.0, std::abs(expected))) << what;
}

/// Checks every field of one block in both exports: the sample labeled
/// `labels[r]` and JSON row `json_rows[r]` carry `rows[r]`.
void expect_block(const std::map<std::string, PromFamily>& prom,
                  const std::vector<const json::Value*>& json_rows,
                  const std::vector<std::map<std::string, std::string>>& labels,
                  const std::vector<Field>& fields, std::set<std::string>& asserted) {
  for (const Field& f : fields) {
    ASSERT_EQ(f.rows.size(), json_rows.size()) << f.key;
    for (std::size_t r = 0; r < f.rows.size(); ++r) {
      const json::Value* v = json_rows[r]->find(f.key);
      ASSERT_NE(v, nullptr) << f.key;
      expect_close(number_of(*v), f.rows[r], std::string("JSON ") + f.key);
      if (f.family == nullptr) continue;
      ASSERT_TRUE(prom.count(f.family)) << f.family;
      const auto& samples = prom.at(f.family).samples;
      const auto s = std::find_if(samples.begin(), samples.end(),
                                  [&](const PromSample& p) { return p.labels == labels[r]; });
      ASSERT_NE(s, samples.end()) << f.family << " row " << r;
      expect_close(s->value, f.rows[r], f.family);
      asserted.insert(f.family);
    }
  }
}

TEST(Exporter, CountersPast2To53ReadBackIdenticallyInBothExports) {
  // 2^53 + 1 is the first integer a double cannot hold: a registry
  // counter and a table counter (rollup queries) must keep every digit in
  // the Prometheus text and in the JSON document, after parsing too.
  constexpr std::uint64_t kOdd = (std::uint64_t{1} << 53) + 1;
  MetricsSnapshot snap = sample_snapshot();
  snap.counters["requests.submitted"] = kOdd;
  snap.rollups[0].second.queries = kOdd + 2;

  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("\nhrf_requests_submitted_total 9007199254740993\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hrf_backend_queries_total{variant=\"csr\",backend=\"fpga-sim\","
                      "generation=\"3\"} 9007199254740995\n"),
            std::string::npos)
      << prom;

  const json::Value doc = json::Value::parse(snapshot_to_json(snap).dump());
  EXPECT_EQ(doc.get("counters").get("requests.submitted").as_uint64(), kOdd);
  const json::Value& rollups = doc.get("rollups");
  bool saw_csr = false;
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    if (rollups.at(i).get("variant").as_string() != "csr") continue;
    saw_csr = true;
    EXPECT_EQ(rollups.at(i).get("queries").as_uint64(), kOdd + 2);
  }
  EXPECT_TRUE(saw_csr);
}

TEST(Exporter, EveryCataloguedFamilyReadsBackItsField) {
  // Every field of every row type holds a distinct value below 10^10, so
  // a family or key wired to the wrong field reads back the wrong number.
  MetricsSnapshot snap;
  double next = 1000.0;
  for (const std::string& name : counter_catalogue()) {
    snap.counters[name] = static_cast<std::uint64_t>(next++);
  }
  for (const std::string& name : cluster_counter_catalogue()) {
    snap.counters[name] = static_cast<std::uint64_t>(next++);
  }
  for (const char* name : {"queue_depth", "workers", "breaker_state", "model_generation",
                           "cluster_shards", "cluster_shards_available",
                           "cluster_hedge_delay_seconds", "cluster_concurrency_limit",
                           "cluster_in_flight"}) {
    snap.gauges[name] = next++ + 0.5;
  }
  LatencyHistogram h;
  for (std::uint64_t us = 1; us <= 37; ++us) h.record_ns(us * 1000);
  snap.histograms.emplace_back("execute", h.snapshot());

  BackendRollup gpu;
  gpu.requests = 2'000'000'001;
  gpu.queries = 9'876'543'210;
  gpu.seconds = 12.75;
  gpu.gpu_runs = 2'000'000'003;
  gpu.gpu.gld_requests = 2'000'000'004;
  gpu.gpu.gld_transactions = 2'000'000'005;
  gpu.gpu.l1_hits = 2'000'000'006;
  gpu.gpu.l2_hits = 2'000'000'007;
  gpu.gpu.dram_transactions = 2'000'000'008;
  gpu.gpu.smem_loads = 2'000'000'009;
  gpu.gpu.branches = 2'000'000'010;
  gpu.gpu.divergent_branches = 200'000'011;
  gpu.fpga_runs = 2'000'000'012;
  gpu.fpga_total_cycles = 2'000'000'013.0;
  gpu.fpga_pipeline_cycles = 1'000'000'014.0;
  BackendRollup fpga;
  fpga.requests = 3'001;
  fpga.queries = 3'002;
  fpga.seconds = 3.25;
  fpga.fpga_runs = 3'004;
  fpga.fpga_total_cycles = 3'005.0;
  fpga.fpga_pipeline_cycles = 2'006.0;
  snap.rollups = {{{"csr", "fpga-sim", 8}, fpga}, {{"hybrid", "gpu-sim", 7}, gpu}};

  for (std::uint64_t i = 0; i < 2; ++i) {
    ShardHealth s;
    s.index = 4 + i;
    s.up = i == 0;
    s.partitioned = i == 1;
    s.breaker_state = static_cast<int>(1 + i);
    s.queue_depth = 4'011 + 100 * i;
    s.generation = 4'012 + 100 * i;
    s.routed = 4'013 + 100 * i;
    s.failures = 4'014 + 100 * i;
    s.repairs = 4'015 + 100 * i;
    s.worker_restarts = 4'016 + 100 * i;
    snap.shards.push_back(s);
  }
  snap.tenants.push_back({"gold", 5.5, 5'011, 5'012, 5'013, 5'014});
  snap.tenants.push_back({"bro\"nze", 0.25, 5'111, 5'112, 5'113, 5'114});
  snap.fault_fired = {{"resource:gpu", 6'001}, {"bitflip:layout", 6'002}};
  snap.slo.push_back({"success_rate", "server", true, 7.25, 7.5, 7'011, 7'012});
  snap.slo.push_back({"p95_latency", "tenant:gold", false, 7.75, 8.25, 7'111, 7'112});
  snap.has_slo = true;
  snap.traces = {8'001, 8'002, 8'003, 8'004, 8'005, 0.625, 8'007};
  snap.has_traces = true;

  const std::string prom_text = to_prometheus(snap);
  const auto prom = parse_prometheus(prom_text);
  const json::Value doc = json::Value::parse(snapshot_to_json(snap).dump(2));
  ASSERT_NO_THROW(check_metrics_schema(prom_text, doc.dump(2)));
  std::set<std::string> asserted;

  for (const auto& [name, value] : snap.counters) {
    const std::string family = "hrf_" + prometheus_name(name) + "_total";
    ASSERT_TRUE(prom.count(family)) << family;
    EXPECT_EQ(prom.at(family).samples.at(0).value, static_cast<double>(value)) << family;
    EXPECT_EQ(doc.get("counters").get(name).as_number(), static_cast<double>(value)) << name;
    asserted.insert(family);
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string family = "hrf_" + prometheus_name(name);
    ASSERT_TRUE(prom.count(family)) << family;
    EXPECT_EQ(prom.at(family).samples.at(0).value, value) << family;
    EXPECT_EQ(doc.get("gauges").get(name).as_number(), value) << name;
    asserted.insert(family);
  }
  const std::map<std::string, std::string> build_labels = {
      {"version", build_info().version},
      {"commit", build_info().commit},
      {"compiler", build_info().compiler}};
  EXPECT_EQ(prom.at("hrf_build_info").samples.at(0).labels, build_labels);
  EXPECT_EQ(prom.at("hrf_build_info").samples.at(0).value, 1.0);
  EXPECT_EQ(doc.get("build").get("commit").as_string(), build_info().commit);
  EXPECT_GE(prom.at("hrf_uptime_seconds").samples.at(0).value, 0.0);
  EXPECT_GE(doc.get("uptime_seconds").as_number(), 0.0);
  asserted.insert({"hrf_build_info", "hrf_uptime_seconds"});
  const PromSample& count = prom.at("hrf_latency_seconds_count").samples.at(0);
  EXPECT_EQ(count.labels.at("stage"), "execute");
  EXPECT_EQ(count.value, 37.0);
  EXPECT_EQ(doc.get("histograms").at(0).get("count").as_number(), 37.0);
  asserted.insert("hrf_latency_seconds");
  const json::Value& faults = doc.get("fault_fired");
  for (const PromSample& s : prom.at("hrf_fault_fired_total").samples) {
    const double expected = static_cast<double>(snap.fault_fired.at(s.labels.at("site")));
    EXPECT_EQ(s.value, expected);
    EXPECT_EQ(faults.get(s.labels.at("site")).as_number(), expected);
  }
  EXPECT_EQ(prom.at("hrf_fault_fired_total").samples.size(), 2u);
  asserted.insert("hrf_fault_fired_total");
  EXPECT_EQ(prom.at("hrf_slo_objectives").samples.at(0).value, 2.0);
  asserted.insert("hrf_slo_objectives");

  const auto rows_of = [&](const char* key) {
    std::vector<const json::Value*> rows;
    for (std::size_t i = 0; i < doc.get(key).size(); ++i) rows.push_back(&doc.get(key).at(i));
    return rows;
  };
  const BackendRollup& r0 = fpga;
  const BackendRollup& r1 = gpu;
  expect_block(
      prom, rows_of("rollups"),
      {{{"variant", "csr"}, {"backend", "fpga-sim"}, {"generation", "8"}},
       {{"variant", "hybrid"}, {"backend", "gpu-sim"}, {"generation", "7"}}},
      {{nullptr, "generation", {8, 7}},
       {"hrf_backend_requests_total", "requests", {3'001, 2'000'000'001}},
       {"hrf_backend_queries_total", "queries", {3'002, 9'876'543'210}},
       {"hrf_backend_seconds_total", "seconds", {3.25, 12.75}},
       {nullptr, "gpu_runs", {0, 2'000'000'003}},
       {"hrf_backend_branch_efficiency", "branch_efficiency", {0.0, r1.branch_efficiency()}},
       {"hrf_backend_txn_per_request", "txn_per_request",
        {r0.txn_per_request(), r1.txn_per_request()}},
       {"hrf_backend_onchip_hit_rate", "onchip_hit_rate",
        {r0.onchip_hit_rate(), r1.onchip_hit_rate()}},
       {"hrf_backend_stage1_onchip_hit_rate", "stage1_onchip_hit_rate",
        {r0.stage1_onchip_hit_rate(), r1.stage1_onchip_hit_rate()}},
       {"hrf_backend_dram_transactions_total", "dram_transactions", {0, 2'000'000'008}},
       {nullptr, "smem_loads", {0, 2'000'000'009}},
       {nullptr, "l2_hits", {0, 2'000'000'007}},
       {nullptr, "fpga_runs", {3'004, 2'000'000'012}},
       {"hrf_backend_fpga_ii_stall_cycles", "fpga_ii_stall_cycles", {999, 1'000'000'000 - 1}},
       {"hrf_backend_fpga_stall_pct", "fpga_stall_pct",
        {r0.fpga_stall_pct(), r1.fpga_stall_pct()}}},
      asserted);
  EXPECT_EQ(rows_of("rollups")[1]->get("variant").as_string(), "hybrid");
  EXPECT_EQ(rows_of("rollups")[1]->get("backend").as_string(), "gpu-sim");

  expect_block(prom, rows_of("shards"), {{{"shard", "4"}}, {{"shard", "5"}}},
               {{nullptr, "index", {4, 5}},
                {"hrf_shard_up", "up", {1, 0}},
                {"hrf_shard_partitioned", "partitioned", {0, 1}},
                {"hrf_shard_breaker_state", "breaker_state", {1, 2}},
                {"hrf_shard_queue_depth", "queue_depth", {4'011, 4'111}},
                {"hrf_shard_model_generation", "generation", {4'012, 4'112}},
                {"hrf_shard_routed_total", "routed", {4'013, 4'113}},
                {"hrf_shard_failures_total", "failures", {4'014, 4'114}},
                {"hrf_shard_repairs_total", "repairs", {4'015, 4'115}},
                {"hrf_shard_worker_restarts_total", "worker_restarts", {4'016, 4'116}}},
               asserted);

  expect_block(prom, rows_of("tenants"), {{{"tenant", "gold"}}, {{"tenant", "bro\"nze"}}},
               {{"hrf_tenant_weight", "weight", {5.5, 0.25}},
                {"hrf_tenant_reserved_slots", "reserved", {5'011, 5'111}},
                {"hrf_tenant_queue_depth", "queued", {5'012, 5'112}},
                {"hrf_tenant_admitted_total", "admitted", {5'013, 5'113}},
                {"hrf_tenant_quota_shed_total", "shed", {5'014, 5'114}}},
               asserted);
  EXPECT_EQ(rows_of("tenants")[1]->get("name").as_string(), "bro\"nze");

  expect_block(prom, rows_of("slo"),
               {{{"objective", "success_rate"}, {"scope", "server"}},
                {{"objective", "p95_latency"}, {"scope", "tenant:gold"}}},
               {{"hrf_slo_state", "firing", {1, 0}},
                {"hrf_slo_burn_rate_fast", "fast_burn", {7.25, 7.75}},
                {"hrf_slo_burn_rate_slow", "slow_burn", {7.5, 8.25}},
                {"hrf_slo_alerts_fired_total", "fired", {7'011, 7'111}},
                {"hrf_slo_alerts_cleared_total", "cleared", {7'012, 7'112}}},
               asserted);
  EXPECT_EQ(rows_of("slo")[1]->get("scope").as_string(), "tenant:gold");

  expect_block(prom, {&doc.get("traces")}, {{}},
               {{"hrf_traces_started_total", "started", {8'001}},
                {"hrf_traces_sampled_total", "sampled", {8'002}},
                {"hrf_traces_completed_total", "completed", {8'003}},
                {"hrf_traces_evicted_total", "evicted", {8'004}},
                {"hrf_traces_retained", "retained", {8'005}},
                {"hrf_trace_sampling_rate", "sampling", {0.625}},
                {nullptr, "capacity", {8'007}}},
               asserted);

  // Every catalogued family was read back above, and nothing else was.
  std::set<std::string> catalogued;
  for (const MetricInfo& m : metric_catalogue()) catalogued.insert(m.name);
  EXPECT_EQ(asserted, catalogued);
  EXPECT_EQ(catalogued.size(), 96u);
}

// --- Paper differential: stage-1 on-chip staging --------------------------

TEST(RollupDifferential, HybridStage1OnChipHitRateBeatsIndependent) {
  // The hybrid variant stages root subtrees in shared memory, so its
  // stage-1 node traversal is served entirely on-chip; independent reads
  // root nodes through the cache hierarchy, where some loads reach DRAM.
  // Served through the rollup pipeline on the identical forest and queries,
  // hybrid's stage-1 on-chip hit rate must come out higher. (The aggregate
  // onchip_hit_rate() is NOT the discriminator: staging shrinks hybrid's
  // total access count while the cold-miss DRAM floor stays, so the blended
  // ratio can tie or even dip — the stage-1 rate is the paper's claim.)
  const Forest forest = make_random_forest({.num_trees = 12, .max_depth = 8,
                                            .num_features = 12, .seed = 21});
  const Dataset queries = make_random_queries(256, 12, 77);

  const auto serve_once = [&](Variant variant) {
    ClassifierOptions opt;
    opt.backend = Backend::GpuSim;
    opt.variant = variant;
    const Classifier clf(forest, opt);
    RollupRegistry reg;
    reg.record(to_string(variant), "gpu-sim", 0, clf.classify(queries));
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.size(), 1u);
    return snap[0].second;
  };

  const BackendRollup hybrid = serve_once(Variant::Hybrid);
  const BackendRollup independent = serve_once(Variant::Independent);
  // Structural facts the rate derives from: hybrid traverses stage 1 in
  // shared memory, independent never touches it, and both leak some loads
  // to DRAM (so independent's cache rate is genuinely below 1).
  EXPECT_GT(hybrid.gpu.smem_loads, 0u);
  EXPECT_EQ(independent.gpu.smem_loads, 0u);
  EXPECT_GT(independent.gpu.dram_transactions, 0u);
  EXPECT_GT(hybrid.stage1_onchip_hit_rate(), independent.stage1_onchip_hit_rate());
  EXPECT_LT(independent.stage1_onchip_hit_rate(), 1.0);
  EXPECT_GT(independent.stage1_onchip_hit_rate(), 0.0);
  // Staging also cuts total global-load transactions: hybrid moves the
  // stage-1 traffic on-chip instead of replaying it through the caches.
  EXPECT_LT(hybrid.gpu.gld_transactions, independent.gpu.gld_transactions);
}

}  // namespace
}  // namespace hrf::obs
