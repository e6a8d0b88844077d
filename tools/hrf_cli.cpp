// hrf_cli — command-line front end for the library.
//
//   hrf_cli --mode gen      --dataset susy --samples 100000 --out data.hrfd
//   hrf_cli --mode train    --data data.hrfd --trees 100 --depth 20 --out model.hrff
//   hrf_cli --mode info     --model model.hrff
//   hrf_cli --mode predict  --model model.hrff --data data.hrfd
//                           --backend gpu-sim --variant hybrid --sd 8 --rsd 10
//   hrf_cli --mode layout   --model model.hrff
//   hrf_cli --mode compile  --model model.hrff --layout hier --sd 8 --rsd 10
//                           --out layout.hrfl
//
// `gen` synthesizes a dataset; `train` fits a forest (training uses the
// train half of --data when --split is set, else all rows); `predict`
// classifies and reports accuracy + device counters; `info` prints model
// statistics; `layout` sweeps the hierarchical layout tuning grid;
// `compile` serializes an inference layout blob that `predict
// --layout-blob` loads instead of rebuilding (offline model compilation).
//
// Robustness tooling (docs/robustness.md): `--inject-fault spec[,spec]`
// arms the deterministic fault injector (e.g. resource:gpu, bitflip:layout)
// and predict walks the model's degradation plan (shrink RSD -> downgrade
// variant -> cpu-native, one try per step); every degradation step is
// printed. At the serving layer,
// --scrub-interval-ms / --audit-sample / --hang-timeout-ms turn on the
// integrity monitor (replica CRC scrubbing, sampled CPU-oracle shadow
// audits, worker watchdog); a self-heal summary prints on drain.
//
// Serving (docs/serving.md): `serve` stands up a ForestServer (worker
// pool, bounded queue, deadlines, retry, circuit breaker) and drives it
// with a synthetic multi-threaded client load, then drains gracefully and
// prints the server's counters plus per-stage latency percentiles
// (queue-wait / execute / end-to-end histograms). With --inject-fault
// resource:gpu:-1 this demonstrates the breaker tripping and traffic
// being served by the CPU-native fallback replicas.
//
// Model lifecycle (docs/model-lifecycle.md): `publish` writes a model +
// compiled layout into a versioned on-disk store as a new checksummed
// generation; `store` prints the store's state (current generation,
// complete generations, quarantined damage). `serve --model-store DIR`
// serves the store's current generation, and with `--watch-ms N` a
// watcher thread hot-reloads new generations with shadow validation,
// canary rollout, and automatic rollback — `--publish-live` /
// `--publish-bad` orchestrate the full zero-downtime demo (publish a good
// generation mid-traffic, then a behaviorally-wrong one that must be
// rejected while the old model keeps serving).
//
// Benchmarking (docs/benchmarking.md): `bench` sweeps {variant x backend
// x batch} over a synthetic forest, writes the schema-versioned
// BENCH_hrf.json, and `bench --compare old.json` exits nonzero when a
// modeled case changed at all, a wall-clock p95 regressed past
// --tolerance, or an A/B ratio exceeds 1 + --trace-tolerance.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/cluster.hpp"
#include "core/hrf.hpp"
#include "forest/importance.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/monitor.hpp"
#include "serve/model_store.hpp"
#include "util/json.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace {

using namespace hrf;

Dataset make_named_dataset(const std::string& name, std::size_t samples) {
  if (name == "covertype") return make_covertype_like(samples);
  if (name == "susy") return make_susy_like(samples);
  if (name == "higgs") return make_higgs_like(samples);
  throw ConfigError("unknown --dataset '" + name + "' (covertype|susy|higgs)");
}

// One source of truth for the names: the bench harness maps them both
// ways (CLI flags and the BENCH_hrf.json case keys).
Backend parse_backend(const std::string& name) { return bench::backend_from_name(name); }
Variant parse_variant(const std::string& name) { return bench::variant_from_name(name); }

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// Parses --tenants a,b,c [--tenant-weights 2,2,1] into per-tenant
// admission quotas (docs/cluster.md). Returns the tenant names in order;
// empty means quotas stay off and all traffic is anonymous.
std::vector<std::string> parse_tenant_quotas(const CliArgs& args, serve::ServerOptions& sopt) {
  const std::string list = args.get("tenants", "");
  if (list.empty()) return {};
  const std::vector<std::string> names = split_commas(list);
  std::vector<std::string> weights;
  const std::string wlist = args.get("tenant-weights", "");
  if (!wlist.empty()) weights = split_commas(wlist);
  if (!weights.empty() && weights.size() != names.size()) {
    throw ConfigError("--tenant-weights wants exactly one weight per --tenants entry");
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    serve::TenantQuota q;
    q.name = names[i];
    q.weight = weights.empty() ? 1.0 : std::stod(weights[i]);
    sopt.quotas.tenants.push_back(q);
  }
  return names;
}

int mode_gen(const CliArgs& args) {
  const Dataset ds = make_named_dataset(args.get("dataset", "susy"),
                                        static_cast<std::size_t>(args.get_int("samples", 100'000)));
  const std::string out = args.get("out", "data.hrfd");
  ds.save(out);
  std::printf("wrote %s: %zu samples x %zu features, %d classes, %.1f%% class 1\n", out.c_str(),
              ds.num_samples(), ds.num_features(), ds.num_classes(),
              100 * ds.positive_fraction());
  return 0;
}

int mode_train(const CliArgs& args) {
  const Dataset data = Dataset::load(args.get("data", "data.hrfd"));
  const Dataset train = args.get_flag("split") ? data.split().first : data;
  TrainConfig cfg;
  cfg.num_trees = static_cast<int>(args.get_int("trees", 100));
  cfg.max_depth = static_cast<int>(args.get_int("depth", 20));
  cfg.features_per_split = static_cast<int>(args.get_int("features-per-split", 0));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  WallTimer timer;
  const Forest forest = train_forest(train, cfg);
  const double train_s = timer.seconds();
  const std::string out = args.get("out", "model.hrff");
  forest.save(out);
  const ForestStats fs = forest.stats();
  std::printf("trained %zu trees on %zu samples in %.1fs\n", fs.tree_count, train.num_samples(),
              train_s);
  std::printf("wrote %s: %zu nodes, max depth %d, mean leaf depth %.1f\n", out.c_str(),
              fs.total_nodes, fs.max_depth, fs.mean_leaf_depth);
  if (args.get_flag("split")) {
    const Dataset test = data.split().second;
    std::printf("holdout accuracy: %.2f%%\n",
                100 * forest.accuracy(test.features(), test.labels()));
  }
  return 0;
}

int mode_info(const CliArgs& args) {
  const Forest forest = Forest::load(args.get("model", "model.hrff"));
  const ForestStats fs = forest.stats();
  Table t({"property", "value"});
  t.row().cell("trees").cell(static_cast<std::uint64_t>(fs.tree_count));
  t.row().cell("features").cell(static_cast<std::uint64_t>(forest.num_features()));
  t.row().cell("classes").cell(std::int64_t{forest.num_classes()});
  t.row().cell("total nodes").cell(static_cast<std::uint64_t>(fs.total_nodes));
  t.row().cell("total leaves").cell(static_cast<std::uint64_t>(fs.total_leaves));
  t.row().cell("max depth").cell(std::int64_t{fs.max_depth});
  t.row().cell("mean tree depth").cell(fs.mean_depth, 1);
  t.row().cell("mean leaf depth").cell(fs.mean_leaf_depth, 1);
  t.row().cell("csr bytes").cell(static_cast<std::uint64_t>(CsrForest::build(forest).memory_bytes()));
  print_table(std::cout, "Model " + args.get("model", "model.hrff"), t);

  const auto importances = feature_importance(forest);
  Table imp({"rank", "feature", "importance"});
  int rank = 1;
  for (std::size_t f : top_features(forest, 10)) {
    imp.row().cell(std::int64_t{rank++}).cell(static_cast<std::uint64_t>(f)).cell(
        importances[f], 4);
  }
  print_table(std::cout, "Top feature importances (structural proxy)", imp);
  return 0;
}

int mode_layout(const CliArgs& args) {
  const Forest forest = Forest::load(args.get("model", "model.hrff"));
  const CsrForest csr = CsrForest::build(forest);
  Table t({"SD", "RSD", "stored nodes", "padding", "subtrees", "bytes vs CSR"});
  for (int sd : args.get_int_list("sd", {4, 6, 8})) {
    for (int rsd : args.get_int_list("rsd", {0, 10, 12})) {
      if (rsd != 0 && rsd <= sd) continue;
      HierConfig cfg;
      cfg.subtree_depth = sd;
      cfg.root_subtree_depth = rsd;
      const HierarchicalForest h = HierarchicalForest::build(forest, cfg);
      const HierStats s = h.stats();
      t.row()
          .cell(std::int64_t{sd})
          .cell(std::int64_t{cfg.effective_root_depth()})
          .cell(static_cast<std::uint64_t>(s.stored_nodes))
          .cell(s.padding_ratio, 3)
          .cell(static_cast<std::uint64_t>(s.num_subtrees))
          .cell(static_cast<double>(h.memory_bytes()) / csr.memory_bytes(), 2);
    }
  }
  print_table(std::cout, "Hierarchical layout grid", t);
  return 0;
}

int mode_compile(const CliArgs& args) {
  const Forest forest = Forest::load(args.get("model", "model.hrff"));
  const std::string kind = args.get("layout", "hier");
  const std::string out = args.get("out", "layout.hrfl");
  if (kind == "csr") {
    const CsrForest csr = CsrForest::build(forest);
    save_csr(csr, out);
    std::printf("compiled csr layout to %s: %zu nodes, %zu bytes\n", out.c_str(),
                csr.num_nodes(), csr.memory_bytes());
  } else if (kind == "hier") {
    HierConfig cfg;
    cfg.subtree_depth = static_cast<int>(args.get_int("sd", 8));
    cfg.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));
    const HierarchicalForest h = HierarchicalForest::build(forest, cfg);
    save_hierarchical(h, out);
    const HierStats s = h.stats();
    std::printf("compiled hierarchical layout to %s: %zu subtrees, %zu stored nodes, %zu bytes\n",
                out.c_str(), s.num_subtrees, s.stored_nodes, h.memory_bytes());
  } else {
    throw ConfigError("unknown --layout '" + kind + "' (csr|hier)");
  }
  return 0;
}

Classifier make_predict_classifier(const CliArgs& args, const ClassifierOptions& opt) {
  const std::string model = args.get("model", "model.hrff");
  const std::string blob = args.get("layout-blob", "");
  if (blob.empty()) return Classifier::load(model, opt);
  Forest forest = Forest::load(model);
  if (peek_layout_kind(blob) == "csr") {
    return Classifier(std::move(forest), load_csr(blob), opt);
  }
  return Classifier(std::move(forest), load_hierarchical(blob), opt);
}

int mode_predict(const CliArgs& args) {
  const Dataset data = Dataset::load(args.get("data", "data.hrfd"));
  ClassifierOptions opt;
  opt.backend = parse_backend(args.get("backend", "cpu"));
  opt.variant = parse_variant(args.get("variant", "independent"));
  opt.layout.subtree_depth = static_cast<int>(args.get_int("sd", 8));
  opt.layout.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));
  // The same plan a server installs, walked with one try per step and no
  // breaker: a ResourceError moves to the next rung, the CPU rung answers.
  const DegradationPlan plan = build_degradation_plan(
      std::make_shared<const Classifier>(make_predict_classifier(args, opt)));
  RunReport r;
  std::vector<std::string> trail;
  for (std::size_t i = 0;; ++i) {
    const PlanStep& step = plan[i];
    if (i > 0) trail.push_back("degrade: " + step.note);
    try {
      r = step.classifier->classify(data, step.variant);
      break;
    } catch (const ResourceError& e) {
      if (i + 1 == plan.size()) throw;
      trail.push_back(std::string(to_string(step.classifier->options().backend)) + "/" +
                      to_string(step.variant) + " failed: " + e.what());
    }
  }
  r.degradations = std::move(trail);

  std::printf("%zu queries on %s/%s: %.5f %s\n", data.num_samples(), to_string(opt.backend),
              to_string(opt.variant), r.seconds, r.simulated ? "simulated-s" : "wall-s");
  for (const std::string& step : r.degradations) std::printf("degraded: %s\n", step.c_str());
  std::printf("accuracy vs dataset labels: %.2f%%\n", 100 * r.accuracy(data.labels()));
  const ConfusionMatrix cm(r.predictions, data.labels(), data.num_classes());
  std::printf("%s", cm.to_markdown().c_str());
  if (r.gpu_counters) {
    std::printf("gpu: %llu load requests, %.1f transactions/request, branch eff %.3f, "
                "limiter %s\n",
                static_cast<unsigned long long>(r.gpu_counters->gld_requests),
                r.gpu_counters->transactions_per_request(), r.gpu_counters->branch_efficiency(),
                r.gpu_timing->limiter.c_str());
  }
  if (r.fpga_report) {
    std::printf("fpga: stall %.1f%%, II %s, clock %.0f MHz, limiter %s\n",
                r.fpga_report->stall_pct, r.fpga_report->ii_desc.c_str(),
                r.fpga_report->clock_mhz, r.fpga_report->limiter.c_str());
  }
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    Table t({"query", "prediction"});
    for (std::size_t i = 0; i < r.predictions.size(); ++i) {
      t.row().cell(static_cast<std::uint64_t>(i)).cell(std::int64_t{r.predictions[i]});
    }
    t.write_csv(out);
    std::printf("predictions written to %s\n", out.c_str());
  }
  return 0;
}

// Benchmark-regression harness (docs/benchmarking.md): sweeps every valid
// {variant x backend x batch} combination over a synthetic forest, writes
// the schema-versioned BENCH_hrf.json, and with --compare gates the fresh
// run against a recorded baseline by unit (exit 1 on any failed gate).
int mode_bench(const CliArgs& args) {
  bench::SweepOptions opt;
  opt.variants.clear();
  for (const std::string& name :
       split_commas(args.get("variants", "csr,independent,collaborative,hybrid"))) {
    opt.variants.push_back(parse_variant(name));
  }
  opt.backends.clear();
  for (const std::string& name : split_commas(args.get("backends", "cpu,gpu-sim,fpga-sim"))) {
    opt.backends.push_back(parse_backend(name));
  }
  opt.batch_sizes.clear();
  for (const int b : args.get_int_list("batches", {64, 256})) {
    opt.batch_sizes.push_back(static_cast<std::size_t>(b));
  }
  opt.warmup_runs = static_cast<int>(args.get_int("warmup", 1));
  opt.repeat_runs = static_cast<int>(args.get_int("repeats", 5));
  opt.forest.num_trees = static_cast<int>(args.get_int("trees", 20));
  opt.forest.max_depth = static_cast<int>(args.get_int("depth", 10));
  opt.forest.num_features = static_cast<int>(args.get_int("features", 16));
  opt.forest.seed = static_cast<std::uint64_t>(args.get_int("seed", 99));
  opt.layout.subtree_depth = static_cast<int>(args.get_int("sd", 6));
  opt.layout.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));

  bench::BenchReport report = bench::run_sweep(opt);

  // The A/B cases keep their own fixed forest and request size (rather
  // than inheriting the sweep's) so each ratio is comparable across runs.
  const auto ab_requests = static_cast<std::size_t>(args.get_int("ab-requests", 200));
  const std::pair<const char*, bench::AbCase> ab_cases[] = {
      {"trace-overhead", bench::AbCase::Trace},
      {"audit-bench", bench::AbCase::Audit},
      {"obs-bench", bench::AbCase::Obs},
      {"batch-bench", bench::AbCase::Batch}};
  for (const auto& [flag, which] : ab_cases) {
    if (args.get_flag(flag)) {
      report.cases.push_back(bench::run_ab_case(which, ab_requests, opt.query_seed));
    }
  }
  if (args.get_flag("cluster-bench")) {
    bench::ClusterBenchOptions copt;
    copt.shards = static_cast<std::size_t>(args.get_int("shards", 4));
    copt.requests = static_cast<std::size_t>(args.get_int("requests", 120));
    copt.clients = static_cast<std::size_t>(args.get_int("clients", 4));
    copt.query_seed = opt.query_seed;
    report.cases.push_back(bench::measure_cluster(copt));
  }
  if (args.get_flag("noisy-bench")) {
    bench::NoisyNeighborOptions nopt;
    nopt.shards = static_cast<std::size_t>(args.get_int("shards", 4));
    nopt.requests = static_cast<std::size_t>(args.get_int("requests", 120));
    nopt.query_seed = opt.query_seed;
    report.cases.push_back(bench::measure_noisy_neighbor(nopt));
  }

  // Sweep cases (key variant/backend/batch) as a table; every other case
  // as one line of its values.
  Table t({"case", "unit", "modeled ns/q", "host ns/q p50", "host ns/q p95"});
  for (const bench::BenchCase& c : report.cases) {
    if (c.key.find('/') == std::string::npos) {
      std::printf("%s (%s):", c.key.c_str(), bench::to_string(c.unit));
      for (const auto& [name, value] : c.values) std::printf(" %s %.6g", name.c_str(), value);
      std::printf("\n");
    } else if (c.unit == bench::Unit::Modeled) {
      t.row()
          .cell(c.key)
          .cell(bench::to_string(c.unit))
          .cell(c.value("ns_per_query"), 4)
          .cell(c.value(bench::kHostNsPerQuery), 0)
          .cell("-");
    } else {
      t.row()
          .cell(c.key)
          .cell(bench::to_string(c.unit))
          .cell("-")
          .cell(c.value("p50_ns"), 0)
          .cell(c.value("p95_ns"), 0);
    }
  }
  print_table(std::cout, "Bench sweep (" + std::to_string(report.repeat_runs) + " repeats, " +
                             std::to_string(report.warmup_runs) + " warmup)",
              t);

  const std::string out = args.get("out", "BENCH_hrf.json");
  bench::save_report(report, out);
  std::printf("bench report written to %s (%zu cases, schema v%d)\n", out.c_str(),
              report.cases.size(), report.schema_version);

  const std::string baseline_path = args.get("compare", "");
  if (baseline_path.empty()) return 0;

  const double tolerance = args.get_double("tolerance", 0.25);
  const double trace_tolerance = args.get_double("trace-tolerance", 0.05);
  const bench::BenchReport baseline = bench::load_report(baseline_path);
  const bench::CompareResult cmp =
      bench::compare_reports(baseline, report, tolerance, trace_tolerance);
  for (const bench::Regression& r : cmp.regressions) {
    std::printf("REGRESSION %s %s: %.17g -> %.17g (%s)\n", r.key.c_str(), r.value.c_str(),
                r.baseline, r.current, r.rule.c_str());
  }
  for (const std::string& key : cmp.missing_cases) {
    std::printf("MISSING %s: present in baseline, absent from this run\n", key.c_str());
  }
  if (!cmp.passed()) {
    std::printf("bench compare vs %s: FAILED (%zu regression(s), %zu missing)\n",
                baseline_path.c_str(), cmp.regressions.size(), cmp.missing_cases.size());
    return 1;
  }
  std::printf("bench compare vs %s: ok (%d cases compared)\n", baseline_path.c_str(),
              cmp.compared);
  return 0;
}

// Publishes a model (+ layout) into the versioned store as a new
// generation. With --layout-blob the artifacts are copied byte-for-byte
// (validation is deferred to reload time — that is the store's contract);
// otherwise the layout is compiled here from the model.
int mode_publish(const CliArgs& args) {
  serve::ModelStore store = serve::ModelStore::open(args.get("store", "model-store"));
  const std::string model = args.get("model", "model.hrff");
  const std::string blob = args.get("layout-blob", "");
  const std::string note = args.get("note", "");
  std::uint64_t id = 0;
  if (!blob.empty()) {
    id = store.publish_files(model, blob, note);
  } else {
    const Forest forest = Forest::load(model);
    const std::string kind = args.get("layout", "hier");
    if (kind == "csr") {
      id = store.publish(forest, CsrForest::build(forest), note);
    } else if (kind == "hier") {
      HierConfig cfg;
      cfg.subtree_depth = static_cast<int>(args.get_int("sd", 8));
      cfg.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));
      id = store.publish(forest, HierarchicalForest::build(forest, cfg), note);
    } else {
      throw ConfigError("unknown --layout '" + kind + "' (csr|hier)");
    }
  }
  const serve::Generation gen = store.info(id);
  std::printf("published generation %llu to %s (%s layout, %llu bytes)\n",
              static_cast<unsigned long long>(id), store.dir().c_str(), gen.layout_kind.c_str(),
              static_cast<unsigned long long>(gen.total_bytes()));
  return 0;
}

int mode_store(const CliArgs& args) {
  const serve::ModelStore store = serve::ModelStore::open(args.get("store", "model-store"));
  const serve::StoreReport& rep = store.report();
  Table t({"generation", "layout", "bytes", "note"});
  for (const serve::Generation& g : rep.generations) {
    t.row()
        .cell(static_cast<std::uint64_t>(g.id))
        .cell(g.layout_kind)
        .cell(static_cast<std::uint64_t>(g.total_bytes()))
        .cell(g.note.empty() ? "-" : g.note);
  }
  print_table(std::cout, "Model store " + store.dir(), t);
  if (rep.current) {
    std::printf("current generation: %llu\n", static_cast<unsigned long long>(*rep.current));
  } else {
    std::printf("current generation: (none)\n");
  }
  if (rep.manifest_recovered) std::printf("manifest recovered from generation scan\n");
  for (const serve::QuarantinedGeneration& q : rep.quarantined) {
    std::printf("quarantined: %s (%s)\n", q.dir.c_str(), q.reason.c_str());
  }
  return 0;
}

// --- Observability monitor wiring shared by serve and cluster -------------
//
// The SLO burn-rate engine + incident flight recorder arm whenever any
// objective flag or an incident dir is given (docs/observability.md,
// "Time series, SLOs, and incident bundles"). SIGUSR1 requests an
// on-demand incident bundle from a live process; the handler only flips
// a flag and a poller thread hands it to the Monitor.

volatile std::sig_atomic_t g_incident_signal = 0;
extern "C" void on_incident_signal(int) { g_incident_signal = 1; }

bool monitor_armed(const CliArgs& args) {
  return args.has("slo-target-success") || args.has("slo-target-p95-ms") ||
         !args.get("incident-dir", "").empty();
}

obs::MonitorOptions make_monitor_options(const CliArgs& args) {
  obs::MonitorOptions mopt;
  mopt.interval_seconds = args.get_double("obs-interval-ms", 250.0) / 1e3;
  mopt.slo_enabled = true;
  mopt.slo.success_target = args.get_double("slo-target-success", 0.99);
  mopt.slo.p95_target_seconds = args.get_double("slo-target-p95-ms", 0.0) / 1e3;
  mopt.slo.fast_window_seconds = args.get_double("slo-window-fast-ms", 60'000.0) / 1e3;
  mopt.slo.slow_window_seconds = args.get_double("slo-window-slow-ms", 1'800'000.0) / 1e3;
  mopt.slo.fast_burn_threshold = args.get_double("slo-burn-fast", 14.0);
  mopt.slo.slow_burn_threshold = args.get_double("slo-burn-slow", 6.0);
  mopt.slo.cooldown_seconds = args.get_double("slo-cooldown-ms", 60'000.0) / 1e3;
  mopt.incident_dir = args.get("incident-dir", "");
  return mopt;
}

// Drain-time digest: one line per (objective, scope) pair, plus the
// grep-able "slo alert fired:" / "incident bundle written:" lines the
// chaos harness asserts on.
void print_monitor_summary(const obs::Monitor& monitor, const obs::FlightRecorder& flight) {
  for (const obs::SloAlertState& a : monitor.alerts()) {
    std::printf("slo: objective=%s scope=%s firing=%s fast_burn=%.2f slow_burn=%.2f "
                "fired=%llu cleared=%llu\n",
                a.objective.c_str(), a.scope.empty() ? "server" : a.scope.c_str(),
                a.firing ? "yes" : "no", a.fast_burn, a.slow_burn,
                static_cast<unsigned long long>(a.fired_total),
                static_cast<unsigned long long>(a.cleared_total));
    if (a.fired_total > 0) {
      std::printf("slo alert fired: objective=%s scope=%s fired=%llu\n", a.objective.c_str(),
                  a.scope.empty() ? "server" : a.scope.c_str(),
                  static_cast<unsigned long long>(a.fired_total));
    }
  }
  std::printf("obs: windows=%llu events=%llu (dropped %llu) bundles=%llu\n",
              static_cast<unsigned long long>(monitor.windows_recorded()),
              static_cast<unsigned long long>(flight.recorded()),
              static_cast<unsigned long long>(flight.dropped()),
              static_cast<unsigned long long>(monitor.bundles_written()));
  if (monitor.bundles_written() > 0) {
    std::printf("incident bundle written: %s\n", monitor.last_bundle_path().c_str());
  }
}

// Poller that turns a SIGUSR1 into a bundle trigger. Joined on drain.
std::thread start_incident_poller(obs::Monitor& monitor, std::atomic<bool>& stop) {
  std::signal(SIGUSR1, on_incident_signal);
  return std::thread([&monitor, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      if (g_incident_signal) {
        g_incident_signal = 0;
        monitor.trigger_incident("signal:SIGUSR1");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

int mode_serve(const CliArgs& args) {
  const Dataset data = Dataset::load(args.get("data", "data.hrfd"));

  ClassifierOptions opt;
  opt.backend = parse_backend(args.get("backend", "cpu"));
  opt.variant = parse_variant(args.get("variant", "independent"));
  opt.layout.subtree_depth = static_cast<int>(args.get_int("sd", 8));
  opt.layout.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));

  serve::ServerOptions sopt;
  sopt.num_workers = static_cast<std::size_t>(args.get_int("workers", 2));
  sopt.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 32));
  sopt.default_deadline_seconds = args.get_double("deadline-ms", 0.0) / 1e3;
  sopt.retry.max_retries = static_cast<int>(args.get_int("retries", 2));
  sopt.retry.backoff_base_seconds = 1e-4;  // keep the synthetic demo fast
  sopt.breaker.failure_threshold = static_cast<int>(args.get_int("breaker-threshold", 5));
  sopt.breaker.open_seconds = args.get_double("breaker-open-ms", 100.0) / 1e3;
  sopt.drain_deadline_seconds = args.get_double("drain-s", 5.0);
  sopt.trace_sampling = args.get_double("trace-sample", 0.0);
  // Dynamic micro-batching (docs/serving.md): --batch-max > 1 lets each
  // worker coalesce queued requests into one backend-native batch,
  // waiting at most --batch-wait-us for batchmates.
  sopt.batching.max_requests = static_cast<std::size_t>(args.get_int("batch-max", 1));
  sopt.batching.max_wait_seconds = args.get_double("batch-wait-us", 500.0) / 1e6;
  // Integrity monitor (docs/robustness.md): background replica scrubbing,
  // sampled shadow audits against the CPU oracle, and the worker watchdog.
  sopt.integrity.scrub_interval_seconds = args.get_double("scrub-interval-ms", 0.0) / 1e3;
  sopt.integrity.audit_sample_every =
      static_cast<std::size_t>(args.get_int("audit-sample", 0));
  sopt.integrity.hang_timeout_seconds = args.get_double("hang-timeout-ms", 0.0) / 1e3;
  const std::vector<std::string> tenants = parse_tenant_quotas(args, sopt);
  // Flight recorder: always on in serve mode (the ring is cheap and the
  // incident bundle wants breaker/reload/integrity events when armed).
  obs::FlightRecorder flight(512);
  sopt.flight_recorder = &flight;

  // Model source: a direct model file, or a versioned store (the
  // lifecycle path — docs/model-lifecycle.md).
  const std::string store_dir = args.get("model-store", "");
  const std::string publish_live = args.get("publish-live", "");
  const std::string publish_bad = args.get("publish-bad", "");
  const bool lifecycle = !publish_live.empty() || !publish_bad.empty();
  if (lifecycle && store_dir.empty()) {
    throw ConfigError("--publish-live/--publish-bad require --model-store");
  }

  const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
  const std::size_t per_client = static_cast<std::size_t>(args.get_int("requests", 8));
  const std::size_t batch =
      std::min<std::size_t>(static_cast<std::size_t>(args.get_int("batch", 256)),
                            data.num_samples());
  Dataset queries(batch, data.num_features(), data.num_classes());
  queries.set_name(data.name());
  for (std::size_t i = 0; i < batch; ++i) queries.push_back(data.sample(i), data.label(i));

  std::optional<serve::ModelStore> store;
  std::optional<serve::ForestServer> server;
  std::vector<std::uint8_t> reference;
  if (!store_dir.empty()) {
    store.emplace(serve::ModelStore::open(store_dir));
    const auto cur = store->current();
    if (!cur) {
      throw ConfigError("model store " + store_dir +
                        " has no complete generation; run --mode publish first");
    }
    // The lifecycle demo republishes the *same* model, so predictions stay
    // bit-identical across the hot swap and one reference validates all.
    const serve::LoadedModel m = store->load(*cur);
    reference = m.forest.classify_batch(queries.features(), queries.num_samples());
    // Repairs of a corrupted replica re-load the generation from disk
    // when the store still serves it (blob CRCs re-verified on read).
    sopt.integrity.rebuild_store_dir = store_dir;
    server.emplace(*store, opt, sopt);
    std::printf("serving generation %llu from store %s\n",
                static_cast<unsigned long long>(server->generation()), store_dir.c_str());
  } else {
    Forest forest = Forest::load(args.get("model", "model.hrff"));
    reference = forest.classify_batch(queries.features(), queries.num_samples());
    server.emplace(std::move(forest), opt, sopt);
  }
  std::printf("serving %s/%s: %zu workers, queue %zu, %zu clients x %s requests of %zu queries\n",
              to_string(opt.backend), to_string(opt.variant), sopt.num_workers,
              sopt.queue_capacity, clients,
              lifecycle ? "open-ended" : std::to_string(per_client).c_str(), batch);

  // SLO burn-rate engine + incident bundles (docs/observability.md).
  std::optional<obs::Monitor> monitor;
  std::atomic<bool> incident_stop{false};
  std::thread incident_poll;
  if (monitor_armed(args)) {
    monitor.emplace(make_monitor_options(args), [&] { return server->metrics_snapshot(); },
                    &flight, &server->tracer());
    incident_poll = start_incident_poller(*monitor, incident_stop);
    std::printf("slo engine armed: success>=%.4f p95<=%.1fms windows %.0fms/%.0fms "
                "burn %g/%g\n",
                monitor->options().slo.success_target,
                monitor->options().slo.p95_target_seconds * 1e3,
                monitor->options().slo.fast_window_seconds * 1e3,
                monitor->options().slo.slow_window_seconds * 1e3,
                monitor->options().slo.fast_burn_threshold,
                monitor->options().slo.slow_burn_threshold);
  }

  // Store watcher: polls current() and hot-reloads each newly published
  // generation exactly once (a rejected generation is not retried).
  serve::ReloadOptions ropts;
  ropts.shadow_queries = static_cast<std::size_t>(args.get_int("shadow-queries", 64));
  ropts.canary_success_requests =
      static_cast<std::uint64_t>(args.get_int("canary-requests", 2));
  ropts.post_promotion_watch_requests =
      static_cast<std::uint64_t>(args.get_int("watch-requests", 0));
  const double watch_ms = args.get_double("watch-ms", lifecycle ? 20.0 : 0.0);
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (store && watch_ms > 0) {
    watcher = std::thread([&] {
      std::uint64_t last_attempted = server->generation();
      while (!watch_stop.load(std::memory_order_acquire)) {
        const auto cur = store->current();
        if (cur && *cur != server->generation() && *cur != last_attempted) {
          last_attempted = *cur;
          const serve::ReloadReport rep = server->reload_latest(*store, ropts);
          std::printf("%s\n", rep.to_string().c_str());
        }
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(watch_ms));
      }
    });
  }

  // Periodic telemetry export (docs/observability.md): the writer thread
  // snapshots the server into <metrics-out> (Prometheus text) and
  // <metrics-out>.json atomically; a final dump always lands on drain.
  const std::string metrics_out = args.get("metrics-out", "");
  const double metrics_interval_ms = args.get_double("metrics-interval-ms", 0.0);
  std::atomic<bool> metrics_stop{false};
  std::thread metrics_writer;
  if (!metrics_out.empty() && metrics_interval_ms > 0) {
    metrics_writer = std::thread([&] {
      while (!metrics_stop.load(std::memory_order_acquire)) {
        obs::write_metrics_files(
            monitor ? monitor->snapshot() : server->metrics_snapshot(), metrics_out);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(metrics_interval_ms));
      }
    });
  }

  std::atomic<std::uint64_t> ok{0}, degraded{0}, overload{0}, quota_shed{0}, deadline{0},
      wrong{0}, failed{0};
  std::atomic<bool> client_stop{false};
  std::mutex sample_mu;
  std::vector<std::string> sample_degradations;
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    // With quotas on, clients round-robin the configured tenants so every
    // admission bucket sees traffic; without, everything is anonymous.
    const std::string tenant = tenants.empty() ? "" : tenants[c % tenants.size()];
    pool.emplace_back([&, tenant] {
      // Fixed request count normally; in lifecycle mode clients hammer the
      // server until the orchestration below says stop.
      for (std::size_t r = 0; lifecycle ? !client_stop.load(std::memory_order_acquire)
                                        : r < per_client;
           ++r) {
        try {
          serve::ServeResult res =
              server->submit(queries, sopt.default_deadline_seconds, tenant).get();
          ++ok;
          if (res.report.predictions != reference) ++wrong;
          if (res.report.degraded()) {
            ++degraded;
            std::lock_guard<std::mutex> lock(sample_mu);
            if (sample_degradations.empty()) sample_degradations = res.report.degradations;
          }
        } catch (const QuotaError&) {
          ++quota_shed;  // distinct from overload: the tenant was over its share
        } catch (const OverloadError&) {
          ++overload;
        } catch (const DeadlineError&) {
          ++deadline;
        } catch (const Error&) {
          ++failed;
        }
      }
    });
  }

  // Lifecycle orchestration: warm traffic, hot-swap a good generation,
  // then prove a bad one is rejected while the old model keeps serving.
  bool lifecycle_ok = true;
  if (lifecycle) {
    const auto wait_until = [&](const std::function<bool()>& pred, double timeout_s) {
      WallTimer t;
      while (!pred()) {
        if (t.seconds() > timeout_s) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return true;
    };
    wait_until([&] { return ok.load() >= clients * 2; }, 20.0);

    if (!publish_live.empty()) {
      const Forest f = Forest::load(publish_live);
      std::uint64_t id = 0;
      if (opt.variant == Variant::Csr || opt.variant == Variant::FilBaseline) {
        id = store->publish(f, CsrForest::build(f), "cli live publish");
      } else {
        id = store->publish(f, HierarchicalForest::build(f, opt.layout), "cli live publish");
      }
      const bool flipped = wait_until([&] { return server->generation() == id; }, 20.0);
      std::printf("lifecycle: hot-swap to gen %llu %s (now serving gen %llu)\n",
                  static_cast<unsigned long long>(id), flipped ? "complete" : "TIMED OUT",
                  static_cast<unsigned long long>(server->generation()));
      lifecycle_ok &= flipped;
      const std::uint64_t mark = ok.load();  // traffic proven on the new model
      lifecycle_ok &= wait_until([&] { return ok.load() >= mark + clients; }, 20.0);
    }

    if (!publish_bad.empty()) {
      const std::size_t colon = publish_bad.rfind(':');
      if (colon == std::string::npos) {
        throw ConfigError("--publish-bad wants MODEL:LAYOUT_BLOB paths");
      }
      const std::uint64_t before = server->generation();
      const std::uint64_t id = store->publish_files(
          publish_bad.substr(0, colon), publish_bad.substr(colon + 1), "cli bad publish");
      const bool rejected = wait_until(
          [&] {
            for (const serve::ReloadReport& r : server->reload_history()) {
              if (r.to_generation == id && !r.promoted()) return true;
            }
            return false;
          },
          20.0);
      const bool still_old = server->generation() == before;
      std::printf("lifecycle: bad generation %llu %s; still serving gen %llu\n",
                  static_cast<unsigned long long>(id),
                  rejected && still_old ? "rejected" : "NOT REJECTED",
                  static_cast<unsigned long long>(server->generation()));
      lifecycle_ok &= rejected && still_old;
    }
    client_stop.store(true, std::memory_order_release);
  }

  for (std::thread& t : pool) t.join();
  watch_stop.store(true, std::memory_order_release);
  if (watcher.joinable()) watcher.join();
  // --trigger-incident: deterministic bundle for the CI schema gate — no
  // signal racing, the bundle is on disk before the summary prints.
  if (monitor && args.get_flag("trigger-incident")) {
    monitor->trigger_incident("cli:trigger-incident");
    WallTimer bundle_wait;
    while (monitor->bundles_written() == 0 && bundle_wait.seconds() < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  metrics_stop.store(true, std::memory_order_release);
  if (metrics_writer.joinable()) metrics_writer.join();
  incident_stop.store(true, std::memory_order_release);
  if (incident_poll.joinable()) incident_poll.join();
  if (monitor) monitor->stop();

  const serve::DrainReport drain = server->shutdown();
  const serve::ServerStats stats = server->stats();
  if (!metrics_out.empty()) {
    obs::write_metrics_files(monitor ? monitor->snapshot() : server->metrics_snapshot(),
                             metrics_out);
    std::printf("metrics written to %s and %s.json\n", metrics_out.c_str(),
                metrics_out.c_str());
  }

  std::printf("clients done: %llu ok (%llu degraded), %llu overload-rejected, "
              "%llu quota-shed, %llu deadline, %llu failed\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(degraded.load()),
              static_cast<unsigned long long>(overload.load()),
              static_cast<unsigned long long>(quota_shed.load()),
              static_cast<unsigned long long>(deadline.load()),
              static_cast<unsigned long long>(failed.load()));
  if (!tenants.empty()) {
    Table tt({"tenant", "weight", "reserved", "admitted", "shed"});
    for (const serve::TenantCounters& tc : server->tenant_stats()) {
      tt.row()
          .cell(tc.name.empty() ? "(anonymous)" : tc.name)
          .cell(tc.weight, 1)
          .cell(static_cast<std::uint64_t>(tc.reserved))
          .cell(tc.admitted)
          .cell(tc.shed);
    }
    print_table(std::cout, "Tenant quotas", tt);
  }
  std::printf("prediction mismatches: %llu\n",
              static_cast<unsigned long long>(wrong.load()));
  for (const std::string& step : sample_degradations) {
    std::printf("sample degradation: %s\n", step.c_str());
  }
  std::printf("%s", server->counters().to_markdown().c_str());
  std::printf("latency percentiles (per stage):\n%s",
              server->latency().to_markdown().c_str());
  std::printf("backend rollups (variant x backend x generation):\n%s",
              server->rollups().to_markdown().c_str());
  if (sopt.trace_sampling > 0.0) {
    const auto summary = server->tracer().summary();
    std::printf("traces: started=%llu sampled=%llu retained=%zu (sampling %.3g)\n",
                static_cast<unsigned long long>(summary.started),
                static_cast<unsigned long long>(summary.sampled), summary.retained,
                summary.sampling);
    const auto top = static_cast<std::size_t>(args.get_int("trace-top", 0));
    for (const auto& tr : server->tracer().slowest(top)) {
      std::printf("%s", tr->to_string().c_str());
    }
  }
  if (monitor) print_monitor_summary(*monitor, flight);
  std::printf("breaker: state=%s trips=%llu probes=%llu\n", to_string(stats.breaker),
              static_cast<unsigned long long>(stats.breaker_trips),
              static_cast<unsigned long long>(stats.breaker_probes));
  if (sopt.integrity.scrub_interval_seconds > 0.0 || sopt.integrity.audit_sample_every > 0 ||
      sopt.integrity.hang_timeout_seconds > 0.0) {
    const serve::SelfHealStats heal = server->self_heal();
    Table ht({"integrity", "count"});
    ht.row().cell("scrub passes").cell(heal.scrub_passes);
    ht.row().cell("scrub corruptions").cell(heal.scrub_corruptions);
    ht.row().cell("replica repairs").cell(heal.scrub_repairs);
    ht.row().cell("audits sampled").cell(heal.audit_sampled);
    ht.row().cell("audit mismatches").cell(heal.audit_mismatches);
    ht.row().cell("missed heartbeats").cell(heal.watchdog_missed_heartbeats);
    ht.row().cell("worker restarts").cell(heal.watchdog_worker_restarts);
    print_table(std::cout, "Self-heal summary", ht);
  }
  if (store) {
    std::printf("reloads: promoted=%llu rejected=%llu rolled_back=%llu (serving gen %llu)\n",
                static_cast<unsigned long long>(stats.reloads_promoted),
                static_cast<unsigned long long>(stats.reloads_rejected),
                static_cast<unsigned long long>(stats.reloads_rolled_back),
                static_cast<unsigned long long>(stats.model_generation));
  }
  std::printf("drain: drained=%zu abandoned=%zu deadline_hit=%s in %.3fs\n", drain.drained,
              drain.abandoned, drain.deadline_hit ? "yes" : "no", drain.drain_seconds);

  const bool clean = server->healthy() && wrong.load() == 0 && failed.load() == 0 &&
                     drain.abandoned == 0 && lifecycle_ok;
  std::printf(clean ? "serve: clean shutdown\n" : "serve: FAILED (see counters above)\n");
  return clean ? 0 : 1;
}

// Sharded cluster demo + chaos driver (docs/cluster.md): stands up a
// ClusterRouter over --shards ForestServer shards, drives it with
// concurrent clients, and optionally injects chaos mid-traffic — kill a
// shard (--kill-shard), partition one and heal it (--partition-shard /
// --heal-ms), or run a staged rolling reload (--rolling-reload with
// --model-store + --publish-live) with the kill landing mid-wave. Exits
// nonzero when the aggregate success rate or router p95 violates the
// --slo-success / --slo-p95-ms degraded-mode SLOs, or any answered
// request returned wrong predictions.
int mode_cluster(const CliArgs& args) {
  const Dataset data = Dataset::load(args.get("data", "data.hrfd"));

  ClassifierOptions opt;
  opt.backend = parse_backend(args.get("backend", "cpu"));
  opt.variant = parse_variant(args.get("variant", "independent"));
  opt.layout.subtree_depth = static_cast<int>(args.get_int("sd", 8));
  opt.layout.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));

  serve::ServerOptions sopt;
  sopt.num_workers = static_cast<std::size_t>(args.get_int("workers", 1));
  sopt.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 32));
  sopt.default_deadline_seconds = args.get_double("deadline-ms", 0.0) / 1e3;
  sopt.retry.backoff_base_seconds = 1e-4;
  sopt.drain_deadline_seconds = args.get_double("drain-s", 5.0);
  // Per-shard micro-batching: every shard's workers coalesce their own
  // queue; the router is oblivious (it already spreads load across shards).
  sopt.batching.max_requests = static_cast<std::size_t>(args.get_int("batch-max", 1));
  sopt.batching.max_wait_seconds = args.get_double("batch-wait-us", 500.0) / 1e6;
  // Per-shard integrity monitor (docs/robustness.md): each shard scrubs,
  // audits, and watchdogs its own replicas; the router just reports the
  // per-shard self-heal outcomes.
  sopt.integrity.scrub_interval_seconds = args.get_double("scrub-interval-ms", 0.0) / 1e3;
  sopt.integrity.audit_sample_every =
      static_cast<std::size_t>(args.get_int("audit-sample", 0));
  sopt.integrity.hang_timeout_seconds = args.get_double("hang-timeout-ms", 0.0) / 1e3;

  // Multi-tenant QoS (docs/cluster.md): --tenants carves every shard's
  // queue into weighted reserved shares; --surge marks one tenant as the
  // noisy neighbor (its clients send --surge-factor x the traffic and its
  // requests hog a worker for --surge-ms via the surge:tenant site).
  const std::vector<std::string> tenants = parse_tenant_quotas(args, sopt);
  const std::string surge_tenant = args.get("surge", "");
  const std::size_t surge_factor = static_cast<std::size_t>(args.get_int("surge-factor", 10));
  if (!surge_tenant.empty()) {
    if (std::find(tenants.begin(), tenants.end(), surge_tenant) == tenants.end()) {
      throw ConfigError("--surge tenant '" + surge_tenant + "' is not in --tenants");
    }
    sopt.surge_tenant = surge_tenant;
    sopt.inject_surge_seconds = args.get_double("surge-ms", 0.5) / 1e3;
    FaultInjector::global().arm("surge:tenant", -1);
  }

  cluster::ClusterOptions clopt;
  clopt.num_shards = static_cast<std::size_t>(args.get_int("shards", 4));
  clopt.policy = cluster::routing_policy_from_name(args.get("router-policy", "hash"));
  clopt.max_failovers = static_cast<int>(args.get_int("failovers", 2));
  clopt.hedge.min_seconds = args.get_double("hedge-ms", 10.0) / 1e3;
  clopt.probe_interval_seconds = args.get_double("probe-interval-ms", 20.0) / 1e3;
  // Adaptive admission: --adaptive-limit N starts the router's AIMD
  // concurrency limiter at N in-flight requests.
  const long long limit0 = args.get_int("adaptive-limit", 0);
  if (limit0 > 0) {
    clopt.limit.enabled = true;
    clopt.limit.initial_limit = static_cast<std::size_t>(limit0);
    clopt.limit.target_p95_seconds = args.get_double("limit-p95-ms", 50.0) / 1e3;
  }
  // Histogram-driven autoscaling: --autoscale lets the fleet grow to
  // --autoscale-max shards on route-p95 / queue-depth pressure and shrink
  // back to --autoscale-min when idle.
  const bool autoscale = args.get_flag("autoscale");
  cluster::AutoscalerOptions aopt;
  if (autoscale) {
    aopt.min_shards = static_cast<std::size_t>(args.get_int("autoscale-min", 1));
    aopt.max_shards = static_cast<std::size_t>(
        args.get_int("autoscale-max", static_cast<long long>(clopt.num_shards * 2)));
    aopt.evaluation_interval_seconds = args.get_double("autoscale-interval-ms", 20.0) / 1e3;
    aopt.scale_up_p95_seconds = args.get_double("autoscale-up-p95-ms", 5.0) / 1e3;
    // Default the shrink threshold well under the grow threshold so a
    // bare --autoscale-up-p95-ms never trips the down < up validation.
    aopt.scale_down_p95_seconds =
        args.get_double("autoscale-down-p95-ms", aopt.scale_up_p95_seconds * 1e3 / 5.0) / 1e3;
    clopt.max_shards = aopt.max_shards;
  }

  // Flight recorder: shared by the router, every shard, and the
  // autoscaler; sized up because a fleet emits more transitions.
  obs::FlightRecorder flight(1024);
  clopt.flight_recorder = &flight;

  const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
  const std::size_t per_client = static_cast<std::size_t>(args.get_int("requests", 32));
  const std::size_t batch =
      std::min<std::size_t>(static_cast<std::size_t>(args.get_int("batch", 256)),
                            data.num_samples());
  Dataset queries(batch, data.num_features(), data.num_classes());
  queries.set_name(data.name());
  for (std::size_t i = 0; i < batch; ++i) queries.push_back(data.sample(i), data.label(i));

  const std::string store_dir = args.get("model-store", "");
  const bool rolling = args.get_flag("rolling-reload");
  if (rolling && store_dir.empty()) {
    throw ConfigError("--rolling-reload requires --model-store");
  }

  std::optional<serve::ModelStore> store;
  std::optional<cluster::ClusterRouter> router;
  std::vector<std::uint8_t> reference;
  if (!store_dir.empty()) {
    store.emplace(serve::ModelStore::open(store_dir));
    const auto cur = store->current();
    if (!cur) {
      throw ConfigError("model store " + store_dir +
                        " has no complete generation; run --mode publish first");
    }
    const serve::LoadedModel m = store->load(*cur);
    reference = m.forest.classify_batch(queries.features(), queries.num_samples());
    sopt.integrity.rebuild_store_dir = store_dir;
    router.emplace(*store, opt, sopt, clopt);
  } else {
    Forest forest = Forest::load(args.get("model", "model.hrff"));
    reference = forest.classify_batch(queries.features(), queries.num_samples());
    router.emplace(forest, opt, sopt, clopt);
  }
  std::printf("cluster: %zu shards (%s routing, %d failovers, hedge floor %.1f ms), "
              "%zu clients x %zu requests of %zu queries\n",
              router->num_shards(), cluster::to_string(clopt.policy), clopt.max_failovers,
              clopt.hedge.min_seconds * 1e3, clients, per_client, batch);
  if (autoscale) {
    std::printf("autoscaler: %zu..%zu shards, eval every %.0f ms, up p95 %.1f ms, "
                "down p95 %.1f ms\n",
                aopt.min_shards, aopt.max_shards, aopt.evaluation_interval_seconds * 1e3,
                aopt.scale_up_p95_seconds * 1e3, aopt.scale_down_p95_seconds * 1e3);
  }
  std::optional<cluster::ClusterAutoscaler> scaler;
  if (autoscale) scaler.emplace(*router, aopt);

  // SLO burn-rate engine + incident bundles over the whole fleet: the
  // per-shard scopes come from the snapshot's shard health rows, so a
  // killed shard raises hrf_slo_* even while failover keeps the
  // client-visible success rate high (docs/observability.md).
  std::optional<obs::Monitor> monitor;
  std::atomic<bool> incident_stop{false};
  std::thread incident_poll;
  if (monitor_armed(args)) {
    monitor.emplace(make_monitor_options(args), [&] { return router->metrics_snapshot(); },
                    &flight);
    incident_poll = start_incident_poller(*monitor, incident_stop);
    std::printf("slo engine armed: success>=%.4f p95<=%.1fms windows %.0fms/%.0fms "
                "burn %g/%g\n",
                monitor->options().slo.success_target,
                monitor->options().slo.p95_target_seconds * 1e3,
                monitor->options().slo.fast_window_seconds * 1e3,
                monitor->options().slo.slow_window_seconds * 1e3,
                monitor->options().slo.fast_burn_threshold,
                monitor->options().slo.slow_burn_threshold);
  }

  // One outcome ledger per tenant (a single anonymous one without
  // --tenants); the surge tenant's quota sheds are expected, every other
  // tenant is a victim whose success rate the SLO gate protects.
  struct TenantOutcome {
    std::string name;
    std::atomic<std::uint64_t> ok{0}, quota_shed{0}, deadline{0}, failed{0}, wrong{0};

    std::uint64_t total() const {
      return ok.load() + quota_shed.load() + deadline.load() + failed.load();
    }
    double success_rate() const {
      const std::uint64_t t = total();
      return t > 0 ? static_cast<double>(ok.load()) / static_cast<double>(t) : 1.0;
    }
  };
  std::vector<std::unique_ptr<TenantOutcome>> outcomes;
  if (tenants.empty()) {
    outcomes.push_back(std::make_unique<TenantOutcome>());
  } else {
    for (const std::string& name : tenants) {
      outcomes.push_back(std::make_unique<TenantOutcome>());
      outcomes.back()->name = name;
    }
  }

  std::atomic<std::uint64_t> ok{0}, failed{0}, wrong{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < outcomes.size(); ++t) {
    TenantOutcome& outcome = *outcomes[t];
    const bool surging = !outcome.name.empty() && outcome.name == surge_tenant;
    const std::size_t requests = per_client * (surging ? surge_factor : 1);
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, t, c, requests] {
        for (std::size_t r = 0; r < requests; ++r) {
          cluster::QueryOptions qopt;
          qopt.key = (t * 977 + c) * 1000003ULL + r;
          qopt.tenant = outcome.name;
          try {
            const cluster::ClusterResult res = router->query(queries, qopt);
            ++outcome.ok;
            ++ok;
            if (res.result.report.predictions != reference) {
              ++outcome.wrong;
              ++wrong;
            }
          } catch (const QuotaError&) {
            ++outcome.quota_shed;  // admission said no; not a shard failure
          } catch (const DeadlineError&) {
            ++outcome.deadline;
            ++failed;
          } catch (const Error&) {
            ++outcome.failed;
            ++failed;
          }
        }
      });
    }
  }

  // Chaos orchestration: wait out the healthy warmup, then inject.
  const double chaos_delay_s = args.get_double("chaos-delay-ms", 10.0) / 1e3;
  const long long kill = args.get_int("kill-shard", -1);
  const long long partition = args.get_int("partition-shard", -1);
  const double heal_s = args.get_double("heal-ms", 100.0) / 1e3;
  const auto nap = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };

  std::thread chaos;
  if (kill >= 0 && rolling) {
    // The acceptance scenario: the kill lands mid-wave, the wave halts
    // and rolls the already-promoted shards back.
    chaos = std::thread([&] {
      nap(chaos_delay_s);
      router->kill_shard(static_cast<std::size_t>(kill));
      std::printf("chaos: killed shard %lld mid-reload\n", kill);
    });
  } else if (kill >= 0) {
    nap(chaos_delay_s);
    router->kill_shard(static_cast<std::size_t>(kill));
    std::printf("chaos: killed shard %lld\n", kill);
  }
  if (partition >= 0) {
    nap(chaos_delay_s);
    router->set_partitioned(static_cast<std::size_t>(partition), true);
    std::printf("chaos: partitioned shard %lld for %.0f ms\n", partition, heal_s * 1e3);
  }

  bool reload_as_expected = true;
  if (rolling) {
    const std::string publish_live = args.get("publish-live", "");
    std::uint64_t target_gen = store->current().value();
    if (!publish_live.empty()) {
      const Forest f = Forest::load(publish_live);
      if (opt.variant == Variant::Csr || opt.variant == Variant::FilBaseline) {
        target_gen = store->publish(f, CsrForest::build(f), "cluster rolling reload");
      } else {
        target_gen =
            store->publish(f, HierarchicalForest::build(f, opt.layout), "cluster rolling reload");
      }
    }
    cluster::RollingReloadOptions ropts;
    ropts.reload.shadow_queries = static_cast<std::size_t>(args.get_int("shadow-queries", 64));
    ropts.reload.canary_success_requests =
        static_cast<std::uint64_t>(args.get_int("canary-requests", 1));
    ropts.reload.post_promotion_watch_requests =
        static_cast<std::uint64_t>(args.get_int("watch-requests", 0));
    const cluster::RollingReloadReport rep = router->rolling_reload(*store, target_gen, ropts);
    std::printf("%s\n", rep.to_string().c_str());
    // A kill scheduled mid-wave must halt the wave; otherwise it must
    // complete.
    reload_as_expected = (kill >= 0) ? !rep.completed : rep.completed;
  }
  if (chaos.joinable()) chaos.join();

  if (partition >= 0) {
    nap(heal_s);
    router->set_partitioned(static_cast<std::size_t>(partition), false);
    std::printf("chaos: healed shard %lld\n", partition);
  }

  for (std::thread& t : pool) t.join();
  if (!surge_tenant.empty()) FaultInjector::global().disarm("surge:tenant");
  // A killed shard keeps burning its error budget after traffic ends (a
  // down shard is a 100% error ratio per window), so wait for the
  // multi-window alert to mature instead of racing the drain — this is
  // what the chaos kill_shard scenario asserts on.
  if (monitor && kill >= 0) {
    WallTimer alert_wait;
    while (monitor->alerts_fired_total() == 0 && alert_wait.seconds() < 5.0) {
      nap(0.02);
    }
  }
  if (monitor && args.get_flag("trigger-incident")) {
    monitor->trigger_incident("cli:trigger-incident");
    WallTimer bundle_wait;
    while (monitor->bundles_written() == 0 && bundle_wait.seconds() < 5.0) nap(0.01);
  }
  if (scaler) {
    scaler->stop();
    const cluster::AutoscalerStats as = scaler->stats();
    std::printf("autoscaler: %llu evaluations, %llu scale-ups, %llu scale-downs, "
                "%llu stalled; fleet ends at %zu shards\n",
                static_cast<unsigned long long>(as.evaluations),
                static_cast<unsigned long long>(as.scale_ups),
                static_cast<unsigned long long>(as.scale_downs),
                static_cast<unsigned long long>(as.stalled), as.active_shards);
  }

  const cluster::ClusterStats stats = router->stats();
  const HistogramSnapshot route = router->route_latency();
  const double p95_ms = route.percentile_ns(95) / 1e6;
  const std::uint64_t total = ok.load() + failed.load();
  const double success = total > 0 ? static_cast<double>(ok.load()) / static_cast<double>(total)
                                   : 0.0;

  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    obs::write_metrics_files(monitor ? monitor->snapshot() : router->metrics_snapshot(),
                             metrics_out);
    std::printf("metrics written to %s and %s.json\n", metrics_out.c_str(),
                metrics_out.c_str());
  }
  incident_stop.store(true, std::memory_order_release);
  if (incident_poll.joinable()) incident_poll.join();
  if (monitor) monitor->stop();
  router->shutdown();

  std::printf("latency percentiles (per stage):\n%s", router->latency().to_markdown().c_str());
  std::uint64_t total_repairs = 0, total_restarts = 0;
  for (const cluster::ShardStatus& s : stats.shard_status) {
    total_repairs += s.repairs;
    total_restarts += s.worker_restarts;
    std::printf("shard %zu: %s%s breaker=%s gen=%llu routed=%llu failures=%llu "
                "repairs=%llu restarts=%llu\n",
                s.index, s.alive ? "up" : "down", s.partitioned ? " (partitioned)" : "",
                serve::to_string(s.breaker), static_cast<unsigned long long>(s.generation),
                static_cast<unsigned long long>(s.routed),
                static_cast<unsigned long long>(s.failures),
                static_cast<unsigned long long>(s.repairs),
                static_cast<unsigned long long>(s.worker_restarts));
  }
  if (monitor) print_monitor_summary(*monitor, flight);
  if (!tenants.empty()) {
    Table tt({"tenant", "ok", "quota-shed", "deadline", "failed", "success"});
    for (const auto& o : outcomes) {
      tt.row()
          .cell(o->name + (o->name == surge_tenant ? " (surge)" : ""))
          .cell(o->ok.load())
          .cell(o->quota_shed.load())
          .cell(o->deadline.load())
          .cell(o->failed.load())
          .cell(o->success_rate(), 4);
    }
    print_table(std::cout, "Per-tenant outcomes", tt);
  }
  std::printf("cluster summary: shards=%zu available=%zu ok=%llu failed=%llu wrong=%llu "
              "success=%.4f p95_ms=%.3f failovers=%llu hedged=%llu hedge_wins=%llu "
              "no_shard=%llu probes=%llu rollbacks=%llu quota_shed=%llu limited=%llu "
              "scale_ups=%llu scale_downs=%llu\n",
              stats.shards, stats.available, static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(failed.load()),
              static_cast<unsigned long long>(wrong.load()), success, p95_ms,
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.hedged),
              static_cast<unsigned long long>(stats.hedge_wins),
              static_cast<unsigned long long>(stats.no_shard_available),
              static_cast<unsigned long long>(stats.probes),
              static_cast<unsigned long long>(stats.shard_rollbacks),
              static_cast<unsigned long long>(stats.quota_shed),
              static_cast<unsigned long long>(stats.limited),
              static_cast<unsigned long long>(stats.scale_ups),
              static_cast<unsigned long long>(stats.scale_downs));
  if (total_repairs > 0 || total_restarts > 0) {
    std::printf("cluster self-heal: replica_repairs=%llu worker_restarts=%llu\n",
                static_cast<unsigned long long>(total_repairs),
                static_cast<unsigned long long>(total_restarts));
  }

  const double slo_success = args.get_double("slo-success", 0.99);
  const double slo_p95_ms = args.get_double("slo-p95-ms", 0.0);
  bool clean = wrong.load() == 0 && reload_as_expected;
  // With a designated surge tenant, the SLO protects the victims: each
  // non-surge tenant must hold the success floor on its own (its quota
  // sheds count against it), while the surger is expected to be shed.
  for (const auto& o : outcomes) {
    if (o->name == surge_tenant) continue;
    if (o->success_rate() < slo_success) {
      std::printf("SLO VIOLATION: tenant %s success %.4f < %.4f\n",
                  o->name.empty() ? "(anonymous)" : o->name.c_str(), o->success_rate(),
                  slo_success);
      clean = false;
    }
  }
  if (surge_tenant.empty() && success < slo_success) {
    std::printf("SLO VIOLATION: success %.4f < %.4f\n", success, slo_success);
    clean = false;
  }
  if (slo_p95_ms > 0.0 && p95_ms > slo_p95_ms) {
    std::printf("SLO VIOLATION: p95 %.3f ms > %.3f ms\n", p95_ms, slo_p95_ms);
    clean = false;
  }
  if (!reload_as_expected) std::printf("rolling reload did not end in the expected state\n");
  std::printf(clean ? "cluster: clean shutdown\n" : "cluster: FAILED (see summary above)\n");
  return clean ? 0 : 1;
}

// Trace explorer (docs/observability.md): drives a short, fully-sampled
// serving session and pretty-prints the slowest end-to-end traces as span
// trees — queue wait, execute, per-chunk backend work, retries, fallback —
// with the simulated device counters attached as span attributes.
int mode_trace(const CliArgs& args) {
  const Dataset data = Dataset::load(args.get("data", "data.hrfd"));

  ClassifierOptions opt;
  opt.backend = parse_backend(args.get("backend", "cpu"));
  opt.variant = parse_variant(args.get("variant", "independent"));
  opt.layout.subtree_depth = static_cast<int>(args.get_int("sd", 8));
  opt.layout.root_subtree_depth = static_cast<int>(args.get_int("rsd", 0));

  serve::ServerOptions sopt;
  sopt.num_workers = static_cast<std::size_t>(args.get_int("workers", 2));
  sopt.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 32));
  // A generous default deadline routes execution through the chunked
  // cancellable path, so each trace shows per-chunk spans with backend
  // counter attributes (no deadline = single-shot classify, no chunks).
  sopt.default_deadline_seconds = args.get_double("deadline-ms", 30'000.0) / 1e3;
  sopt.deadline_chunk_size = static_cast<std::size_t>(args.get_int("chunk", 64));
  sopt.trace_sampling = 1.0;  // trace mode records everything
  sopt.trace_capacity = static_cast<std::size_t>(args.get_int("requests", 16)) + 1;

  const std::size_t requests = static_cast<std::size_t>(args.get_int("requests", 16));
  const std::size_t batch =
      std::min<std::size_t>(static_cast<std::size_t>(args.get_int("batch", 256)),
                            data.num_samples());
  Dataset queries(batch, data.num_features(), data.num_classes());
  queries.set_name(data.name());
  for (std::size_t i = 0; i < batch; ++i) queries.push_back(data.sample(i), data.label(i));

  serve::ForestServer server(Forest::load(args.get("model", "model.hrff")), opt, sopt);
  std::printf("tracing %zu requests of %zu queries on %s/%s (sampling 1.0)\n", requests, batch,
              to_string(opt.backend), to_string(opt.variant));
  std::size_t completed = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    try {
      server.submit(queries).get();
      ++completed;
    } catch (const Error& e) {
      std::printf("request %zu failed: %s\n", r, e.what());
    }
  }
  server.shutdown();

  const auto top = static_cast<std::size_t>(args.get_int("trace-top", 5));
  const auto slowest = server.tracer().slowest(top);
  std::printf("%zu/%zu requests completed; slowest %zu of %zu retained traces:\n", completed,
              requests, slowest.size(), server.tracer().summary().retained);
  for (const auto& tr : slowest) std::printf("%s", tr->to_string().c_str());

  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    obs::write_metrics_files(server.metrics_snapshot(), metrics_out);
    std::printf("metrics written to %s and %s.json\n", metrics_out.c_str(), metrics_out.c_str());
  }
  return completed == requests ? 0 : 1;
}

// Schema gate for the exported telemetry (tools/check.sh): parses a
// Prometheus text file + its JSON sibling and fails unless every metric
// in the documented catalogue is present with the declared type.
int mode_metrics_check(const CliArgs& args) {
  const std::string prom_path = args.get("metrics", "metrics.prom");
  const std::string json_path = args.get("json", prom_path + ".json");
  try {
    obs::check_metrics_schema(read_file_text(prom_path), read_file_text(json_path));
  } catch (const Error& e) {
    std::printf("metrics-check: FAILED: %s\n", e.what());
    return 1;
  }
  std::printf("metrics-check: %s + %s ok (%zu catalogued families)\n", prom_path.c_str(),
              json_path.c_str(), obs::metric_catalogue().size());
  return 0;
}

// Incident-bundle inspector + schema gate (tools/ci.sh): parses a bundle
// written by the Monitor, validates it against the "hrf-incident" v1
// schema, and prints a digest — reason, firing alerts, window/event/trace
// counts, and the tail of the event ring.
int mode_incident(const CliArgs& args) {
  const std::string path = args.get("bundle", "incident.json");
  json::Value bundle;
  try {
    bundle = json::Value::parse(read_file_text(path));
    obs::check_incident_bundle(bundle);
  } catch (const Error& e) {
    std::printf("incident-check: FAILED: %s\n", e.what());
    return 1;
  }
  std::printf("incident bundle %s: reason=\"%s\"\n", path.c_str(),
              bundle.get("reason").as_string().c_str());
  const json::Value& alerts = bundle.get("alerts");
  std::size_t firing = 0;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const json::Value& a = alerts.at(i);
    if (a.get("firing").as_bool()) {
      ++firing;
      std::printf("  firing: %s %s fast_burn=%.2f slow_burn=%.2f\n",
                  a.get("objective").as_string().c_str(), a.get("scope").as_string().c_str(),
                  a.get("fast_burn").as_number(), a.get("slow_burn").as_number());
    }
  }
  const json::Value& events = bundle.get("events");
  const std::size_t tail = std::min<std::size_t>(events.size(), 8);
  for (std::size_t i = events.size() - tail; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    std::printf("  event: [%s] %s %s %s\n", e.get("category").as_string().c_str(),
                e.get("name").as_string().c_str(), e.get("scope").as_string().c_str(),
                e.get("detail").as_string().c_str());
  }
  std::printf("incident-check: %s ok (%zu alerts, %zu firing, %zu windows, %zu events, "
              "%zu traces)\n",
              path.c_str(), alerts.size(), firing, bundle.get("windows").size(),
              events.size(), bundle.get("traces").size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.allow("mode",
             "gen | train | info | layout | predict | compile | publish | store | serve | "
             "cluster | bench | trace | metrics-check | incident")
      .allow("dataset", "gen: covertype | susy | higgs")
      .allow("samples", "gen: sample count")
      .allow("data", "train/predict: dataset file (.hrfd)")
      .allow("split", "train: use the train half, report holdout accuracy")
      .allow("trees", "train: number of trees")
      .allow("depth", "train: max tree depth")
      .allow("features-per-split", "train: 0 = sqrt default")
      .allow("seed", "train: RNG seed")
      .allow("model", "info/layout/predict/compile: model file (.hrff)")
      .allow("backend", "predict: cpu | gpu-sim | fpga-sim")
      .allow("variant", "predict: csr | independent | collaborative | hybrid | fil")
      .allow("sd", "layout/predict/compile: max subtree depth(s)")
      .allow("rsd", "layout/predict/compile: root subtree depth(s), 0 = SD")
      .allow("layout", "compile/publish: csr | hier")
      .allow("layout-blob", "predict/publish: precompiled layout blob (.hrfl)")
      .allow("store", "publish/store: model store directory")
      .allow("note", "publish: free-text note recorded in the generation manifest")
      .allow("model-store", "serve: serve the store's current generation (hot-reloadable)")
      .allow("watch-ms", "serve: store poll interval for hot reload (0 = no watcher)")
      .allow("canary-requests", "serve: canary successes required before full promotion")
      .allow("watch-requests", "serve: post-promotion requests to watch for an error spike")
      .allow("shadow-queries", "serve: synthetic probe size for shadow validation")
      .allow("publish-live", "serve: model file to publish mid-traffic (hot-swap demo)")
      .allow("publish-bad", "serve: MODEL:BLOB to publish as a must-be-rejected generation")
      .allow("workers", "serve: worker threads (classifier replicas)")
      .allow("queue-cap", "serve: bounded request queue capacity")
      .allow("clients", "serve: synthetic client threads")
      .allow("requests", "serve: requests per client")
      .allow("batch", "serve: queries per request")
      .allow("deadline-ms", "serve: per-request deadline (0 = none)")
      .allow("batch-max", "serve/cluster: max requests coalesced per dispatch "
                          "(<= 1 = micro-batching off)")
      .allow("batch-wait-us", "serve/cluster: max batch-forming wait per member "
                              "(default 500)")
      .allow("retries", "serve: max server-level retries per request")
      .allow("breaker-threshold", "serve: consecutive failures to trip the breaker")
      .allow("breaker-open-ms", "serve: breaker cooldown before half-open")
      .allow("drain-s", "serve: graceful shutdown drain deadline")
      .allow("scrub-interval-ms", "serve/cluster: replica CRC scrub cadence (0 = off)")
      .allow("audit-sample", "serve/cluster: shadow-audit every Nth request on the CPU "
                             "oracle (0 = off)")
      .allow("hang-timeout-ms", "serve/cluster: worker watchdog hang threshold (0 = off)")
      .allow("trace-sample", "serve: fraction of requests to trace (0..1, default 0)")
      .allow("trace-top", "serve/trace: slowest trace trees to print after drain")
      .allow("chunk", "trace: queries per cancellable execution chunk")
      .allow("metrics-out", "serve/trace: telemetry file (Prometheus text; <file>.json sibling)")
      .allow("metrics-interval-ms", "serve: periodic metrics export interval (0 = final only)")
      .allow("metrics", "metrics-check: Prometheus text file to validate")
      .allow("json", "metrics-check: JSON metrics file (default <metrics>.json)")
      .allow("obs-interval-ms", "serve/cluster: monitor sampling cadence (default 250)")
      .allow("slo-target-success", "serve/cluster: arm the SLO burn-rate engine with this "
                                   "success objective (e.g. 0.99)")
      .allow("slo-target-p95-ms", "serve/cluster: end-to-end p95 objective in ms "
                                  "(0 = latency objective off)")
      .allow("slo-window-fast-ms", "serve/cluster: fast burn window (default 60000)")
      .allow("slo-window-slow-ms", "serve/cluster: slow burn window (default 1800000)")
      .allow("slo-burn-fast", "serve/cluster: fast-window burn threshold (default 14)")
      .allow("slo-burn-slow", "serve/cluster: slow-window burn threshold (default 6)")
      .allow("slo-cooldown-ms", "serve/cluster: post-clear alert cooldown (default 60000)")
      .allow("incident-dir", "serve/cluster: directory for incident bundles "
                             "(empty = bundles off; also arms the monitor)")
      .allow("trigger-incident", "serve/cluster: dump one bundle on drain (CI schema gate)")
      .allow("bundle", "incident: bundle JSON file to validate and summarize")
      .allow("shards", "cluster/bench: number of ForestServer shards")
      .allow("router-policy", "cluster: hash | least-loaded")
      .allow("hedge-ms", "cluster: hedge delay floor (p95-derived above it)")
      .allow("failovers", "cluster: extra shards tried after a failed attempt")
      .allow("probe-interval-ms", "cluster: health probe loop cadence")
      .allow("kill-shard", "cluster: shard to kill after --chaos-delay-ms (-1 = none)")
      .allow("partition-shard", "cluster: shard to partition from the router (-1 = none)")
      .allow("heal-ms", "cluster: partition duration before healing")
      .allow("chaos-delay-ms", "cluster: healthy warmup before chaos lands")
      .allow("rolling-reload", "cluster: staged rolling reload across the fleet "
                               "(publishes --publish-live to --model-store first)")
      .allow("slo-success", "cluster: minimum aggregate success rate (default 0.99)")
      .allow("slo-p95-ms", "cluster: maximum router p95 in ms (0 = ungated)")
      .allow("tenants", "serve/cluster: comma-separated tenant names with reserved "
                        "queue shares (empty = quotas off)")
      .allow("tenant-weights", "serve/cluster: comma-separated weights, one per tenant "
                               "(default: equal)")
      .allow("surge", "cluster: tenant that surges --surge-factor x the normal rate "
                      "(arms surge:tenant; victims' SLOs are gated per tenant)")
      .allow("surge-factor", "cluster: surge traffic multiplier (default 10)")
      .allow("surge-ms", "cluster: worker stall per surging request (default 0.5)")
      .allow("adaptive-limit", "cluster: initial AIMD in-flight limit (0 = limiter off)")
      .allow("limit-p95-ms", "cluster: AIMD target route p95 (default 50)")
      .allow("autoscale", "cluster: scale the fleet on route-p95/queue-depth pressure")
      .allow("autoscale-min", "cluster: autoscaler floor (default 1)")
      .allow("autoscale-max", "cluster: autoscaler ceiling (default 2x --shards)")
      .allow("autoscale-interval-ms", "cluster: autoscaler evaluation cadence (default 20)")
      .allow("autoscale-up-p95-ms", "cluster: route p95 that grows the fleet (default 5)")
      .allow("autoscale-down-p95-ms", "cluster: route p95 floor that shrinks it (default 1)")
      .allow("inject-fault", "fault spec(s): resource:{gpu|gpu-smem|fpga|fpga-bram}[:n], "
                             "bitflip:layout, corrupt:{node|replica}, "
                             "crash:{publish|manifest|route}, freeze:{shard|batcher}, "
                             "hang:worker, surge:tenant, stall:autoscaler")
      .allow("inject-seed", "fault injector RNG seed")
      .allow("variants", "bench: comma-separated variant sweep list")
      .allow("backends", "bench: comma-separated backend sweep list")
      .allow("batches", "bench: comma-separated batch sizes")
      .allow("warmup", "bench: untimed runs per case")
      .allow("repeats", "bench: timed runs per case (percentile sample)")
      .allow("features", "bench: synthetic forest feature count")
      .allow("compare", "bench: baseline BENCH_hrf.json to gate against")
      .allow("tolerance", "bench: allowed fractional p95 growth of a wall-clock case "
                          "(default 0.25)")
      .allow("trace-overhead", "bench: A/B serve p95 at trace sampling 0.0 vs 1.0")
      .allow("audit-bench", "bench: A/B serve p95 with shadow audits off vs 1-in-32")
      .allow("obs-bench", "bench: A/B serve p95 with the monitor + SLO engine off vs armed")
      .allow("batch-bench", "bench: A/B serve qps + p95 with micro-batching off vs on")
      .allow("ab-requests", "bench: timed requests per arm of the trace/audit/obs cases "
                            "(default 200)")
      .allow("trace-tolerance", "bench: allowed fractional on/off p95 cost of an A/B case "
                                "(default 0.05)")
      .allow("cluster-bench", "bench: measure routed p95 + qps over a healthy shard fleet")
      .allow("noisy-bench", "bench: measure victim p95 under a quota-shed tenant surge")
      .allow("out", "gen/train/predict/compile/bench: output path");
  if (!args.validate()) return 1;

  try {
    const std::string faults = args.get("inject-fault", "");
    if (!faults.empty()) {
      hrf::FaultInjector& inj = hrf::FaultInjector::global();
      inj.seed(static_cast<std::uint64_t>(args.get_int("inject-seed", 42)));
      inj.arm_specs(faults);
    }
    const std::string mode = args.get("mode", "");
    if (mode == "gen") return mode_gen(args);
    if (mode == "train") return mode_train(args);
    if (mode == "info") return mode_info(args);
    if (mode == "layout") return mode_layout(args);
    if (mode == "predict") return mode_predict(args);
    if (mode == "compile") return mode_compile(args);
    if (mode == "publish") return mode_publish(args);
    if (mode == "store") return mode_store(args);
    if (mode == "serve") return mode_serve(args);
    if (mode == "cluster") return mode_cluster(args);
    if (mode == "bench") return mode_bench(args);
    if (mode == "trace") return mode_trace(args);
    if (mode == "metrics-check") return mode_metrics_check(args);
    if (mode == "incident") return mode_incident(args);
    std::fprintf(stderr, "missing or unknown --mode (try --help)\n");
    return 1;
  } catch (const hrf::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
