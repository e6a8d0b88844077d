#include "bench/harness.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "cluster/cluster.hpp"
#include "data/synthetic.hpp"
#include "obs/monitor.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace hrf::bench {

namespace {

/// First `n` rows of `ds` (all of it when n >= size).
Dataset head(const Dataset& ds, std::size_t n) {
  if (n >= ds.num_samples()) return ds;
  Dataset out(n, ds.num_features(), ds.num_classes());
  out.set_name(ds.name());
  for (std::size_t i = 0; i < n; ++i) out.push_back(ds.sample(i), ds.label(i));
  return out;
}

bool valid_combo(Variant v, Backend b) {
  if (v == Variant::FilBaseline) return b == Backend::GpuSim;
  if (v == Variant::Collaborative || v == Variant::Hybrid) return b != Backend::CpuNative;
  return true;
}

json::Value forest_to_json(const RandomForestSpec& spec) {
  json::Value f = json::Value::object();
  f["num_trees"] = spec.num_trees;
  f["max_depth"] = spec.max_depth;
  f["branch_prob"] = spec.branch_prob;
  f["num_features"] = spec.num_features;
  f["num_classes"] = spec.num_classes;
  f["seed"] = spec.seed;
  return f;
}

RandomForestSpec forest_from_json(const json::Value& f) {
  RandomForestSpec spec;
  spec.num_trees = static_cast<int>(f.get("num_trees").as_number());
  spec.max_depth = static_cast<int>(f.get("max_depth").as_number());
  spec.branch_prob = f.get("branch_prob").as_number();
  spec.num_features = static_cast<int>(f.get("num_features").as_number());
  spec.num_classes = static_cast<int>(f.get("num_classes").as_number());
  spec.seed = static_cast<std::uint64_t>(f.get("seed").as_number());
  return spec;
}

using Values = std::vector<std::pair<std::string, double>>;

/// The modeled numbers of one simulated run, as raw doubles.
Values modeled_values(const RunReport& run, std::size_t rows) {
  Values v;
  v.emplace_back("ns_per_query", run.seconds * 1e9 / static_cast<double>(rows));
  if (run.gpu_timing) {
    const gpusim::Timing& t = *run.gpu_timing;
    v.insert(v.end(), {{"seconds", t.seconds},
                       {"cycles", t.cycles},
                       {"compute_cycles", t.compute_cycles},
                       {"dram_cycles", t.dram_cycles},
                       {"l2_cycles", t.l2_cycles},
                       {"atomic_cycles", t.atomic_cycles}});
  }
  if (run.gpu_counters) {
    const gpusim::Counters& c = *run.gpu_counters;
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"gld_requests", c.gld_requests},
        {"gst_requests", c.gst_requests},
        {"gld_transactions", c.gld_transactions},
        {"gst_transactions", c.gst_transactions},
        {"l1_hits", c.l1_hits},
        {"l2_hits", c.l2_hits},
        {"dram_transactions", c.dram_transactions},
        {"smem_loads", c.smem_loads},
        {"smem_stores", c.smem_stores},
        {"branches", c.branches},
        {"divergent_branches", c.divergent_branches},
        {"atomic_transactions", c.atomic_transactions},
        {"warp_instructions", c.warp_instructions}};
    for (const auto& [name, count] : counts) {
      v.emplace_back(name, static_cast<double>(count));
    }
  }
  if (run.fpga_report) {
    const fpgasim::FpgaReport& f = *run.fpga_report;
    v.insert(v.end(), {{"seconds", f.seconds},
                       {"pipeline_cycles", f.pipeline_cycles},
                       {"total_cycles", f.total_cycles},
                       {"stall_pct", f.stall_pct}});
  }
  return v;
}

}  // namespace

Backend backend_from_name(const std::string& name) {
  if (name == "cpu" || name == "cpu-native") return Backend::CpuNative;
  if (name == "gpu-sim") return Backend::GpuSim;
  if (name == "fpga-sim") return Backend::FpgaSim;
  throw ConfigError("unknown backend '" + name + "' (cpu|gpu-sim|fpga-sim)");
}

Variant variant_from_name(const std::string& name) {
  if (name == "csr") return Variant::Csr;
  if (name == "independent") return Variant::Independent;
  if (name == "collaborative") return Variant::Collaborative;
  if (name == "hybrid") return Variant::Hybrid;
  if (name == "fil" || name == "fil-baseline") return Variant::FilBaseline;
  throw ConfigError("unknown variant '" + name +
                    "' (csr|independent|collaborative|hybrid|fil)");
}

const char* to_string(Unit unit) { return unit == Unit::Modeled ? "modeled" : "wall"; }

BenchCase& BenchCase::set(const std::string& name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return *this;
    }
  }
  values.emplace_back(name, value);
  return *this;
}

const double* BenchCase::find(const std::string& name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return &v;
  }
  return nullptr;
}

double BenchCase::value(const std::string& name) const {
  const double* v = find(name);
  if (v == nullptr) throw Error("bench case '" + key + "' has no value '" + name + "'");
  return *v;
}

const BenchCase* BenchReport::find(const std::string& key) const {
  for (const BenchCase& c : cases) {
    if (c.key == key) return &c;
  }
  return nullptr;
}

EnvFingerprint EnvFingerprint::capture() {
  EnvFingerprint env;
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0) env.hostname = host;
#if defined(__VERSION__)
  env.compiler = __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(NDEBUG)
  env.build = "release";
#else
  env.build = "debug";
#endif
  env.omp_max_threads = omp_get_max_threads();
  char stamp[32] = {};
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
  env.timestamp_utc = stamp;
  return env;
}

BenchReport run_sweep(const SweepOptions& options) {
  require(options.warmup_runs >= 0, "warmup_runs must be >= 0");
  require(options.repeat_runs >= 1, "repeat_runs must be >= 1");
  require(!options.batch_sizes.empty(), "batch_sizes must not be empty");

  BenchReport report;
  report.env = EnvFingerprint::capture();
  report.warmup_runs = options.warmup_runs;
  report.repeat_runs = options.repeat_runs;
  report.forest = options.forest;
  report.layout = options.layout;
  report.query_seed = options.query_seed;

  const Forest forest = make_random_forest(options.forest);
  std::size_t max_batch = 0;
  for (const std::size_t b : options.batch_sizes) {
    require(b >= 1, "batch sizes must be >= 1");
    max_batch = std::max(max_batch, b);
  }
  const Dataset queries =
      make_random_queries(max_batch, options.forest.num_features, options.query_seed);

  for (const Variant variant : options.variants) {
    for (const Backend backend : options.backends) {
      if (!valid_combo(variant, backend)) continue;
      ClassifierOptions copt;
      copt.variant = variant;
      copt.backend = backend;
      copt.layout = options.layout;
      const Classifier clf(forest, copt);
      for (const std::size_t batch : options.batch_sizes) {
        const Dataset q = head(queries, batch);
        for (int w = 0; w < options.warmup_runs; ++w) (void)clf.classify(q);

        BenchCase c;
        c.key = std::string(to_string(variant)) + "/" + to_string(backend) + "/" +
                std::to_string(batch);
        // Per-query ns of each repeat: the backend's own seconds for
        // cpu-native (wall clock), the host's wall clock around the call
        // for the simulated backends.
        std::vector<double> ns;
        Values modeled;
        bool simulated = false;
        for (int r = 0; r < options.repeat_runs; ++r) {
          WallTimer wall;
          const RunReport run = clf.classify(q);
          const double host_seconds = wall.seconds();
          simulated = run.simulated;
          ns.push_back((simulated ? host_seconds : run.seconds) * 1e9 /
                       static_cast<double>(batch));
          if (!simulated) continue;
          Values v = modeled_values(run, batch);
          if (r == 0) {
            modeled = std::move(v);
          } else if (v != modeled) {
            throw Error("bench case " + c.key + ": repeat " + std::to_string(r) +
                        " changed a modeled value; the simulated backend is not deterministic");
          }
        }
        if (simulated) {
          c.unit = Unit::Modeled;
          c.values = std::move(modeled);
          c.set(kHostNsPerQuery, percentile(ns, 50.0));
        } else {
          c.unit = Unit::Wall;
          const double p50 = percentile(ns, 50.0);
          double sum = 0.0;
          for (const double x : ns) sum += x;
          c.set("p50_ns", p50)
              .set("p95_ns", percentile(ns, 95.0))
              .set("p99_ns", percentile(ns, 99.0))
              .set("max_ns", *std::max_element(ns.begin(), ns.end()))
              .set("mean_ns", sum / static_cast<double>(ns.size()))
              .set("qps", p50 > 0.0 ? 1e9 / p50 : 0.0);
        }
        report.cases.push_back(std::move(c));
      }
    }
  }
  return report;
}

double LoopStats::p95_ns() const { return percentile(latencies_ns, 95.0); }

double LoopStats::qps() const {
  return seconds > 0.0 ? static_cast<double>(latencies_ns.size()) / seconds : 0.0;
}

void LoopStats::require_all_served(const std::string& key) const {
  if (failed == 0 && !latencies_ns.empty()) return;
  throw Error("bench case '" + key + "': " + std::to_string(failed) + " calls failed and " +
              std::to_string(latencies_ns.size()) +
              " returned; a p95 of the returned calls alone would hide the failures");
}

LoopStats closed_loop(std::size_t clients, const std::function<bool(std::size_t)>& more,
                      const std::function<void(std::size_t client, std::size_t i)>& call) {
  require(clients >= 1, "closed loop needs at least one client");
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::vector<std::size_t>> requests(clients);
  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (!more(i)) return;
        WallTimer t;
        try {
          call(c, i);
          latencies[c].push_back(t.seconds() * 1e9);
          requests[c].push_back(i);
        } catch (const Error&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoopStats stats;
  stats.seconds = wall.seconds();
  stats.failed = failed.load();
  for (std::size_t c = 0; c < clients; ++c) {
    stats.latencies_ns.insert(stats.latencies_ns.end(), latencies[c].begin(), latencies[c].end());
    stats.requests.insert(stats.requests.end(), requests[c].begin(), requests[c].end());
  }
  return stats;
}

namespace {

/// One arm of an A/B ratio case.
struct AbArm {
  serve::ServerOptions server;
  /// When set, the arm wires a FlightRecorder into its server and runs an
  /// obs::Monitor with these options. It then keeps serving until the
  /// monitor has ticked at least twice (one full window), and both arms
  /// serve for at least two monitor intervals.
  std::optional<obs::MonitorOptions> monitor;
};

struct AbOptions {
  std::string key;  // the case key, for errors
  AbArm off;
  AbArm on;
  std::size_t requests = 200;  // timed requests per arm per run
  /// Rows per request: 1024 makes one request ~1 ms of real work, so a
  /// cost of a few microseconds shows above the host's scheduler jitter
  /// (~10 us tail) rather than inside it.
  std::size_t rows = 1024;
  RandomForestSpec forest{.num_trees = 20, .max_depth = 10, .num_features = 16};
  std::uint64_t query_seed = 42;
};

/// The run whose on/off p95 ratio is the median of 5.
struct AbResult {
  double p95_off_ns = 0.0;
  double p95_on_ns = 0.0;
  /// Fewest windows any monitored run recorded (0 without a monitor).
  std::uint64_t monitor_windows = 0;

  double ratio() const { return p95_off_ns > 0.0 ? p95_on_ns / p95_off_ns : 0.0; }
};

/// Serves both arms side by side: one closed-loop client sends request i
/// to arm i % 2, so the arms alternate and never overlap. Host noise on a
/// shared guest comes in stretches of seconds that can swamp a whole
/// 0.5 s run; side by side both arms sample the same stretches, so a
/// run's p95 ratio is a paired measurement of the "on" configuration's
/// per-request cost. What it cannot see: background threads of the "on"
/// arm (its monitor, its integrity scrubber) load the host under both
/// arms alike, so their CPU cost cancels out of the ratio.
AbResult measure_ab(const AbOptions& options) {
  require(options.requests >= 1, "A/B case needs at least one request");
  require(options.rows >= 1, "A/B case rows must be >= 1");

  const Forest forest = make_random_forest(options.forest);
  const Dataset queries =
      make_random_queries(options.rows, options.forest.num_features, options.query_seed);
  ClassifierOptions copt;
  copt.variant = Variant::Independent;
  copt.backend = Backend::CpuNative;
  // A monitored arm must see two ticks; both arms serve that long.
  double min_seconds = 0.0;
  for (const AbArm* arm : {&options.off, &options.on}) {
    if (arm->monitor) min_seconds = std::max(min_seconds, 2.0 * arm->monitor->interval_seconds);
  }

  // A live arm: a fresh, warmed-up server, with a flight recorder and a
  // monitor when the arm asks for them. Members are destroyed in reverse,
  // so the monitor stops before the server it samples goes away.
  struct Live {
    obs::FlightRecorder recorder{512};
    std::optional<serve::ForestServer> server;
    std::optional<obs::Monitor> monitor;
  };
  std::optional<std::uint64_t> windows;  // fewest over the monitored runs
  const AbArm* arms[2] = {&options.off, &options.on};
  std::vector<AbResult> runs(5);
  for (AbResult& out : runs) {
    std::array<Live, 2> live;
    for (std::size_t k = 0; k < 2; ++k) {
      serve::ServerOptions sopt = arms[k]->server;
      if (arms[k]->monitor) sopt.flight_recorder = &live[k].recorder;
      live[k].server.emplace(forest, copt, sopt);
      for (std::size_t r = 0; r < options.requests / 4; ++r) {
        (void)live[k].server->submit(queries).get();  // warmup: page-in, pool spin-up
      }
    }
    for (std::size_t k = 0; k < 2; ++k) {
      if (!arms[k]->monitor) continue;
      serve::ForestServer& server = *live[k].server;
      live[k].monitor.emplace(*arms[k]->monitor, [&server] { return server.metrics_snapshot(); },
                              &live[k].recorder);
    }
    WallTimer wall;
    const LoopStats stats = closed_loop(
        1,
        [&](std::size_t i) {
          if (i < options.requests * 2 || wall.seconds() < min_seconds) return true;
          // Two ticks record the first window.
          return std::any_of(live.begin(), live.end(), [](const Live& l) {
            return l.monitor && l.monitor->windows_recorded() < 1;
          });
        },
        [&](std::size_t, std::size_t i) { (void)live[i % 2].server->submit(queries).get(); });
    for (Live& l : live) {
      if (l.monitor) {
        l.monitor->stop();
        windows = std::min(windows.value_or(std::numeric_limits<std::uint64_t>::max()),
                           l.monitor->windows_recorded());
      }
      l.server->shutdown();
    }
    // No failures means each arm answered all of its `requests`.
    stats.require_all_served(options.key);
    std::vector<double> arm_ns[2];
    for (std::size_t j = 0; j < stats.latencies_ns.size(); ++j) {
      arm_ns[stats.requests[j] % 2].push_back(stats.latencies_ns[j]);
    }
    out.p95_off_ns = percentile(arm_ns[0], 95.0);
    out.p95_on_ns = percentile(arm_ns[1], 95.0);
  }
  // The median run discards the runs whose tails a burst of host noise
  // happened to land on one arm more than the other.
  std::sort(runs.begin(), runs.end(),
            [](const AbResult& a, const AbResult& b) { return a.ratio() < b.ratio(); });
  AbResult result = runs[runs.size() / 2];
  result.monitor_windows = windows.value_or(0);
  return result;
}

/// The batch case: micro-batching off vs on, gpu-sim/hybrid, 32 clients
/// of 4-row requests. Its arms compare throughput, so each runs alone:
/// alternating requests between two servers would hand both arms the same
/// completions per second by construction. Each arm keeps its best of 5
/// runs: wall-clock latency on a shared host spikes upward only, so the
/// lowest p95 and the highest qps converge on the arm's true cost.
BenchCase measure_batch(std::uint64_t query_seed) {
  constexpr std::size_t kClients = 32;
  constexpr std::size_t kRequests = kClients * 10;
  const RandomForestSpec spec{.num_trees = 20, .max_depth = 10, .num_features = 16};
  const Forest forest = make_random_forest(spec);
  const Dataset queries = make_random_queries(4, spec.num_features, query_seed);
  // The paper's amortization case: hybrid on the simulated GPU, where
  // every classify pays the same stage-1 root-subtree staging whether it
  // carries 4 rows or a full warp's worth — the per-dispatch fixed cost
  // micro-batching exists to share.
  ClassifierOptions copt;
  copt.variant = Variant::Hybrid;
  copt.backend = Backend::GpuSim;
  copt.layout.subtree_depth = 4;
  serve::ServerOptions arms[2];
  arms[0].num_workers = 2;
  arms[0].queue_capacity = kClients * 2;
  arms[0].default_deadline_seconds = 30.0;
  arms[1] = arms[0];
  arms[1].batching.max_requests = 16;
  arms[1].batching.max_wait_seconds = 500e-6;

  double p95_ns[2] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
  double qps[2] = {0.0, 0.0};
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t k = 0; k < 2; ++k) {
      serve::ForestServer server(forest, copt, arms[k]);
      for (std::size_t r = 0; r < kRequests / 4; ++r) (void)server.submit(queries).get();
      const LoopStats stats = closed_loop(
          kClients, [](std::size_t i) { return i < kRequests; },
          [&](std::size_t, std::size_t) { (void)server.submit(queries).get(); });
      server.shutdown();
      stats.require_all_served("batch");
      p95_ns[k] = std::min(p95_ns[k], stats.p95_ns());
      qps[k] = std::max(qps[k], stats.qps());
    }
  }
  BenchCase c;
  c.key = "batch";
  c.set("p95_ns", p95_ns[1])
      .set("p95_unbatched_ns", p95_ns[0])
      .set("qps", qps[1])
      .set("qps_unbatched", qps[0])
      .set("speedup", qps[0] > 0.0 ? qps[1] / qps[0] : 0.0);
  return c;
}

}  // namespace

BenchCase run_ab_case(AbCase which, std::size_t requests, std::uint64_t query_seed) {
  if (which == AbCase::Batch) return measure_batch(query_seed);
  AbOptions opt;
  opt.requests = requests;
  opt.query_seed = query_seed;
  // One worker per arm: with two, each request lands on either worker's
  // OpenMP team, and on a 4-vCPU guest that choice alone widened the
  // 5-95% range of per-run p95 ratios from 0.80-1.17 to 0.79-1.40.
  opt.off.server.num_workers = 1;
  opt.off.server.queue_capacity = 8;
  opt.off.server.default_deadline_seconds = 30.0;
  opt.on = opt.off;
  switch (which) {
    case AbCase::Trace:
      // Both arms take the chunked (deadline) path, which a 30 s deadline
      // never cuts short, so the sampling rate is the only variable.
      opt.key = "trace";
      opt.off.server.trace_capacity = opt.on.server.trace_capacity = 64;
      opt.on.server.trace_sampling = 1.0;
      break;
    case AbCase::Audit:
      // At 1/32 the audited tail sits above the 95th percentile, so the
      // gate measures the per-request cost of the sampling machinery, not
      // the oracle pass itself.
      opt.key = "audit";
      opt.on.server.integrity.audit_sample_every = 32;
      break;
    case AbCase::Obs: {
      // The full production observability configuration at its default
      // cadence: recorder wired into the server, windowed sampling and an
      // armed SLO engine, no incident dir.
      opt.key = "obs";
      obs::MonitorOptions mopt;
      mopt.slo_enabled = true;
      opt.on.monitor = mopt;
      break;
    }
    case AbCase::Batch:
      break;
  }
  const AbResult r = measure_ab(opt);
  BenchCase c;
  c.key = opt.key;
  c.set("p95_off_ns", r.p95_off_ns)
      .set("p95_on_ns", r.p95_on_ns)
      .set("ratio", r.ratio());
  if (which == AbCase::Obs) c.set("monitor_windows", static_cast<double>(r.monitor_windows));
  return c;
}

BenchCase measure_cluster(const ClusterBenchOptions& options) {
  require(options.shards >= 1, "cluster bench needs at least one shard");
  require(options.requests >= 1, "cluster bench needs at least one request");
  require(options.batch >= 1, "cluster bench batch must be >= 1");
  require(options.workers_per_shard >= 1, "cluster bench needs >= 1 worker per shard");

  const Forest forest = make_random_forest(options.forest);
  const Dataset queries =
      make_random_queries(options.batch, options.forest.num_features, options.query_seed);

  ClassifierOptions copt;
  copt.variant = Variant::Independent;
  copt.backend = Backend::CpuNative;
  serve::ServerOptions sopt;
  sopt.num_workers = options.workers_per_shard;
  sopt.queue_capacity = std::max<std::size_t>(8, options.clients * 2);
  sopt.default_deadline_seconds = 30.0;
  cluster::ClusterOptions clopt;
  clopt.num_shards = options.shards;
  // Probes off: the healthy-fleet benchmark measures routing + serving,
  // not background health traffic.
  clopt.start_probes = false;
  cluster::ClusterRouter router(forest, copt, sopt, clopt);

  const auto query = [&](std::uint64_t key) {
    cluster::QueryOptions qopt;
    qopt.key = key;
    (void)router.query(queries, qopt);
  };
  // Warmup: touch every shard once (keys walk the ring).
  for (std::size_t s = 0; s < options.shards; ++s) query(s);

  // Best of 5 runs, for the reason the A/B arms keep theirs: wall-clock
  // latency on a shared host spikes upward only.
  double p95_ns = std::numeric_limits<double>::infinity();
  double qps = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const LoopStats stats = closed_loop(
        options.clients, [&](std::size_t i) { return i < options.requests; },
        [&](std::size_t c, std::size_t i) { query(c * 1000003ULL + i); });
    stats.require_all_served("cluster");
    p95_ns = std::min(p95_ns, stats.p95_ns());
    qps = std::max(qps, stats.qps());
  }
  router.shutdown();

  BenchCase c;
  c.key = "cluster";
  c.set("p95_ns", p95_ns).set("qps", qps);
  return c;
}

BenchCase measure_noisy_neighbor(const NoisyNeighborOptions& options) {
  require(options.shards >= 1, "noisy bench needs at least one shard");
  require(options.requests >= 1, "noisy bench needs at least one victim request");
  require(options.surge_clients >= 1, "noisy bench needs at least one surge client");
  require(options.batch >= 1, "noisy bench batch must be >= 1");
  require(options.workers_per_shard >= 1, "noisy bench needs >= 1 worker per shard");
  require(options.queue_capacity >= 2, "noisy bench queue must hold both tenants");
  require(options.surge_stall_seconds >= 0.0, "surge stall must be >= 0");

  const Forest forest = make_random_forest(options.forest);
  const Dataset queries =
      make_random_queries(options.batch, options.forest.num_features, options.query_seed);

  ClassifierOptions copt;
  copt.variant = Variant::Independent;
  copt.backend = Backend::CpuNative;
  serve::ServerOptions sopt;
  sopt.num_workers = options.workers_per_shard;
  sopt.queue_capacity = options.queue_capacity;
  sopt.default_deadline_seconds = 30.0;
  sopt.quotas.tenants = {{"victim", options.victim_weight},
                         {"surger", options.surger_weight}};
  sopt.surge_tenant = "surger";
  sopt.inject_surge_seconds = options.surge_stall_seconds;
  cluster::ClusterOptions clopt;
  clopt.num_shards = options.shards;
  clopt.start_probes = false;
  cluster::ClusterRouter router(forest, copt, sopt, clopt);

  const auto query = [&](std::uint64_t key, const char* tenant) {
    cluster::QueryOptions qopt;
    qopt.key = key;
    qopt.tenant = tenant;
    (void)router.query(queries, qopt);
  };
  for (std::size_t s = 0; s < options.shards; ++s) query(s, "victim");

  // The surge is background load for the whole victim measurement, not a
  // measured client: spinning threads whose admitted requests stall a
  // worker (surge:tenant fault site).
  FaultInjector::global().arm("surge:tenant", -1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> surge_key{1'000'000};
  std::vector<std::thread> surgers;
  surgers.reserve(options.surge_clients);
  for (std::size_t c = 0; c < options.surge_clients; ++c) {
    surgers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          query(surge_key.fetch_add(1, std::memory_order_relaxed), "surger");
        } catch (const QuotaError&) {
          shed.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        } catch (const Error&) {
          // Deadline/overload spillover is the victims' concern, not ours.
        }
      }
    });
  }

  // Best of 5 victim runs under the one surge, as for the cluster case;
  // success counts every victim call of every run.
  double p95_ns = std::numeric_limits<double>::infinity();
  double qps = 0.0;
  double ok = 0.0;
  double attempts = 0.0;
  std::size_t fewest_served = std::numeric_limits<std::size_t>::max();
  for (int rep = 0; rep < 5; ++rep) {
    const LoopStats stats = closed_loop(
        options.clients, [&](std::size_t i) { return i < options.requests; },
        [&](std::size_t c, std::size_t i) { query(c * 1000003ULL + i, "victim"); });
    p95_ns = std::min(p95_ns, stats.p95_ns());
    qps = std::max(qps, stats.qps());
    ok += static_cast<double>(stats.latencies_ns.size());
    attempts += static_cast<double>(stats.latencies_ns.size() + stats.failed);
    fewest_served = std::min(fewest_served, stats.latencies_ns.size());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : surgers) t.join();
  FaultInjector::global().disarm("surge:tenant");
  router.shutdown();
  // Victim failures are part of what this case measures (`success`), but
  // a run in which none returned has no p95 to keep.
  if (fewest_served == 0) throw Error("bench case 'noisy': a run returned no victim call");

  BenchCase c;
  c.key = "noisy";
  c.set("p95_ns", p95_ns)
      .set("success", ok / attempts)
      .set("surger_shed", static_cast<double>(shed.load()))
      .set("qps", qps);
  return c;
}

json::Value to_json(const BenchReport& report) {
  json::Value root = json::Value::object();
  root["schema"] = kSchemaName;
  root["schema_version"] = report.schema_version;

  json::Value env = json::Value::object();
  env["hostname"] = report.env.hostname;
  env["compiler"] = report.env.compiler;
  env["build"] = report.env.build;
  env["omp_max_threads"] = report.env.omp_max_threads;
  env["timestamp_utc"] = report.env.timestamp_utc;
  root["env"] = std::move(env);

  json::Value policy = json::Value::object();
  policy["warmup_runs"] = report.warmup_runs;
  policy["repeat_runs"] = report.repeat_runs;
  policy["query_seed"] = report.query_seed;
  root["policy"] = std::move(policy);
  root["forest"] = forest_to_json(report.forest);
  json::Value layout = json::Value::object();
  layout["subtree_depth"] = report.layout.subtree_depth;
  layout["root_subtree_depth"] = report.layout.root_subtree_depth;
  root["layout"] = std::move(layout);

  json::Value cases = json::Value::array();
  for (const BenchCase& c : report.cases) {
    json::Value jc = json::Value::object();
    jc["key"] = c.key;
    jc["unit"] = to_string(c.unit);
    json::Value values = json::Value::object();
    for (const auto& [name, value] : c.values) values[name] = value;
    jc["values"] = std::move(values);
    cases.push_back(std::move(jc));
  }
  root["cases"] = std::move(cases);
  return root;
}

BenchReport report_from_json(const json::Value& v) {
  const std::string schema = v.get("schema").as_string();
  if (schema != kSchemaName) {
    throw FormatError("not an hrf-bench report (schema '" + schema + "')");
  }
  const int version = static_cast<int>(v.get("schema_version").as_number());
  if (version != kSchemaVersion) {
    throw FormatError("bench schema version " + std::to_string(version) +
                      " != supported " + std::to_string(kSchemaVersion) +
                      "; regenerate the baseline");
  }

  BenchReport report;
  report.schema_version = version;
  const json::Value& env = v.get("env");
  report.env.hostname = env.get("hostname").as_string();
  report.env.compiler = env.get("compiler").as_string();
  report.env.build = env.get("build").as_string();
  report.env.omp_max_threads = static_cast<int>(env.get("omp_max_threads").as_number());
  report.env.timestamp_utc = env.get("timestamp_utc").as_string();

  const json::Value& policy = v.get("policy");
  report.warmup_runs = static_cast<int>(policy.get("warmup_runs").as_number());
  report.repeat_runs = static_cast<int>(policy.get("repeat_runs").as_number());
  report.query_seed = static_cast<std::uint64_t>(policy.get("query_seed").as_number());
  report.forest = forest_from_json(v.get("forest"));
  const json::Value& layout = v.get("layout");
  report.layout.subtree_depth = static_cast<int>(layout.get("subtree_depth").as_number());
  report.layout.root_subtree_depth =
      static_cast<int>(layout.get("root_subtree_depth").as_number());

  const json::Value& cases = v.get("cases");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const json::Value& jc = cases.at(i);
    BenchCase c;
    c.key = jc.get("key").as_string();
    const std::string unit = jc.get("unit").as_string();
    if (unit != "modeled" && unit != "wall") {
      throw FormatError("bench case '" + c.key + "' has unknown unit '" + unit + "'");
    }
    c.unit = unit == "modeled" ? Unit::Modeled : Unit::Wall;
    for (const auto& [name, value] : jc.get("values").members()) {
      c.values.emplace_back(name, value.as_number());
    }
    report.cases.push_back(std::move(c));
  }
  return report;
}

void save_report(const BenchReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << to_json(report).dump(2) << "\n";
  if (!out) throw Error("failed writing '" + path + "'");
}

BenchReport load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return report_from_json(json::Value::parse(buf.str()));
}

CompareResult compare_reports(const BenchReport& baseline, const BenchReport& current,
                              double tolerance, double trace_tolerance) {
  require(tolerance >= 0.0, "tolerance must be >= 0");
  require(trace_tolerance >= 0.0, "trace_tolerance must be >= 0");
  constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();
  char rule[64];
  CompareResult result;
  for (const BenchCase& base : baseline.cases) {
    const BenchCase* cur = current.find(base.key);
    if (cur == nullptr) {
      result.missing_cases.push_back(base.key);
      continue;
    }
    ++result.compared;
    if (cur->unit != base.unit) {
      result.regressions.push_back({base.key, "unit", kAbsent, kAbsent,
                                    std::string("unit changed from ") + to_string(base.unit)});
      continue;
    }
    switch (base.unit) {
      case Unit::Modeled:
        for (const auto& [name, value] : base.values) {
          if (name == kHostNsPerQuery) continue;
          const double* now = cur->find(name);
          if (now == nullptr || *now != value) {
            result.regressions.push_back({base.key, name, value, now ? *now : kAbsent,
                                          "modeled values must match exactly"});
          }
        }
        break;
      case Unit::Wall: {
        const double* base_p95 = base.find("p95_ns");
        const double* cur_p95 = cur->find("p95_ns");
        if (base_p95 != nullptr && *base_p95 > 0.0 &&
            (cur_p95 == nullptr || *cur_p95 > *base_p95 * (1.0 + tolerance))) {
          std::snprintf(rule, sizeof rule, "p95 <= %.2fx baseline", 1.0 + tolerance);
          result.regressions.push_back(
              {base.key, "p95_ns", *base_p95, cur_p95 ? *cur_p95 : kAbsent, rule});
        }
        break;
      }
    }
  }
  // A/B cases carry their own baseline (the "off" arm), so they are gated
  // whether or not the baseline report has them.
  for (const BenchCase& c : current.cases) {
    const double* ratio = c.find("ratio");
    if (c.unit == Unit::Wall && ratio != nullptr && *ratio > 1.0 + trace_tolerance) {
      std::snprintf(rule, sizeof rule, "on/off p95 ratio <= %.2f", 1.0 + trace_tolerance);
      result.regressions.push_back({c.key, "ratio", 1.0, *ratio, rule});
    }
  }
  return result;
}

}  // namespace hrf::bench
