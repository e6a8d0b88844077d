#pragma once

// Machine-readable benchmark harness + regression gate (docs/benchmarking.md).
//
// A BenchReport (BENCH_hrf.json) is an environment fingerprint plus a list
// of cases. Every case has a key, a unit and named values, and its unit
// decides how compare_reports() gates it:
//
//  * modeled — gpu-sim/fpga-sim device time and counters. They are pure
//    functions of (forest, layout, queries), so every value must equal the
//    baseline's exactly; an improvement fails too, and a changed model
//    lands with a regenerated baseline. The one exception is
//    `host_ns_per_query`, the simulator's own wall time, which is reported
//    and never gated.
//  * wall — host wall clock. A case carrying `ratio` is an A/B case whose
//    two arms ran interleaved in one process; it fails when the ratio
//    exceeds 1 + trace_tolerance. A case carrying `p95_ns` fails when its
//    p95 exceeds baseline * (1 + tolerance).
//
// `hrf_cli --mode bench --compare old.json` turns a failed gate into a
// nonzero exit code.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/json.hpp"

namespace hrf::bench {

/// Current BENCH_hrf.json schema version. Bump on any field change;
/// report_from_json() refuses every other version.
inline constexpr int kSchemaVersion = 2;
inline constexpr const char* kSchemaName = "hrf-bench";

/// The wall-time value a modeled case reports but never gates.
inline constexpr const char* kHostNsPerQuery = "host_ns_per_query";

/// Name <-> enum mapping shared by the CLI and the JSON report.
/// Accepts the canonical to_string() names plus the CLI's short aliases
/// ("cpu", "fil"); throws ConfigError on anything else.
Backend backend_from_name(const std::string& name);
Variant variant_from_name(const std::string& name);

enum class Unit { Modeled, Wall };
const char* to_string(Unit unit);

/// One measured case: a key, a unit and named values in insertion order.
struct BenchCase {
  std::string key;
  Unit unit = Unit::Wall;
  std::vector<std::pair<std::string, double>> values;

  /// Sets `name` (appended when new).
  BenchCase& set(const std::string& name, double value);
  /// nullptr when the case has no value `name`.
  const double* find(const std::string& name) const;
  /// Throws Error when the case has no value `name`.
  double value(const std::string& name) const;
};

struct SweepOptions {
  std::vector<Variant> variants{Variant::Csr, Variant::Independent, Variant::Collaborative,
                                Variant::Hybrid};
  std::vector<Backend> backends{Backend::CpuNative, Backend::GpuSim, Backend::FpgaSim};
  std::vector<std::size_t> batch_sizes{64, 256};
  /// Untimed runs per case before measurement (page-in, cache warmup).
  int warmup_runs = 1;
  /// Timed runs per case; percentiles are taken over these.
  int repeat_runs = 5;
  /// Synthetic workload: a random forest topology + uniform queries.
  RandomForestSpec forest{.num_trees = 20, .max_depth = 10, .num_features = 16};
  HierConfig layout{};
  std::uint64_t query_seed = 42;
};

/// Where the numbers came from — enough to spot an apples-to-oranges
/// comparison (different host, compiler, or thread count) in review.
struct EnvFingerprint {
  std::string hostname;
  std::string compiler;
  std::string build;  // "release" / "debug" (NDEBUG at harness build time)
  int omp_max_threads = 0;
  std::string timestamp_utc;  // ISO-8601, informational only

  static EnvFingerprint capture();
};

struct BenchReport {
  int schema_version = kSchemaVersion;
  EnvFingerprint env;
  int warmup_runs = 0;
  int repeat_runs = 0;
  RandomForestSpec forest;
  HierConfig layout;
  std::uint64_t query_seed = 0;
  std::vector<BenchCase> cases;

  /// nullptr when the report has no case `key`.
  const BenchCase* find(const std::string& key) const;
};

/// Runs the sweep, skipping invalid combinations (collaborative/hybrid
/// on cpu-native model on-chip memory and do not exist there). Case keys
/// are `variant/backend/batch`.
///  * gpu-sim and fpga-sim cases are modeled: `ns_per_query`, plus the
///    gpusim::Timing doubles and every gpusim::Counters field (gpu-sim) or
///    the FpgaReport seconds, cycle counts and stall_pct (fpga-sim), all
///    as raw doubles; and `host_ns_per_query`, the median wall time across
///    repeats. Throws Error when two repeats disagree on a modeled value.
///  * cpu-native cases are wall: p50/p95/p99/max/mean ns per query over
///    the repeats (`p50_ns`...) and `qps` = 1e9 / p50.
BenchReport run_sweep(const SweepOptions& options);

/// Wall-clock record of one closed-loop run.
struct LoopStats {
  std::vector<double> latencies_ns;   // one per call that returned
  std::vector<std::size_t> requests;  // the request index i of each latency
  std::uint64_t failed = 0;           // calls that threw hrf::Error
  double seconds = 0.0;               // wall time of the whole run

  double p95_ns() const;
  double qps() const;  // returned calls per wall second
  /// Throws Error naming case `key` when a call failed or none returned.
  /// A failed call leaves no latency, so the p95 of the rest (0 of none)
  /// would read a broken serve path as a fast one.
  void require_all_served(const std::string& key) const;
};

/// Closed-loop client load: `clients` threads take request indices 0, 1,
/// 2, ... from one shared counter while `more(i)` holds, and time each
/// `call(client, i)` at the call boundary.
LoopStats closed_loop(std::size_t clients, const std::function<bool(std::size_t)>& more,
                      const std::function<void(std::size_t client, std::size_t i)>& call);

/// The A/B cases serve the same load through two server configurations
/// ("arms"), each on a fresh ForestServer per run behind closed_loop()
/// clients, and throw when any timed call fails. Each case is recorded
/// under its key:
///  * "trace" — trace sampling 0.0 vs 1.0 on the chunked serve path;
///  * "audit" — shadow audits off vs every 32nd request;
///  * "obs"   — bare vs flight recorder + monitor + SLO engine at 250 ms,
///    both arms serving until the monitor has ticked twice;
///  * "batch" — micro-batching off vs on, gpu-sim/hybrid, 32 clients of
///    4-row requests, 10 requests per client.
/// trace, audit and obs are ratio cases: one client alternates `requests`
/// timed requests per arm between the two servers (one worker each), 5
/// runs, and the case records the run whose on/off p95 ratio is the
/// median: `p95_off_ns`, `p95_on_ns` and the gated `ratio` (obs also
/// `monitor_windows`). Both arms share the host, so the ratio reads the
/// per-request cost of the "on" arm; the CPU its background threads (the
/// obs monitor, the integrity scrubber) take from the host loads both
/// arms alike and cancels out. batch compares throughput, so each arm
/// runs alone and keeps its best of 5 runs: its batched `p95_ns` (gated
/// against the baseline), `p95_unbatched_ns`, `qps`, `qps_unbatched` and
/// `speedup`.
enum class AbCase { Trace, Audit, Obs, Batch };
BenchCase run_ab_case(AbCase which, std::size_t requests, std::uint64_t query_seed);

/// Cluster serving case (docs/cluster.md), key "cluster": a ClusterRouter
/// fronting `shards` healthy ForestServer shards absorbs `requests`
/// routed requests from `clients` closed-loop clients, 5 times; records
/// the best run's client-observed `p95_ns` and `qps`. Throws when any
/// routed call fails.
struct ClusterBenchOptions {
  std::size_t shards = 4;
  std::size_t requests = 120;  // total across all clients
  std::size_t clients = 4;
  std::size_t batch = 256;
  std::size_t workers_per_shard = 1;
  RandomForestSpec forest{.num_trees = 20, .max_depth = 10, .num_features = 16};
  std::uint64_t query_seed = 42;
};

BenchCase measure_cluster(const ClusterBenchOptions& options);

/// Noisy-neighbor case (docs/cluster.md), key "noisy": a fleet with
/// per-tenant admission quotas serves a "victim" tenant while a "surger"
/// tenant floods it from spinning clients, each admitted surge request
/// stalling a worker for `surge_stall_seconds` (the surge:tenant fault
/// site). The victims run 5 times under one surge. Records the best
/// run's victim `p95_ns` and `qps`, `success` over every victim call, and
/// `surger_shed`, the surge requests refused by QuotaError. Victim
/// failures only lower `success`; a run with no victim call returned
/// throws.
struct NoisyNeighborOptions {
  std::size_t shards = 4;
  std::size_t requests = 120;  // victim requests, total across clients
  std::size_t clients = 2;     // victim client threads
  std::size_t surge_clients = 8;
  std::size_t batch = 256;
  std::size_t workers_per_shard = 2;
  /// Small on purpose: quotas meter queue slots, so shedding only bites
  /// when the queue is scarce relative to the surge.
  std::size_t queue_capacity = 5;
  /// 4:1 over capacity 5 reserves the whole queue (4 victim + 1 surger
  /// slots, empty spare pool), so the surger has exactly one queued
  /// request per shard and everything past it is shed at admission.
  double victim_weight = 4.0;
  double surger_weight = 1.0;
  /// Worker stall per admitted surge request (makes the surge heavy as
  /// well as frequent, like the chaos scenario it mirrors). Long enough
  /// that admitted surge requests pile the queue up behind the stalled
  /// workers — that is what forces admission, not deadlines, to shed.
  double surge_stall_seconds = 0.001;
  RandomForestSpec forest{.num_trees = 20, .max_depth = 10, .num_features = 16};
  std::uint64_t query_seed = 42;
};

BenchCase measure_noisy_neighbor(const NoisyNeighborOptions& options);

json::Value to_json(const BenchReport& report);
/// Throws FormatError on schema name/version mismatch or missing fields.
BenchReport report_from_json(const json::Value& v);

void save_report(const BenchReport& report, const std::string& path);
BenchReport load_report(const std::string& path);

/// One failed gate.
struct Regression {
  std::string key;
  std::string value;      // the gated value's name
  double baseline = 0.0;  // the baseline's value (1.0 for an A/B ratio)
  double current = 0.0;   // NaN when the current case lacks the value
  std::string rule;       // the gate that failed, for the console
};

struct CompareResult {
  int compared = 0;                        // baseline cases present in current
  std::vector<Regression> regressions;     // failed gates
  std::vector<std::string> missing_cases;  // in baseline but not current

  bool passed() const { return regressions.empty() && missing_cases.empty(); }
};

/// Gates `current` against `baseline` by unit (see the top of this file).
/// tolerance 0.25 = fail on >25% p95 growth of a wall case; trace_tolerance
/// 0.05 = fail an A/B case whose on/off ratio exceeds 1.05. Cases only in
/// `current` are new coverage, not failures (their A/B ratio is still
/// gated); cases only in `baseline` are missing.
CompareResult compare_reports(const BenchReport& baseline, const BenchReport& current,
                              double tolerance, double trace_tolerance = 0.05);

}  // namespace hrf::bench
