#pragma once

// Unified telemetry export (docs/observability.md).
//
// One MetricsSnapshot gathers everything the serving layer knows at a
// point in time — counter registry, stage latency histograms, backend
// rollups, tracer summary — and the exporter renders it two ways from
// the same struct: Prometheus text exposition (for scrapers / file
// tailing) and a JSON document (for tooling and tests). A matching
// parser + schema checker guards against silent export drift
// (tools/check.sh metrics-schema step).

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/rollup.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace hrf::obs {

/// One shard's health row in a cluster-level snapshot. Plain ints and
/// doubles only: obs sits below serve in the layer graph, so the cluster
/// router flattens its per-shard state (breaker enum, atomics) into this
/// before export.
struct ShardHealth {
  std::uint64_t index = 0;
  bool up = true;            // shard not killed / shut down
  bool partitioned = false;  // router -> shard link administratively cut
  int breaker_state = 0;     // router-side breaker: 0 closed, 1 open, 2 half-open
  std::uint64_t queue_depth = 0;
  std::uint64_t generation = 0;  // shard's live model generation
  std::uint64_t routed = 0;      // requests the router dispatched to it
  std::uint64_t failures = 0;    // dispatch failures the router observed
  std::uint64_t repairs = 0;     // replicas quarantined + rebuilt (scrub.repairs)
  std::uint64_t worker_restarts = 0;  // watchdog thread replacements
};

/// One tenant's admission-quota row (serve/qos.hpp TenantCounters,
/// flattened here for the same layering reason as ShardHealth). Exported
/// as hrf_tenant_* families labeled {tenant="name"}.
struct TenantStat {
  std::string name;
  double weight = 0.0;         // 0 for unconfigured (spare-pool-only) tenants
  std::uint64_t reserved = 0;  // queue slots reserved for this tenant
  std::uint64_t queued = 0;    // slots currently held
  std::uint64_t admitted = 0;  // requests admitted, cumulative
  std::uint64_t shed = 0;      // quota rejections, cumulative
};

/// One SLO alert's exported state (docs/observability.md, "Time series,
/// SLOs, and incident bundles"). Plain data for the same layering reason
/// as ShardHealth: the obs::SloEngine produces these and whoever owns the
/// engine (obs::Monitor) folds them into the snapshot it exports.
struct SloAlertState {
  std::string objective;  // "success_rate" | "p95_latency"
  std::string scope;      // "server" | "shard:N" | "tenant:NAME"
  bool firing = false;
  double fast_burn = 0.0;  // burn rate over the fast (~1 min) window
  double slow_burn = 0.0;  // burn rate over the slow (~30 min) window
  std::uint64_t fired_total = 0;    // fire transitions, cumulative
  std::uint64_t cleared_total = 0;  // clear transitions, cumulative
};

/// Point-in-time view of every exported metric. Build one with
/// ForestServer::metrics_snapshot() / ClusterRouter::metrics_snapshot()
/// or assemble by hand in tests.
struct MetricsSnapshot {
  /// Monotonic counters (CounterRegistry names, e.g. "requests.completed").
  std::map<std::string, std::uint64_t> counters;
  /// Instantaneous values (e.g. "queue_depth", "model_generation").
  std::map<std::string, double> gauges;
  /// Stage name -> latency distribution ("queue_wait", "execute", ...).
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  /// Backend rollups keyed variant × backend × generation.
  std::vector<std::pair<RollupKey, BackendRollup>> rollups;
  /// Tracer statistics; `has_traces` false when no tracer is attached.
  trace::TracerSummary traces{};
  bool has_traces = false;
  /// Per-shard health rows; empty for a single server, one per shard in
  /// cluster snapshots (exported as hrf_shard_* families, {shard="i"}).
  std::vector<ShardHealth> shards;
  /// Per-tenant quota rows; empty unless tenant quotas are configured
  /// (exported as hrf_tenant_* families, {tenant="name"}).
  std::vector<TenantStat> tenants;
  /// Cumulative fault-injector fire counts by site (FaultInjector::
  /// fired_counts()); empty when no site was ever armed. Exported as
  /// hrf_fault_fired_total{site="kind:target"} so chaos runs are
  /// debuggable from the snapshot alone.
  std::map<std::string, std::uint64_t> fault_fired;
  /// SLO burn-rate alert states, one per (objective, scope) pair; empty
  /// unless an SloEngine is armed (exported as hrf_slo_* families labeled
  /// {objective,scope}, plus a row-count gauge whenever has_slo is set).
  std::vector<SloAlertState> slo;
  bool has_slo = false;
};

/// Build attribution (satellite of docs/observability.md): compiled-in
/// version/commit/compiler identity, exported as hrf_build_info{...} 1
/// and stamped into incident bundles so every artifact names its build.
struct BuildInfo {
  std::string version;   // project version (CMake)
  std::string commit;    // git short hash at configure time, or "unknown"
  std::string compiler;  // compiler id + version
};
const BuildInfo& build_info();

/// Seconds since process start (steady clock); exported as
/// hrf_uptime_seconds on every snapshot.
double uptime_seconds();

/// build_info() as a JSON object ({version, commit, compiler}); shared by
/// the metrics export and the incident-bundle writer.
json::Value build_info_json();

/// Sanitizes a registry name into a Prometheus metric name component:
/// '.', '-', and any other non-[a-zA-Z0-9_] become '_'.
std::string prometheus_name(const std::string& name);

/// Renders the snapshot as Prometheus text exposition format (# TYPE
/// lines, escaped labels, histogram `le` buckets in seconds with +Inf,
/// _sum/_count). Counters become `hrf_<name>_total`; rollup metrics are
/// labeled {variant=,backend=,generation=} and every rollup family is
/// emitted for every key (GPU metrics read 0 on FPGA-only keys and vice
/// versa) so the exposition schema does not depend on traffic mix.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Renders the snapshot as a JSON document (schema "hrf-metrics" v1):
/// counters/gauges objects, histograms with cumulative `le_ns` buckets,
/// rollups with derived ratios, tracer summary.
json::Value snapshot_to_json(const MetricsSnapshot& snapshot);

/// One parsed Prometheus sample: label set plus value.
struct PromSample {
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// One parsed metric family: declared type ("counter" | "gauge" |
/// "histogram" | "untyped") and its samples, keyed by the sample's full
/// metric name (so histogram `_bucket`/`_sum`/`_count` series live under
/// their own names, attached to the family by prefix).
struct PromFamily {
  std::string type = "untyped";
  std::vector<PromSample> samples;
};

/// Parses Prometheus text exposition into name -> family. Throws
/// FormatError (with line number) on malformed lines, bad label syntax,
/// or unparseable values.
std::map<std::string, PromFamily> parse_prometheus(const std::string& text);

/// The export block a catalogued family belongs to. Server families are
/// in every export; each other block's families are exported all together
/// or not at all: rollup families once traffic produced a (variant,
/// backend, generation) key, cluster families (router counters, fleet
/// gauges, per-shard rows) in ClusterRouter snapshots, tenant families when
/// quotas are configured, the fault family once a fault site was armed,
/// and SLO families when an SloEngine is armed.
enum class MetricBlock { Server, Rollup, Cluster, Tenant, Fault, Slo };

/// One documented metric family (docs/observability.md catalogue).
struct MetricInfo {
  std::string name;  // full Prometheus family name, e.g. "hrf_latency_seconds"
  std::string type;  // "counter" | "gauge" | "histogram"
  MetricBlock block = MetricBlock::Server;
};

/// The documented Prometheus metric catalogue, in docs order.
const std::vector<MetricInfo>& metric_catalogue();

/// The documented CounterRegistry names the server always exports (it
/// zero-fills these so idle servers still expose the full schema).
const std::vector<std::string>& counter_catalogue();

/// The cluster router's own CounterRegistry names (zero-filled by
/// ClusterRouter::metrics_snapshot() on top of counter_catalogue()).
const std::vector<std::string>& cluster_counter_catalogue();

/// Validates an exported Prometheus file + JSON snapshot pair against the
/// documented catalogue, in both directions: every exported family is
/// catalogued, and every catalogued family of an exported block is present
/// with the declared type (histogram series complete with _bucket/_sum/
/// _count and +Inf). The JSON must match its schema/version, carry every
/// documented counter, and hold complete, well-typed rows for exactly the
/// blocks the Prometheus file exports. Throws FormatError describing the
/// first violation.
void check_metrics_schema(const std::string& prometheus_text, const std::string& json_text);

/// The SLO alert rows as one JSON array, the shape of both the metrics
/// snapshot's "slo" section and an incident bundle's "alerts".
json::Value slo_rows_json(const std::vector<SloAlertState>& alerts);

/// Throws FormatError, prefixed `what`, unless every element of `rows`
/// is a complete, well-typed SLO alert row.
void check_slo_rows_json(const json::Value& rows, const std::string& what);

/// Writes `path` (Prometheus text) and `path + ".json"` atomically
/// (util/atomic_file): a scraper or tail never sees a half-written file.
void write_metrics_files(const MetricsSnapshot& snapshot, const std::string& path);

}  // namespace hrf::obs
