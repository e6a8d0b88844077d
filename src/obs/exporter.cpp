#include "obs/exporter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <type_traits>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace hrf::obs {

namespace {

// Captured at static-init time so uptime_seconds() measures from process
// start, not from the first snapshot.
const std::chrono::steady_clock::time_point kProcessStart = std::chrono::steady_clock::now();

constexpr const char* kLatencyFamily = "hrf_latency_seconds";
constexpr const char* kFaultFamily = "hrf_fault_fired_total";

std::string format_value(double v) {
  char buf[64];
  // Integral values below 10^15 print every digit, as the JSON export
  // does: a counter past 10^10 must not lose digits to %g.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void emit_type(std::string& out, const std::string& family, const std::string& type) {
  out += "# TYPE " + family + " " + type + "\n";
}

// --- Export blocks ---------------------------------------------------------
//
// Each row-shaped export block (rollups, shards, tenants, SLO alerts and
// the tracer summary) is declared once, as a table of columns.
// to_prometheus, snapshot_to_json, metric_catalogue() and
// check_metrics_schema are all generated from these tables, so a field
// cannot be exported one way and forgotten the other.

/// How a column surfaces: as a Prometheus family, as a label on every
/// family of its block, or only under its JSON key.
enum class Col { Counter, Gauge, Label, JsonOnly };

/// One field of a block row. `name` is the Prometheus family (Counter,
/// Gauge) or label (Label); JsonOnly columns have none. The JSON kind the
/// getter returns (number, bool or string) is the field's schema.
template <typename Row>
struct Column {
  const char* name;
  Col col;
  const char* key;
  json::Value (*get)(const Row&);
};

/// One export block, columns in JSON key order. Each row renders one
/// sample per family, labeled by the label columns, and one JSON object
/// holding every column. A block without label columns has exactly one
/// row and exports it as a JSON object rather than an array.
template <typename Row>
struct Table {
  MetricBlock block;
  const char* json_key;
  const char* count_family;  // gauge of the row count, or null
  std::vector<Column<Row>> columns;
};

using V = json::Value;
using RollupRow = std::pair<RollupKey, BackendRollup>;

template <typename M>
struct MemberOf;
template <typename C, typename T>
struct MemberOf<T C::*> {
  using Class = C;
};

/// Getter reading one data member or const method of the row.
template <auto M>
V field(const typename MemberOf<decltype(M)>::Class& row) {
  return std::invoke(M, row);
}

/// The same, of a rollup row's BackendRollup.
template <auto M>
V rollup(const RollupRow& row) {
  return std::invoke(M, row.second);
}

// Every family of a block is emitted for every row: a GPU-only deployment
// still exports zeroed FPGA gauges, a shed-free tenant a zeroed shed
// counter, so dashboards and the schema checker never see families appear
// and disappear with traffic mix or health.
const Table<RollupRow> kRollups{
    MetricBlock::Rollup, "rollups", nullptr,
    {{"variant", Col::Label, "variant", [](const RollupRow& r) -> V { return r.first.variant; }},
     {"backend", Col::Label, "backend", [](const RollupRow& r) -> V { return r.first.backend; }},
     {"generation", Col::Label, "generation",
      [](const RollupRow& r) -> V { return r.first.generation; }},
     {"hrf_backend_requests_total", Col::Counter, "requests", rollup<&BackendRollup::requests>},
     {"hrf_backend_queries_total", Col::Counter, "queries", rollup<&BackendRollup::queries>},
     {"hrf_backend_seconds_total", Col::Counter, "seconds", rollup<&BackendRollup::seconds>},
     {nullptr, Col::JsonOnly, "gpu_runs", rollup<&BackendRollup::gpu_runs>},
     {"hrf_backend_branch_efficiency", Col::Gauge, "branch_efficiency",
      [](const RollupRow& r) -> V {
        return r.second.gpu_runs ? r.second.branch_efficiency() : 0.0;
      }},
     {"hrf_backend_txn_per_request", Col::Gauge, "txn_per_request",
      rollup<&BackendRollup::txn_per_request>},
     {"hrf_backend_onchip_hit_rate", Col::Gauge, "onchip_hit_rate",
      rollup<&BackendRollup::onchip_hit_rate>},
     {"hrf_backend_stage1_onchip_hit_rate", Col::Gauge, "stage1_onchip_hit_rate",
      rollup<&BackendRollup::stage1_onchip_hit_rate>},
     {"hrf_backend_dram_transactions_total", Col::Counter, "dram_transactions",
      [](const RollupRow& r) -> V { return r.second.gpu.dram_transactions; }},
     {nullptr, Col::JsonOnly, "smem_loads",
      [](const RollupRow& r) -> V { return r.second.gpu.smem_loads; }},
     {nullptr, Col::JsonOnly, "l2_hits",
      [](const RollupRow& r) -> V { return r.second.gpu.l2_hits; }},
     {nullptr, Col::JsonOnly, "fpga_runs", rollup<&BackendRollup::fpga_runs>},
     {"hrf_backend_fpga_ii_stall_cycles", Col::Gauge, "fpga_ii_stall_cycles",
      rollup<&BackendRollup::fpga_ii_stall_cycles>},
     {"hrf_backend_fpga_stall_pct", Col::Gauge, "fpga_stall_pct",
      rollup<&BackendRollup::fpga_stall_pct>}}};

const Table<ShardHealth> kShards{
    MetricBlock::Cluster, "shards", nullptr,
    {{"shard", Col::Label, "index", field<&ShardHealth::index>},
     {"hrf_shard_up", Col::Gauge, "up", field<&ShardHealth::up>},
     {"hrf_shard_partitioned", Col::Gauge, "partitioned", field<&ShardHealth::partitioned>},
     {"hrf_shard_breaker_state", Col::Gauge, "breaker_state", field<&ShardHealth::breaker_state>},
     {"hrf_shard_queue_depth", Col::Gauge, "queue_depth", field<&ShardHealth::queue_depth>},
     {"hrf_shard_model_generation", Col::Gauge, "generation", field<&ShardHealth::generation>},
     {"hrf_shard_routed_total", Col::Counter, "routed", field<&ShardHealth::routed>},
     {"hrf_shard_failures_total", Col::Counter, "failures", field<&ShardHealth::failures>},
     {"hrf_shard_repairs_total", Col::Counter, "repairs", field<&ShardHealth::repairs>},
     {"hrf_shard_worker_restarts_total", Col::Counter, "worker_restarts",
      field<&ShardHealth::worker_restarts>}}};

const Table<TenantStat> kTenants{
    MetricBlock::Tenant, "tenants", nullptr,
    {{"tenant", Col::Label, "name", field<&TenantStat::name>},
     {"hrf_tenant_weight", Col::Gauge, "weight", field<&TenantStat::weight>},
     {"hrf_tenant_reserved_slots", Col::Gauge, "reserved", field<&TenantStat::reserved>},
     {"hrf_tenant_queue_depth", Col::Gauge, "queued", field<&TenantStat::queued>},
     {"hrf_tenant_admitted_total", Col::Counter, "admitted", field<&TenantStat::admitted>},
     {"hrf_tenant_quota_shed_total", Col::Counter, "shed", field<&TenantStat::shed>}}};

// The count gauge marks an export as SLO-armed even while the row list is
// momentarily empty. Incident bundles carry the same rows as "alerts".
const Table<SloAlertState> kSlo{
    MetricBlock::Slo, "slo", "hrf_slo_objectives",
    {{"objective", Col::Label, "objective", field<&SloAlertState::objective>},
     {"scope", Col::Label, "scope", field<&SloAlertState::scope>},
     {"hrf_slo_state", Col::Gauge, "firing", field<&SloAlertState::firing>},
     {"hrf_slo_burn_rate_fast", Col::Gauge, "fast_burn", field<&SloAlertState::fast_burn>},
     {"hrf_slo_burn_rate_slow", Col::Gauge, "slow_burn", field<&SloAlertState::slow_burn>},
     {"hrf_slo_alerts_fired_total", Col::Counter, "fired", field<&SloAlertState::fired_total>},
     {"hrf_slo_alerts_cleared_total", Col::Counter, "cleared",
      field<&SloAlertState::cleared_total>}}};

using Traces = trace::TracerSummary;
const Table<Traces> kTraces{
    MetricBlock::Server, "traces", nullptr,
    {{"hrf_traces_started_total", Col::Counter, "started", field<&Traces::started>},
     {"hrf_traces_sampled_total", Col::Counter, "sampled", field<&Traces::sampled>},
     {"hrf_traces_completed_total", Col::Counter, "completed", field<&Traces::completed>},
     {"hrf_traces_evicted_total", Col::Counter, "evicted", field<&Traces::evicted>},
     {"hrf_traces_retained", Col::Gauge, "retained", field<&Traces::retained>},
     {"hrf_trace_sampling_rate", Col::Gauge, "sampling", field<&Traces::sampling>},
     {nullptr, Col::JsonOnly, "capacity", field<&Traces::capacity>}}};

bool is_family(Col col) { return col == Col::Counter || col == Col::Gauge; }
const char* type_name(Col col) { return col == Col::Counter ? "counter" : "gauge"; }

template <typename Row>
bool one_row(const Table<Row>& t) {
  return std::none_of(t.columns.begin(), t.columns.end(),
                      [](const Column<Row>& c) { return c.col == Col::Label; });
}

std::string sample_value(const json::Value& v) {
  if (v.is_integer()) return v.dump();  // every digit, past 2^53 too
  return format_value(v.is_bool() ? (v.as_bool() ? 1.0 : 0.0) : v.as_number());
}

/// The row span is not deduced, so a vector or a one-element span binds.
template <typename Row>
void emit_table(std::string& out, const Table<Row>& t,
                std::type_identity_t<std::span<const Row>> rows) {
  if (t.count_family != nullptr) {
    emit_type(out, t.count_family, "gauge");
    out += std::string(t.count_family) + " " + format_value(static_cast<double>(rows.size())) +
           "\n";
  }
  std::vector<std::string> labels;
  for (const Row& row : rows) {
    std::string set;
    for (const Column<Row>& c : t.columns) {
      if (c.col != Col::Label) continue;
      const json::Value v = c.get(row);
      // Appended piece by piece: GCC 12 warns -Wrestrict (a false
      // positive) on the equivalent chain of operator+ at -O3.
      set += set.empty() ? "{" : ",";
      set += c.name;
      set += "=\"";
      set += v.is_string() ? escape_label(v.as_string()) : sample_value(v);
      set += '"';
    }
    labels.push_back(set.empty() ? set : set + "}");
  }
  for (const Column<Row>& c : t.columns) {
    if (!is_family(c.col)) continue;
    emit_type(out, c.name, type_name(c.col));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out += c.name + labels[i] + " " + sample_value(c.get(rows[i])) + "\n";
    }
  }
}

template <typename Row>
json::Value row_json(const Table<Row>& t, const Row& row) {
  json::Value obj = json::Value::object();
  for (const Column<Row>& c : t.columns) obj[c.key] = c.get(row);
  return obj;
}

template <typename Row>
json::Value rows_json(const Table<Row>& t, const std::vector<Row>& rows) {
  json::Value arr = json::Value::array();
  for (const Row& row : rows) arr.push_back(row_json(t, row));
  return arr;
}

template <typename Row>
void add_families(std::vector<MetricInfo>& out, const Table<Row>& t) {
  if (t.count_family != nullptr) out.push_back({t.count_family, "gauge", t.block});
  for (const Column<Row>& c : t.columns) {
    if (is_family(c.col)) out.push_back({c.name, type_name(c.col), t.block});
  }
}

/// Throws FormatError (prefixed `what`) unless `row` carries every column
/// of `t` with the JSON kind its getter produces.
template <typename Row>
void check_row(const Table<Row>& t, const json::Value& row, const std::string& what) {
  const Row blank{};
  for (const Column<Row>& c : t.columns) {
    const json::Value* v = row.find(c.key);
    if (v == nullptr || v->kind() != c.get(blank).kind()) {
      throw FormatError(what + ": " + t.json_key + " row without a well-typed '" + c.key + "'");
    }
  }
}

constexpr const char* kSchemaFailed = "metrics schema check failed";

[[noreturn]] void schema_fail(const std::string& what) {
  throw FormatError(std::string(kSchemaFailed) + ": " + what);
}

/// Ties a block's JSON section to its Prometheus families: rows exist in
/// both exports or in neither, and every row is complete.
template <typename Row>
void check_table_json(const Table<Row>& t, const json::Value& doc, bool exported) {
  const json::Value* section = doc.find(t.json_key);
  const bool has_rows = section != nullptr && section->size() > 0;
  if (exported && !has_rows) schema_fail(std::string(t.json_key) + " families without JSON rows");
  if (!exported && has_rows) {
    schema_fail(std::string("JSON ") + t.json_key + " rows without their Prometheus families");
  }
  if (!has_rows) return;
  if (one_row(t)) {
    check_row(t, *section, kSchemaFailed);
    return;
  }
  for (std::size_t i = 0; i < section->size(); ++i) check_row(t, section->at(i), kSchemaFailed);
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

const BuildInfo& build_info() {
  static const BuildInfo kInfo = [] {
    BuildInfo b;
#ifdef HRF_VERSION_STRING
    b.version = HRF_VERSION_STRING;
#else
    b.version = "unknown";
#endif
#ifdef HRF_GIT_COMMIT
    b.commit = HRF_GIT_COMMIT;
#else
    b.commit = "unknown";
#endif
#if defined(__clang__)
    b.compiler = "clang " + std::to_string(__clang_major__) + "." +
                 std::to_string(__clang_minor__);
#elif defined(__GNUC__)
    b.compiler = "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
    b.compiler = "unknown";
#endif
    return b;
  }();
  return kInfo;
}

double uptime_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  // Build attribution + uptime lead every exposition: scrapes and
  // incident bundles are attributable to a build before anything else.
  const BuildInfo& build = build_info();
  emit_type(out, "hrf_build_info", "gauge");
  out += "hrf_build_info{version=\"" + escape_label(build.version) + "\",commit=\"" +
         escape_label(build.commit) + "\",compiler=\"" + escape_label(build.compiler) +
         "\"} 1\n";
  emit_type(out, "hrf_uptime_seconds", "gauge");
  out += "hrf_uptime_seconds " + format_value(uptime_seconds()) + "\n";

  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = "hrf_" + prometheus_name(name) + "_total";
    emit_type(out, family, "counter");
    out += family + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = "hrf_" + prometheus_name(name);
    emit_type(out, family, "gauge");
    out += family + " " + format_value(value) + "\n";
  }

  if (!snapshot.histograms.empty()) {
    const std::string family = kLatencyFamily;
    emit_type(out, family, "histogram");
    for (const auto& [stage, snap] : snapshot.histograms) {
      const std::string stage_label = "stage=\"" + escape_label(stage) + "\"";
      for (const auto& bucket : snap.cumulative()) {
        out += family + "_bucket{" + stage_label + ",le=\"" +
               format_value(static_cast<double>(bucket.le_ns) / 1e9) + "\"} " +
               std::to_string(bucket.cumulative) + "\n";
      }
      out += family + "_bucket{" + stage_label + ",le=\"+Inf\"} " + std::to_string(snap.total) +
             "\n";
      out += family + "_sum{" + stage_label + "} " +
             format_value(static_cast<double>(snap.sum_ns) / 1e9) + "\n";
      out += family + "_count{" + stage_label + "} " + std::to_string(snap.total) + "\n";
    }
  }

  if (!snapshot.rollups.empty()) emit_table(out, kRollups, snapshot.rollups);
  if (!snapshot.shards.empty()) emit_table(out, kShards, snapshot.shards);
  if (!snapshot.tenants.empty()) emit_table(out, kTenants, snapshot.tenants);

  if (!snapshot.fault_fired.empty()) {
    // Fired-zero sites are emitted too: "armed but never fired" is
    // exactly what a failing chaos run needs to see.
    emit_type(out, kFaultFamily, "counter");
    for (const auto& [site, count] : snapshot.fault_fired) {
      out += std::string(kFaultFamily) + "{site=\"" + escape_label(site) + "\"} " +
             std::to_string(count) + "\n";
    }
  }

  if (snapshot.has_slo) emit_table(out, kSlo, snapshot.slo);
  if (snapshot.has_traces) emit_table(out, kTraces, {&snapshot.traces, 1});
  return out;
}

json::Value build_info_json() {
  const BuildInfo& build = build_info();
  json::Value b = json::Value::object();
  b["version"] = build.version;
  b["commit"] = build.commit;
  b["compiler"] = build.compiler;
  return b;
}

json::Value snapshot_to_json(const MetricsSnapshot& snapshot) {
  json::Value doc = json::Value::object();
  doc["schema"] = "hrf-metrics";
  doc["version"] = 1;
  doc["build"] = build_info_json();
  doc["uptime_seconds"] = uptime_seconds();

  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snapshot.counters) counters[name] = value;
  doc["counters"] = std::move(counters);

  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  doc["gauges"] = std::move(gauges);

  json::Value histograms = json::Value::array();
  for (const auto& [stage, snap] : snapshot.histograms) {
    json::Value h = json::Value::object();
    h["stage"] = stage;
    h["count"] = snap.total;
    h["sum_ns"] = snap.sum_ns;
    h["max_ns"] = snap.max_ns;
    h["mean_ns"] = snap.mean_ns();
    h["p50_ns"] = snap.percentile_ns(50);
    h["p95_ns"] = snap.percentile_ns(95);
    h["p99_ns"] = snap.percentile_ns(99);
    json::Value buckets = json::Value::array();
    for (const auto& bucket : snap.cumulative()) {
      json::Value b = json::Value::object();
      b["le_ns"] = bucket.le_ns;
      b["cumulative"] = bucket.cumulative;
      buckets.push_back(std::move(b));
    }
    h["buckets"] = std::move(buckets);
    histograms.push_back(std::move(h));
  }
  doc["histograms"] = std::move(histograms);

  doc[kRollups.json_key] = rows_json(kRollups, snapshot.rollups);
  if (!snapshot.tenants.empty()) doc[kTenants.json_key] = rows_json(kTenants, snapshot.tenants);
  if (!snapshot.shards.empty()) doc[kShards.json_key] = rows_json(kShards, snapshot.shards);
  if (!snapshot.fault_fired.empty()) {
    json::Value faults = json::Value::object();
    for (const auto& [site, count] : snapshot.fault_fired) faults[site] = count;
    doc["fault_fired"] = std::move(faults);
  }
  if (snapshot.has_slo) doc[kSlo.json_key] = slo_rows_json(snapshot.slo);
  if (snapshot.has_traces) doc[kTraces.json_key] = row_json(kTraces, snapshot.traces);
  return doc;
}

json::Value slo_rows_json(const std::vector<SloAlertState>& alerts) {
  return rows_json(kSlo, alerts);
}

void check_slo_rows_json(const json::Value& rows, const std::string& what) {
  for (std::size_t i = 0; i < rows.size(); ++i) check_row(kSlo, rows.at(i), what);
}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw FormatError("prometheus parse error at line " + std::to_string(line_no) + ": " + what);
}

/// Family name of a sample: histogram series collapse onto their family.
std::string family_of(const std::string& sample_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) == 0) {
      return sample_name.substr(0, sample_name.size() - s.size());
    }
  }
  return sample_name;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

}  // namespace

std::map<std::string, PromFamily> parse_prometheus(const std::string& text) {
  std::map<std::string, PromFamily> families;
  // Types are declared per *family*; histogram sample names (_bucket etc.)
  // map back to the family that declared them.
  std::map<std::string, std::string> declared_types;

  std::size_t pos = 0, line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // Only "# TYPE <name> <type>" is meaningful; other comments skip.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) parse_fail(line_no, "malformed TYPE line");
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        if (!valid_metric_name(name)) parse_fail(line_no, "bad metric name in TYPE line");
        if (type != "counter" && type != "gauge" && type != "histogram" && type != "untyped") {
          parse_fail(line_no, "unknown metric type '" + type + "'");
        }
        declared_types[name] = type;
        families[name].type = type;
      }
      continue;
    }

    // Sample line: name[{labels}] value
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name = line.substr(0, i);
    if (!valid_metric_name(name)) parse_fail(line_no, "bad metric name '" + name + "'");

    PromSample sample;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        if (eq == std::string::npos) parse_fail(line_no, "label without '='");
        const std::string key = line.substr(i, eq - i);
        if (!valid_metric_name(key)) parse_fail(line_no, "bad label name '" + key + "'");
        if (eq + 1 >= line.size() || line[eq + 1] != '"') {
          parse_fail(line_no, "label value must be quoted");
        }
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            const char esc = line[j + 1];
            value += esc == 'n' ? '\n' : esc;
            j += 2;
          } else {
            value += line[j++];
          }
        }
        if (j >= line.size()) parse_fail(line_no, "unterminated label value");
        sample.labels[key] = value;
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) parse_fail(line_no, "unterminated label set");
      ++i;  // '}'
    }
    while (i < line.size() && line[i] == ' ') ++i;
    const std::string value_text = line.substr(i);
    if (value_text.empty()) parse_fail(line_no, "missing sample value");
    if (value_text == "+Inf") {
      sample.value = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || *end != '\0') {
        parse_fail(line_no, "unparseable value '" + value_text + "'");
      }
    }

    PromFamily& family = families[name];
    const auto declared = declared_types.find(family_of(name));
    if (declared != declared_types.end()) family.type = declared->second;
    family.samples.push_back(std::move(sample));
  }
  return families;
}

const std::vector<MetricInfo>& metric_catalogue() {
  static const std::vector<MetricInfo> kCatalogue = [] {
    std::vector<MetricInfo> v;
    const auto add_registry = [&v](const std::vector<std::string>& names, const char* suffix,
                                   const char* type, MetricBlock block) {
      for (const std::string& name : names) {
        v.push_back({"hrf_" + prometheus_name(name) + suffix, type, block});
      }
    };
    add_registry(counter_catalogue(), "_total", "counter", MetricBlock::Server);
    v.push_back({"hrf_build_info", "gauge", MetricBlock::Server});
    v.push_back({"hrf_uptime_seconds", "gauge", MetricBlock::Server});
    add_registry({"queue_depth", "workers", "breaker_state", "model_generation"}, "", "gauge",
                 MetricBlock::Server);
    v.push_back({kLatencyFamily, "histogram", MetricBlock::Server});
    add_families(v, kTraces);
    add_families(v, kRollups);
    add_registry(cluster_counter_catalogue(), "_total", "counter", MetricBlock::Cluster);
    add_registry({"cluster_shards", "cluster_shards_available", "cluster_hedge_delay_seconds",
                  "cluster_concurrency_limit", "cluster_in_flight"},
                 "", "gauge", MetricBlock::Cluster);
    add_families(v, kShards);
    add_families(v, kTenants);
    v.push_back({kFaultFamily, "counter", MetricBlock::Fault});
    add_families(v, kSlo);
    return v;
  }();
  return kCatalogue;
}

const std::vector<std::string>& counter_catalogue() {
  // Mirrors the names ForestServer actually feeds its CounterRegistry
  // (see docs/observability.md catalogue); metrics_snapshot() zero-fills
  // these so they are present even before first use.
  static const std::vector<std::string> kCounters = {
      "requests.submitted",       "requests.completed",
      "requests.failed",          "requests.rejected_overload",
      "requests.rejected_quota",  "requests.rejected_shutdown",
      "requests.shed_deadline",   "requests.deadline_expired",
      "requests.retried",         "requests.abandoned",
      "requests.batched",         "batch.formed",
      "batch.flush_deadline",     "fallback.served",
      "breaker.short_circuited",  "breaker.trips",
      "breaker.probes",           "reload.promoted",
      "reload.rejected",          "reload.rolled_back",
      "scrub.passes",             "scrub.corruptions",
      "scrub.repairs",            "audit.sampled",
      "audit.mismatches",         "watchdog.missed_heartbeats",
      "watchdog.worker_restarts",
  };
  return kCounters;
}

const std::vector<std::string>& cluster_counter_catalogue() {
  // Mirrors the names ClusterRouter feeds its own CounterRegistry (on top
  // of the per-shard server counters it sums into counter_catalogue()).
  static const std::vector<std::string> kCounters = {
      "cluster.submitted",          "cluster.completed",
      "cluster.failed",             "cluster.failovers",
      "cluster.hedged",             "cluster.hedge_wins",
      "cluster.no_shard_available", "cluster.probes",
      "cluster.probe_failures",     "cluster.reload_waves",
      "cluster.reload_waves_halted", "cluster.shard_rollbacks",
      "cluster.quota_shed",         "cluster.limited",
      "cluster.scale_ups",          "cluster.scale_downs",
      "autoscaler.evaluations",     "autoscaler.scale_ups",
      "autoscaler.scale_downs",     "autoscaler.stalled",
  };
  return kCounters;
}

void check_metrics_schema(const std::string& prometheus_text, const std::string& json_text) {
  const std::map<std::string, PromFamily> families = parse_prometheus(prometheus_text);
  const std::vector<MetricInfo>& catalogue = metric_catalogue();

  const auto has_family = [&](const std::string& name) {
    const auto it = families.find(name);
    return it != families.end() && !it->second.samples.empty();
  };
  const auto catalogued = [&](const std::string& name, const char* type) {
    return std::any_of(catalogue.begin(), catalogue.end(), [&](const MetricInfo& m) {
      return m.name == name && (type == nullptr || m.type == type);
    });
  };

  // Two-way: every exported family is catalogued...
  for (const auto& [name, family] : families) {
    if (catalogued(name, nullptr) || catalogued(family_of(name), "histogram")) continue;
    schema_fail("exported family " + name + " is not in the catalogue");
  }

  // ...and every catalogued family is exported. Families are required per
  // block: server families always, the others all together once any of
  // them is exported (rollups once traffic produced a key, cluster and
  // shard families in a ClusterRouter snapshot, tenant families with quotas
  // configured, the fault family once a site was armed, SLO families with
  // an armed SloEngine).
  std::set<MetricBlock> exported = {MetricBlock::Server};
  for (const MetricInfo& info : catalogue) {
    if (has_family(info.type == "histogram" ? info.name + "_count" : info.name)) {
      exported.insert(info.block);
    }
  }
  for (const MetricInfo& info : catalogue) {
    if (!exported.count(info.block)) continue;
    if (info.type == "histogram") {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        if (!has_family(info.name + suffix)) {
          schema_fail("histogram series " + info.name + suffix + " missing");
        }
      }
      bool saw_inf = false;
      for (const PromSample& s : families.at(info.name + "_bucket").samples) {
        const auto le = s.labels.find("le");
        if (le == s.labels.end()) schema_fail(info.name + "_bucket sample without le label");
        if (le->second == "+Inf") saw_inf = true;
      }
      if (!saw_inf) schema_fail(info.name + " has no +Inf bucket");
      continue;
    }
    if (!has_family(info.name)) schema_fail("metric " + info.name + " missing");
    const std::string& declared = families.at(info.name).type;
    if (declared != info.type) {
      schema_fail("metric " + info.name + " declared as '" + declared + "', catalogue says '" +
                  info.type + "'");
    }
  }

  const json::Value doc = json::Value::parse(json_text);
  if (doc.get("schema").as_string() != "hrf-metrics") {
    schema_fail("JSON schema tag is not 'hrf-metrics'");
  }
  if (doc.get("version").as_number() != 1) schema_fail("unsupported JSON schema version");
  const json::Value& build = doc.get("build");
  build.get("version").as_string();
  build.get("commit").as_string();
  build.get("compiler").as_string();
  doc.get("uptime_seconds").as_number();
  const json::Value& counters = doc.get("counters");
  for (const std::string& name : counter_catalogue()) {
    if (!counters.find(name)) schema_fail("JSON counters missing '" + name + "'");
  }
  if (exported.count(MetricBlock::Cluster)) {
    for (const std::string& name : cluster_counter_catalogue()) {
      if (!counters.find(name)) schema_fail("JSON counters missing '" + name + "'");
    }
  }
  if (exported.count(MetricBlock::Fault)) {
    const json::Value* faults = doc.find("fault_fired");
    if (!faults) schema_fail("fault families exported without a JSON fault_fired object");
    for (const PromSample& s : families.at(kFaultFamily).samples) {
      const auto site = s.labels.find("site");
      if (site == s.labels.end()) schema_fail(std::string(kFaultFamily) + " sample without site");
      if (!faults->find(site->second)) {
        schema_fail("JSON fault_fired missing site '" + site->second + "'");
      }
    }
  }
  const json::Value& histograms = doc.get("histograms");
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const json::Value& h = histograms.at(i);
    h.get("stage").as_string();
    h.get("count").as_number();
    h.get("buckets");
  }
  doc.get(kRollups.json_key);  // always present, empty before the first request
  check_table_json(kRollups, doc, exported.count(kRollups.block) > 0);
  check_table_json(kShards, doc, exported.count(kShards.block) > 0);
  check_table_json(kTenants, doc, exported.count(kTenants.block) > 0);
  check_table_json(kSlo, doc, exported.count(kSlo.block) > 0);
  check_table_json(kTraces, doc, exported.count(kTraces.block) > 0);
}

void write_metrics_files(const MetricsSnapshot& snapshot, const std::string& path) {
  write_file_atomic(path, to_prometheus(snapshot));
  write_file_atomic(path + ".json", snapshot_to_json(snapshot).dump(2) + "\n");
}

}  // namespace hrf::obs
