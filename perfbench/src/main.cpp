// perfbench: host-timed end-to-end benchmark of hrf (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 measures the workload's end-to-end metrics with no spans.
// --trace 1 runs the layer probes plus a traced loop of every workload and
// prints the per-layer metrics; spans go to --spans when given. The last
// stdout line is the result object; the line before it records the
// environment and the operation counts.

#include <malloc.h>
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Installs per run; setup_s is their median. The measured window is cut
/// into as many spells, each after its own install: the host's speed
/// shifts by up to 1.5x from one few-second phase to the next, and
/// installs spread over the window see the same mix of phases as the
/// loop instead of one phase.
constexpr int kInstalls = 9;
/// Untimed warm-up after each install, before its measured spell.
constexpr double kWarmUpSeconds = 0.3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(), a.workload) ==
      kWorkloadNames.end()) {
    throw std::invalid_argument(
        "--workload must be one of offline-gpu, serve-gpu-small, routed-cpu");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument("--seed, --seconds and --trace are required");
  }
  if (!(a.seconds >= 1.0 && a.seconds <= 120.0)) {
    throw std::invalid_argument("--seconds must be in [1, 120]");
  }
  return a;
}

/// OpenMP must run one thread in every thread of the process, server and
/// shard workers included; only the environment reaches threads the
/// library starts, so OMP_NUM_THREADS=1 is required rather than set here.
void check_openmp() {
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || std::string(env) != "1") {
    throw std::runtime_error("OMP_NUM_THREADS=1 must be set in the environment");
  }
  int in_thread = 0;
  std::thread([&] { in_thread = omp_get_max_threads(); }).join();
  if (omp_get_max_threads() != 1 || in_thread != 1) {
    throw std::runtime_error("OpenMP does not run one thread per caller");
  }
}

int processors() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Cumulative steal and total jiffies from the first line of /proc/stat;
/// both 0 when it cannot be read.
struct Jiffies {
  double steal = 0.0;
  double total = 0.0;
};

Jiffies cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  Jiffies j;
  if (!(in >> cpu) || cpu != "cpu") return j;
  double v = 0.0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

/// Share of all CPU time the hypervisor stole between two readings; 0
/// when unknown.
double steal_share(const Jiffies& a, const Jiffies& b) {
  return b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;  // no control characters in JSON
  }
  return out + "\"";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << number(m.value)
        << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The line before the result: environment and counts beside the run.
/// `steal` is the share of all CPU time the hypervisor stole from the
/// machine while the workload ran.
void print_info(const Args& a, const hrf::Forest& forest, const LoopStats& s,
                const std::vector<double>& installs, double steal) {
  std::ostringstream out;
  out << "{\"info\": {\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << processors()
      << ", \"omp_threads\": " << omp_get_max_threads()
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"forest_nodes\": " << forest.stats().total_nodes
      << ", \"attempted\": " << s.attempted << ", \"succeeded\": " << s.succeeded
      << ", \"failed\": " << s.failed << ", \"mismatched\": " << s.mismatched
      << ", \"latency_samples\": " << s.latency_us.size()
      << ", \"steal_share\": " << number(steal) << ", \"install_s\": [";
  for (std::size_t i = 0; i < installs.size(); ++i) out << (i ? ", " : "") << number(installs[i]);
  out << "], \"first_error\": " << quoted(s.first_error) << "}}";
  std::cout << out.str() << std::endl;
}

/// Times one install from the same heap state every time: the previous
/// installation is torn down and the allocator returns its free memory to
/// the system, so no install reuses pages the last one left behind.
double clean_install(Workload& w) {
  w.uninstall();
  malloc_trim(0);
  return w.install();
}

/// Untimed warm-up: lets caches fill and lazy set-up finish. Its
/// operations count toward attempted, failed and mismatched.
void warm_up(Workload& w, double seconds, LoopStats& totals) {
  SpanRecorder off(false);
  LoopStats warm;
  w.run(now_ns() + static_cast<std::int64_t>(seconds * 1e9), off, warm);
  totals.attempted += warm.attempted;
  totals.succeeded += warm.succeeded;
  totals.failed += warm.failed;
  totals.mismatched += warm.mismatched;
  if (totals.first_error.empty()) totals.first_error = warm.first_error;
}

/// --trace 0: the workload's five end-to-end metrics.
int measure(const Args& a, const hrf::Forest& forest) {
  const std::unique_ptr<Workload> w = make_workload(a.workload, forest, a.seed);
  if (w->busy_threads() > processors()) {
    throw std::runtime_error(a.workload + " needs " + std::to_string(w->busy_threads()) +
                             " busy threads but only " + std::to_string(processors()) +
                             " processors are online");
  }
  std::vector<double> installs;
  std::vector<Window> windows;
  LoopStats totals, measured;
  SpanRecorder off(false);
  const auto spell_ns = static_cast<std::int64_t>(a.seconds / kInstalls * 1e9);
  const Jiffies jiffies0 = cpu_jiffies();
  for (int i = 0; i < kInstalls; ++i) {
    installs.push_back(clean_install(*w));
    warm_up(*w, kWarmUpSeconds, totals);
    const std::int64_t begin = now_ns();
    w->run(begin + spell_ns, off, measured);
    windows.push_back({begin, now_ns()});
  }
  const double steal = steal_share(jiffies0, cpu_jiffies());
  w->uninstall();
  totals.merge(measured);

  const bool correct = totals.mismatched == 0;
  std::map<std::string, Metric> metrics;
  if (!measured.latency_us.empty()) {
    metrics["setup_s"] = {median(installs), "s"};
    metrics["rows_per_s"] = {window_rate(measured.completions, windows), "rows/s"};
    metrics["latency_p50_us"] = {percentile(measured.latency_us, 50), "us"};
    metrics["latency_p90_us"] = {percentile(measured.latency_us, 90), "us"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }
  print_info(a, forest, totals, installs, steal);
  if (metrics.empty()) throw std::runtime_error("no operation succeeded: " + totals.first_error);
  print_result(correct, totals.attempted, totals.failed, metrics);
  return correct ? 0 : 1;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// p`p` of the self times of the spans named `name`, in microseconds.
double self_time_us(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
                    const std::string& name, double p) {
  std::vector<double> us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) us.push_back(static_cast<double>(self[i]) * 1e-3);
  }
  return percentile(std::move(us), p);
}

/// --trace 1: layer probes, then a traced loop of every workload; the
/// named workload also alternates untraced slices to give the tracing
/// overhead.
int trace(const Args& a, const hrf::Forest& forest) {
  SpanRecorder spans(true);
  SpanRecorder off(false);
  LayerReport layers = probe_layers(forest, a.seed, spans);
  std::map<std::string, Metric> metrics = layers.metrics;

  LoopStats totals;
  std::map<std::string, LoopStats> traced;
  LoopStats named_untraced;
  std::vector<double> installs;
  const auto jiffies0 = cpu_jiffies();
  for (const std::string& name : kWorkloadNames) {
    const std::unique_ptr<Workload> w = make_workload(name, forest, a.seed);
    if (w->busy_threads() > processors()) {
      throw std::runtime_error(name + " needs more busy threads than processors are online");
    }
    const std::int64_t t0 = now_ns();
    installs.push_back(w->install());
    spans.record("install", 0, t0, now_ns());
    warm_up(*w, kWarmUpSeconds, totals);
    const auto slice_ns = static_cast<std::int64_t>(a.seconds / 6.0 * 1e9);
    if (name == a.workload) {
      for (int k = 0; k < 4; ++k) {
        w->run(now_ns() + slice_ns, k % 2 ? spans : off, k % 2 ? traced[name] : named_untraced);
      }
    } else {
      w->run(now_ns() + 2 * slice_ns, spans, traced[name]);
    }
    w->uninstall();
  }
  const double steal = steal_share(jiffies0, cpu_jiffies());
  for (const auto& [name, s] : traced) totals.merge(s);
  totals.merge(named_untraced);

  const LoopStats& serve = traced["serve-gpu-small"];
  const LoopStats& routed = traced["routed-cpu"];
  const std::vector<Span> all = spans.spans();
  const std::vector<std::int64_t> self = self_times(all);
  metrics["serve.queue_us_p50"] = {percentile(serve.queue_us, 50), "us"};
  metrics["serve.service_us_p50"] = {percentile(serve.service_us, 50), "us"};
  metrics["serve.overhead_us_p50"] = {self_time_us(all, self, "serve.request", 50), "us"};
  metrics["serve.batch_members_mean"] = {share(serve.batch_members, serve.batches), "count"};
  metrics["serve.retry_share"] = {share(serve.retried, serve.succeeded), "ratio"};
  metrics["serve.fallback_share"] = {share(serve.via_fallback, serve.succeeded), "ratio"};

  metrics["cluster.route_overhead_us_p50"] = {self_time_us(all, self, "cluster.query", 50), "us"};
  metrics["cluster.shard_queue_us_p90"] = {percentile(routed.queue_us, 90), "us"};
  std::uint64_t busiest = 0, answered = 0;
  for (const auto& [shard, n] : routed.per_shard) {
    busiest = std::max(busiest, n);
    answered += n;
  }
  metrics["cluster.shard_skew"] = {share(busiest * routed.per_shard.size(), answered), "ratio"};
  metrics["cluster.hedge_share"] = {share(routed.hedged, routed.succeeded), "ratio"};
  metrics["cluster.hedge_win_share"] = {share(routed.hedge_won, routed.hedged), "ratio"};
  metrics["cluster.failovers"] = {static_cast<double>(routed.failovers), "count"};

  const LoopStats& named_traced = traced[a.workload];
  metrics["trace.overhead_pct"] = {
      (percentile(named_traced.latency_us, 50) / percentile(named_untraced.latency_us, 50) - 1.0) *
          100.0,
      "%"};

  if (!a.spans_path.empty()) spans.write_json(a.spans_path);
  totals.attempted += layers.attempted;
  totals.mismatched += layers.mismatched;
  print_info(a, forest, totals, installs, steal);
  if (!layers.modeled_deterministic) {
    std::cerr << "perfbench: modeled seconds or gpusim counters differ across repeats of one "
                 "block\n";
  }
  const bool correct = totals.mismatched == 0 && layers.modeled_deterministic;
  print_result(correct, totals.attempted, totals.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    check_openmp();
    const hrf::Forest forest = make_forest(a.seed);
    return a.trace ? trace(a, forest) : measure(a, forest);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
