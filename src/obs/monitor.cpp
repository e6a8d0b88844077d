#include "obs/monitor.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace hrf::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::milliseconds to_duration(double seconds) {
  return std::chrono::milliseconds(static_cast<long long>(seconds * 1e3));
}

}  // namespace

Monitor::Monitor(MonitorOptions options, MetricsSource source, FlightRecorder* recorder,
                 const trace::Tracer* tracer, Clock clock)
    : options_(std::move(options)),
      source_(std::move(source)),
      recorder_(recorder),
      tracer_(tracer),
      clock_(clock ? std::move(clock) : Clock(&steady_seconds)),
      registry_({options_.interval_seconds, options_.window_capacity}) {
  require(static_cast<bool>(source_), "monitor needs a metrics source");
  if (options_.slo_enabled) {
    // on_fire runs inside tick() with mu_ held: it only queues the
    // bundle reason; the write happens later in the same tick.
    engine_ = std::make_unique<SloEngine>(
        options_.slo, recorder_, [this](const SloAlertState& alert) {
          pending_reasons_.push_back("alert:" + alert.scope + "/" + alert.objective);
        });
  }
  if (options_.start_thread) {
    thread_ = std::thread([this] { loop(); });
  }
}

Monitor::~Monitor() { stop(); }

void Monitor::stop() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Monitor::loop() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    wake_cv_.wait_for(lock, to_duration(options_.interval_seconds),
                      [this] { return stopping_.load(std::memory_order_acquire); });
    if (stopping_.load(std::memory_order_acquire)) break;
    lock.unlock();
    tick(clock_());
    lock.lock();
  }
}

void Monitor::tick(double now) {
  MetricsSnapshot snap = source_();
  std::lock_guard<std::mutex> lock(mu_);
  last_snapshot_ = snap;
  registry_.sample(snap, now);
  if (engine_) {
    const std::uint64_t total = registry_.total_windows();
    if (total > fed_windows_) {
      for (const WindowSample& w : registry_.recent(static_cast<std::size_t>(total - fed_windows_))) {
        engine_->observe(w);
      }
      fed_windows_ = total;
    }
  }
  if (!pending_reasons_.empty()) {
    if (!options_.incident_dir.empty()) {
      std::string reason = pending_reasons_.front();
      for (std::size_t i = 1; i < pending_reasons_.size(); ++i) {
        reason += "; " + pending_reasons_[i];
      }
      write_bundle_locked(reason, now);
    }
    pending_reasons_.clear();
  }
}

MetricsSnapshot Monitor::snapshot() const {
  MetricsSnapshot snap = source_();
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_) {
    snap.slo = engine_->alerts();
    snap.has_slo = true;
  }
  return snap;
}

void Monitor::trigger_incident(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_reasons_.push_back(reason.empty() ? "manual" : reason);
}

std::vector<SloAlertState> Monitor::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!engine_) return {};
  return engine_->alerts();
}

std::uint64_t Monitor::windows_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registry_.total_windows();
}

std::uint64_t Monitor::bundles_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_written_;
}

std::string Monitor::last_bundle_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_bundle_path_;
}

std::uint64_t Monitor::alerts_fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_ ? engine_->fired_total() : 0;
}

json::Value Monitor::build_bundle_locked(const std::string& reason, double now) const {
  json::Value doc = json::Value::object();
  doc["schema"] = "hrf-incident";
  doc["version"] = 1;
  doc["reason"] = reason;
  doc["monitor_seconds"] = now;
  doc["written_unix"] =
      std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch()).count();
  doc["build"] = build_info_json();
  doc["uptime_seconds"] = uptime_seconds();

  doc["alerts"] = slo_rows_json(engine_ ? engine_->alerts() : std::vector<SloAlertState>{});

  json::Value windows = json::Value::array();
  for (const WindowSample& w : registry_.recent(options_.bundle_windows)) {
    json::Value row = json::Value::object();
    row["index"] = w.index;
    row["start_seconds"] = w.start_seconds;
    row["end_seconds"] = w.end_seconds;
    json::Value counters = json::Value::object();
    for (const auto& [name, delta] : w.counter_deltas) {
      if (delta != 0) counters[name] = delta;  // sparse: zero deltas add noise, not signal
    }
    row["counters"] = std::move(counters);
    json::Value latency = json::Value::array();
    for (const auto& [stage, hist] : w.histogram_deltas) {
      if (hist.total == 0) continue;
      json::Value h = json::Value::object();
      h["stage"] = stage;
      h["count"] = hist.total;
      h["p50_ms"] = hist.percentile_ns(50) / 1e6;
      h["p95_ms"] = hist.percentile_ns(95) / 1e6;
      h["p99_ms"] = hist.percentile_ns(99) / 1e6;
      latency.push_back(std::move(h));
    }
    row["latency"] = std::move(latency);
    windows.push_back(std::move(row));
  }
  doc["windows"] = std::move(windows);

  json::Value events = json::Value::array();
  if (recorder_ != nullptr) {
    std::vector<FlightEvent> all = recorder_->events();
    const std::size_t start =
        all.size() > options_.bundle_events ? all.size() - options_.bundle_events : 0;
    for (std::size_t i = start; i < all.size(); ++i) {
      const FlightEvent& e = all[i];
      json::Value row = json::Value::object();
      row["sequence"] = e.sequence;
      row["seconds"] = e.seconds;
      row["category"] = e.category;
      row["name"] = e.name;
      row["scope"] = e.scope;
      row["detail"] = e.detail;
      events.push_back(std::move(row));
    }
    doc["events_recorded"] = recorder_->recorded();
    doc["events_dropped"] = recorder_->dropped();
  }
  doc["events"] = std::move(events);

  json::Value traces = json::Value::array();
  if (tracer_ != nullptr) {
    for (const auto& t : tracer_->slowest(options_.bundle_traces)) {
      json::Value row = json::Value::object();
      row["id"] = t->id;
      row["duration_ms"] = t->duration_seconds() * 1e3;
      row["root"] = t->root().name;
      row["spans"] = static_cast<std::uint64_t>(t->spans.size());
      row["text"] = t->to_string();
      traces.push_back(std::move(row));
    }
  }
  doc["traces"] = std::move(traces);

  // Self-healing ledger: the cumulative integrity/watchdog/reload
  // counters at dump time, so the bundle shows whether the system was
  // already repairing itself before the alert.
  json::Value heal = json::Value::object();
  for (const auto& [name, value] : last_snapshot_.counters) {
    if (name.rfind("scrub.", 0) == 0 || name.rfind("audit.", 0) == 0 ||
        name.rfind("watchdog.", 0) == 0 || name.rfind("reload.", 0) == 0 ||
        name.rfind("breaker.", 0) == 0) {
      heal[name] = value;
    }
  }
  doc["self_heal"] = std::move(heal);
  return doc;
}

void Monitor::write_bundle_locked(const std::string& reason, double now) {
  const json::Value doc = build_bundle_locked(reason, now);
  std::error_code ec;
  std::filesystem::create_directories(options_.incident_dir, ec);
  char name[64];
  std::snprintf(name, sizeof name, "incident-%06llu.json",
                static_cast<unsigned long long>(bundle_seq_++));
  const std::string path = options_.incident_dir + "/" + name;
  write_file_atomic(path, doc.dump(2) + "\n");
  bundles_written_ += 1;
  last_bundle_path_ = path;
  if (recorder_ != nullptr) recorder_->record("incident", "bundle_written", "", path);
}

void check_incident_bundle(const json::Value& bundle) {
  const auto fail = [](const std::string& what) -> void {
    throw FormatError("incident bundle check failed: " + what);
  };
  if (bundle.get("schema").as_string() != "hrf-incident") {
    fail("schema tag is not 'hrf-incident'");
  }
  if (bundle.get("version").as_number() != 1) fail("unsupported bundle version");
  if (bundle.get("reason").as_string().empty()) fail("empty reason");
  const json::Value& build = bundle.get("build");
  build.get("version").as_string();
  build.get("commit").as_string();
  build.get("compiler").as_string();
  bundle.get("uptime_seconds").as_number();
  check_slo_rows_json(bundle.get("alerts"), "incident bundle check failed");
  const json::Value& windows = bundle.get("windows");
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const json::Value& w = windows.at(i);
    w.get("index").as_number();
    w.get("start_seconds").as_number();
    w.get("end_seconds").as_number();
    w.get("counters");
    const json::Value& latency = w.get("latency");
    for (std::size_t j = 0; j < latency.size(); ++j) {
      const json::Value& h = latency.at(j);
      h.get("stage").as_string();
      h.get("count").as_number();
      h.get("p95_ms").as_number();
    }
  }
  const json::Value& events = bundle.get("events");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    e.get("sequence").as_number();
    e.get("seconds").as_number();
    e.get("category").as_string();
    e.get("name").as_string();
  }
  bundle.get("traces");
  bundle.get("self_heal");
}

}  // namespace hrf::obs
