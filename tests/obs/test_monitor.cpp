// Monitor: fake-clock end-to-end of the third pillar. No background
// thread — tests drive tick() directly, so the window edges, the alert
// transitions, and the bundle writes are all deterministic. The bundle
// tests are the schema round-trip: write -> parse -> check_incident_bundle
// -> field-level assertions.

#include "obs/monitor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"

namespace hrf::obs {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Deterministic metrics source: every snapshot adds 50 failures, 50
/// successes, and 100 end_to_end samples at 2 ms to the cumulative
/// state — a steady 50% failure rate that burns any sane budget. State
/// sits behind a shared_ptr so the callable stays copyable for
/// std::function while the histogram (non-copyable) is shared.
Monitor::MetricsSource burning_source() {
  struct State {
    std::uint64_t failed = 0;
    std::uint64_t completed = 0;
    LatencyHistogram latency;
  };
  auto state = std::make_shared<State>();
  return [state]() {
    state->failed += 50;
    state->completed += 50;
    for (int i = 0; i < 100; ++i) state->latency.record_ns(2'000'000);
    MetricsSnapshot s;
    s.counters["requests.failed"] = state->failed;
    s.counters["requests.completed"] = state->completed;
    s.counters["breaker.opened"] = 1;  // lands in the bundle's self_heal ledger
    s.histograms.emplace_back("end_to_end", state->latency.snapshot());
    return s;
  };
}

MonitorOptions manual_options(const std::string& incident_dir) {
  MonitorOptions opt;
  opt.start_thread = false;
  opt.interval_seconds = 1.0;
  opt.slo_enabled = true;
  opt.slo.success_target = 0.9;
  opt.slo.fast_window_seconds = 1.0;
  opt.slo.slow_window_seconds = 1.0;
  opt.slo.fast_burn_threshold = 5.0;
  opt.slo.slow_burn_threshold = 5.0;
  opt.slo.hysteresis_evaluations = 2;
  opt.incident_dir = incident_dir;
  return opt;
}

class MonitorTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/hrf_monitor_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(MonitorTest, AlertFireWritesSchemaValidBundleSameTick) {
  FlightRecorder recorder(64);
  recorder.record("breaker", "breaker_open", "shard:0", "seeded before the alert");
  Monitor monitor(manual_options(dir_), burning_source(), &recorder);

  monitor.tick(0.0);  // primes the registry; no window yet
  EXPECT_EQ(monitor.windows_recorded(), 0u);
  monitor.tick(1.0);  // window 0: breach streak 1
  EXPECT_EQ(monitor.bundles_written(), 0u);
  monitor.tick(2.0);  // window 1: hysteresis met -> fire -> bundle
  EXPECT_EQ(monitor.windows_recorded(), 2u);
  EXPECT_EQ(monitor.alerts_fired_total(), 1u);
  ASSERT_EQ(monitor.bundles_written(), 1u);
  const std::string path = monitor.last_bundle_path();
  ASSERT_TRUE(fs::exists(path));

  const json::Value bundle = json::Value::parse(read_file(path));
  ASSERT_NO_THROW(check_incident_bundle(bundle));

  EXPECT_EQ(bundle.get("schema").as_string(), "hrf-incident");
  EXPECT_EQ(bundle.get("version").as_number(), 1.0);
  EXPECT_EQ(bundle.get("reason").as_string(), "alert:server/success_rate");

  // The firing alert row is in the bundle.
  const json::Value& alerts = bundle.get("alerts");
  bool firing_row = false;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const json::Value& a = alerts.at(i);
    if (a.get("scope").as_string() == "server" &&
        a.get("objective").as_string() == "success_rate" && a.get("firing").as_bool()) {
      firing_row = true;
      EXPECT_GE(a.get("fast_burn").as_number(), 5.0);
    }
  }
  EXPECT_TRUE(firing_row);

  // Both closed windows, with their non-zero counter deltas and a
  // plausible windowed p95 (100 samples at 2 ms).
  const json::Value& windows = bundle.get("windows");
  ASSERT_EQ(windows.size(), 2u);
  const json::Value& w0 = windows.at(0);
  EXPECT_EQ(w0.get("counters").get("requests.failed").as_number(), 50.0);
  const json::Value& latency = w0.get("latency");
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_EQ(latency.at(0).get("stage").as_string(), "end_to_end");
  EXPECT_EQ(latency.at(0).get("count").as_number(), 100.0);
  EXPECT_GT(latency.at(0).get("p95_ms").as_number(), 1.0);
  EXPECT_LT(latency.at(0).get("p95_ms").as_number(), 10.0);

  // The event ring is embedded: the pre-incident breaker event and the
  // alert transition itself.
  const json::Value& events = bundle.get("events");
  bool saw_breaker = false;
  bool saw_alert = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.get("category").as_string() == "breaker") saw_breaker = true;
    if (e.get("category").as_string() == "alert" &&
        e.get("name").as_string() == "slo_fired") {
      saw_alert = true;
    }
  }
  EXPECT_TRUE(saw_breaker);
  EXPECT_TRUE(saw_alert);

  // Self-healing ledger carries the cumulative breaker counter.
  EXPECT_EQ(bundle.get("self_heal").get("breaker.opened").as_number(), 1.0);

  // And the recorder saw the bundle write land.
  bool saw_written = false;
  for (const FlightEvent& e : recorder.events()) {
    if (e.category == "incident" && e.name == "bundle_written") saw_written = true;
  }
  EXPECT_TRUE(saw_written);
}

TEST_F(MonitorTest, TriggerIncidentWritesBundleOnNextTick) {
  MonitorOptions opt;
  opt.start_thread = false;
  opt.incident_dir = dir_;
  Monitor monitor(opt, burning_source());  // SLOs off: trigger path only

  monitor.trigger_incident("signal:SIGUSR1");
  EXPECT_EQ(monitor.bundles_written(), 0u);  // written on the tick, not inline
  monitor.tick(0.0);
  ASSERT_EQ(monitor.bundles_written(), 1u);

  const json::Value bundle = json::Value::parse(read_file(monitor.last_bundle_path()));
  ASSERT_NO_THROW(check_incident_bundle(bundle));
  EXPECT_EQ(bundle.get("reason").as_string(), "signal:SIGUSR1");
  EXPECT_EQ(bundle.get("alerts").size(), 0u);  // no engine armed
  EXPECT_TRUE(monitor.alerts().empty());

  // A second trigger gets its own numbered bundle.
  monitor.trigger_incident("cli:trigger-incident");
  monitor.tick(1.0);
  EXPECT_EQ(monitor.bundles_written(), 2u);
  EXPECT_NE(monitor.last_bundle_path().find("incident-000001.json"), std::string::npos);
}

TEST_F(MonitorTest, NoIncidentDirMeansAlertsFireButNothingIsWritten) {
  Monitor monitor(manual_options(""), burning_source());
  for (int t = 0; t <= 4; ++t) monitor.tick(t);
  EXPECT_EQ(monitor.alerts_fired_total(), 1u);
  EXPECT_EQ(monitor.bundles_written(), 0u);
  EXPECT_TRUE(monitor.last_bundle_path().empty());
}

TEST_F(MonitorTest, SnapshotFoldsSloRowsForTheExporter) {
  Monitor monitor(manual_options(dir_), burning_source());
  monitor.tick(0.0);
  monitor.tick(1.0);
  const MetricsSnapshot snap = monitor.snapshot();
  EXPECT_TRUE(snap.has_slo);
  ASSERT_FALSE(snap.slo.empty());
  EXPECT_EQ(snap.slo.front().scope, "server");
  EXPECT_EQ(snap.slo.front().objective, "success_rate");
}

TEST_F(MonitorTest, CheckIncidentBundleRejectsBadDocuments) {
  json::Value doc = json::Value::object();
  doc["schema"] = "not-an-incident";
  EXPECT_THROW(check_incident_bundle(doc), FormatError);

  // A real bundle with the version bumped must be rejected too.
  Monitor monitor(manual_options(dir_), burning_source());
  monitor.trigger_incident("test");
  monitor.tick(0.0);
  json::Value bundle = json::Value::parse(read_file(monitor.last_bundle_path()));
  bundle["version"] = 2;
  EXPECT_THROW(check_incident_bundle(bundle), FormatError);

  // So must an alert row that lost a field of the SLO row schema.
  bundle["version"] = 1;
  ASSERT_NO_THROW(check_incident_bundle(bundle));
  json::Value row = json::Value::object();
  for (const auto& [key, value] : bundle.get("alerts").at(0).members()) {
    if (key != "cleared") row[key] = value;
  }
  bundle["alerts"] = json::Value::array();
  bundle["alerts"].push_back(row);
  EXPECT_THROW(check_incident_bundle(bundle), FormatError);
}

}  // namespace
}  // namespace hrf::obs
