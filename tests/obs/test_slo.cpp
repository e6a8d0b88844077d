// SloEngine: multi-window burn-rate alerting over WindowSample streams.
// Windows are hand-built (the engine is passive), so every fire/clear
// transition is deterministic.

#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/histogram.hpp"

namespace hrf::obs {
namespace {

// One-second windows with fast == slow == 1 s mean each window is the
// whole burn lookback: the burn rate is just that window's error ratio
// over the budget, which keeps the arithmetic in the tests legible.
SloObjectives tight_objectives() {
  SloObjectives o;
  o.success_target = 0.9;  // budget 0.1
  o.fast_window_seconds = 1.0;
  o.slow_window_seconds = 1.0;
  o.fast_burn_threshold = 5.0;
  o.slow_burn_threshold = 5.0;
  o.hysteresis_evaluations = 2;
  o.cooldown_seconds = 100.0;
  return o;
}

WindowSample server_window(double end, std::uint64_t failed, std::uint64_t completed) {
  WindowSample w;
  w.start_seconds = end - 1.0;
  w.end_seconds = end;
  w.counter_deltas["requests.failed"] = failed;
  w.counter_deltas["requests.completed"] = completed;
  return w;
}

// Returns a pointer into `alerts`, so callers bind engine.alerts() (a
// vector returned by value) to a local first; a temporary would die at
// the end of the statement and leave the pointer dangling.
const SloAlertState* find_alert(const std::vector<SloAlertState>& alerts,
                                const std::string& scope, const std::string& objective) {
  for (const SloAlertState& a : alerts) {
    if (a.scope == scope && a.objective == objective) return &a;
  }
  return nullptr;
}
const SloAlertState* find_alert(std::vector<SloAlertState>&& alerts, const std::string& scope,
                                const std::string& objective) = delete;

TEST(SloEngine, FiresOnlyAfterHysteresisEvaluations) {
  SloEngine engine(tight_objectives());
  // 50% failures over a 10% budget => burn 5.0, right at both thresholds.
  engine.observe(server_window(1.0, 50, 50));
  std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* a = find_alert(alerts, "server", "success_rate");
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->firing);  // one breaching evaluation is not enough
  EXPECT_DOUBLE_EQ(a->fast_burn, 5.0);
  EXPECT_DOUBLE_EQ(a->slow_burn, 5.0);

  engine.observe(server_window(2.0, 50, 50));
  alerts = engine.alerts();
  a = find_alert(alerts, "server", "success_rate");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->firing);
  EXPECT_EQ(a->fired_total, 1u);
  EXPECT_EQ(engine.fired_total(), 1u);
  EXPECT_EQ(engine.evaluations(), 2u);
}

TEST(SloEngine, SingleBadWindowDoesNotFire) {
  SloEngine engine(tight_objectives());
  engine.observe(server_window(1.0, 100, 0));  // one terrible window
  engine.observe(server_window(2.0, 0, 100));  // back to healthy
  engine.observe(server_window(3.0, 0, 100));
  const std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* a = find_alert(alerts, "server", "success_rate");
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->firing);
  EXPECT_EQ(engine.fired_total(), 0u);
}

TEST(SloEngine, ClearsWithHysteresisAndCooldownBlocksRefire) {
  SloEngine engine(tight_objectives());
  engine.observe(server_window(1.0, 50, 50));
  engine.observe(server_window(2.0, 50, 50));  // fires
  std::vector<SloAlertState> alerts = engine.alerts();
  ASSERT_TRUE(find_alert(alerts, "server", "success_rate")->firing);

  engine.observe(server_window(3.0, 0, 100));  // clear streak 1: still firing
  alerts = engine.alerts();
  EXPECT_TRUE(find_alert(alerts, "server", "success_rate")->firing);
  engine.observe(server_window(4.0, 0, 100));  // clear streak 2: clears
  alerts = engine.alerts();
  const SloAlertState* a = find_alert(alerts, "server", "success_rate");
  EXPECT_FALSE(a->firing);
  EXPECT_EQ(a->cleared_total, 1u);

  // Immediately breaching again: hysteresis is satisfied at t=6 but the
  // 100 s post-clear cooldown (until t=104) must hold the alert down.
  engine.observe(server_window(5.0, 50, 50));
  engine.observe(server_window(6.0, 50, 50));
  alerts = engine.alerts();
  a = find_alert(alerts, "server", "success_rate");
  EXPECT_FALSE(a->firing);
  EXPECT_EQ(a->fired_total, 1u);

  // Past the cooldown the same burn fires again.
  engine.observe(server_window(105.0, 50, 50));
  engine.observe(server_window(106.0, 50, 50));
  alerts = engine.alerts();
  a = find_alert(alerts, "server", "success_rate");
  EXPECT_TRUE(a->firing);
  EXPECT_EQ(a->fired_total, 2u);
}

TEST(SloEngine, DownedShardBurnsAtFullRatioDespiteFailover) {
  // The router keeps serving through failover, so client-visible success
  // stays perfect — but the dead shard's scope must still page.
  SloEngine engine(tight_objectives());
  for (int i = 1; i <= 2; ++i) {
    WindowSample w = server_window(i, 0, 100);
    ShardHealth dead;
    dead.index = 1;
    dead.up = false;
    dead.routed = 100;  // cumulative, unchanged after the kill
    dead.failures = 0;
    w.shards.push_back(dead);
    engine.observe(w);
  }
  const std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* server = find_alert(alerts, "server", "success_rate");
  ASSERT_NE(server, nullptr);
  EXPECT_FALSE(server->firing);
  const SloAlertState* shard = find_alert(alerts, "shard:1", "success_rate");
  ASSERT_NE(shard, nullptr);
  EXPECT_TRUE(shard->firing);
  EXPECT_DOUBLE_EQ(shard->fast_burn, 10.0);  // ratio 1.0 over budget 0.1
}

TEST(SloEngine, TenantShedsBurnTenantScope) {
  SloEngine engine(tight_objectives());
  // Cumulative tenant counters: engine deltas them itself, so feed three
  // windows (the first only primes the scope).
  for (int i = 1; i <= 3; ++i) {
    WindowSample w = server_window(i, 0, 100);
    TenantStat t;
    t.name = "acme";
    t.admitted = 10ull * i;
    t.shed = 50ull * i;  // 50 sheds per window vs 10 admits => ratio ~0.83
    w.tenants.push_back(t);
    engine.observe(w);
  }
  const std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* a = find_alert(alerts, "tenant:acme", "success_rate");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->firing);
}

TEST(SloEngine, LatencyObjectiveFiresOnP95Breach) {
  SloObjectives o = tight_objectives();
  o.p95_target_seconds = 0.001;  // 1 ms
  SloEngine engine(o);
  for (int i = 1; i <= 2; ++i) {
    WindowSample w = server_window(i, 0, 100);
    LatencyHistogram h;
    for (int s = 0; s < 100; ++s) h.record_ns(10'000'000);  // 10 ms, all over target
    w.histogram_deltas.emplace_back("end_to_end", h.snapshot());
    engine.observe(w);
  }
  const std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* lat = find_alert(alerts, "server", "p95_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_TRUE(lat->firing);
  // ratio 1.0 over the 5% a p95 objective allows => burn 20.
  EXPECT_DOUBLE_EQ(lat->fast_burn, 20.0);
  const SloAlertState* ok = find_alert(alerts, "server", "success_rate");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->firing);
}

TEST(SloEngine, LatencyObjectiveStaysQuietWhenSamplesAreUnderTarget) {
  SloObjectives o = tight_objectives();
  o.p95_target_seconds = 1.0;  // generous: 1 s
  SloEngine engine(o);
  for (int i = 1; i <= 4; ++i) {
    WindowSample w = server_window(i, 0, 100);
    LatencyHistogram h;
    for (int s = 0; s < 100; ++s) h.record_ns(1'000'000);  // 1 ms
    w.histogram_deltas.emplace_back("end_to_end", h.snapshot());
    engine.observe(w);
  }
  const std::vector<SloAlertState> alerts = engine.alerts();
  const SloAlertState* lat = find_alert(alerts, "server", "p95_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_FALSE(lat->firing);
  EXPECT_DOUBLE_EQ(lat->fast_burn, 0.0);
}

TEST(SloEngine, FireAndClearReachRecorderAndCallback) {
  FlightRecorder recorder(32);
  std::vector<SloAlertState> fired;
  SloEngine engine(tight_objectives(), &recorder,
                   [&fired](const SloAlertState& a) { fired.push_back(a); });
  engine.observe(server_window(1.0, 50, 50));
  engine.observe(server_window(2.0, 50, 50));  // fire
  engine.observe(server_window(3.0, 0, 100));
  engine.observe(server_window(4.0, 0, 100));  // clear

  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].scope, "server");
  EXPECT_EQ(fired[0].objective, "success_rate");
  EXPECT_TRUE(fired[0].firing);

  bool saw_fired = false;
  bool saw_cleared = false;
  for (const FlightEvent& e : recorder.events()) {
    if (e.category != "alert") continue;
    if (e.name == "slo_fired" && e.scope == "server") saw_fired = true;
    if (e.name == "slo_cleared" && e.scope == "server") saw_cleared = true;
  }
  EXPECT_TRUE(saw_fired);
  EXPECT_TRUE(saw_cleared);
}

TEST(SloEngine, ServerRowsExistWithZeroTraffic) {
  // The exporter renders hrf_slo_* from alerts(); an armed engine must
  // produce the server rows even before any traffic arrives.
  SloObjectives o = tight_objectives();
  o.p95_target_seconds = 0.5;
  SloEngine engine(o);
  engine.observe(server_window(1.0, 0, 0));
  const std::vector<SloAlertState> alerts = engine.alerts();
  EXPECT_NE(find_alert(alerts, "server", "success_rate"), nullptr);
  EXPECT_NE(find_alert(alerts, "server", "p95_latency"), nullptr);
  for (const SloAlertState& a : alerts) {
    EXPECT_FALSE(a.firing);
    EXPECT_DOUBLE_EQ(a.fast_burn, 0.0);
  }
}

}  // namespace
}  // namespace hrf::obs
