#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "serve/model_store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hrf::cluster {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

/// Router-side shard breaker options with a transition -> flight
/// recorder bridge attached (scope "shard:N", names router_breaker_*,
/// distinct from the in-server breaker_* events).
serve::CircuitBreakerOptions wire_router_breaker(serve::CircuitBreakerOptions breaker,
                                                 obs::FlightRecorder* recorder,
                                                 std::size_t shard) {
  if (recorder != nullptr && !breaker.on_transition) {
    breaker.on_transition = [recorder, scope = "shard:" + std::to_string(shard)](
                                serve::CircuitState from, serve::CircuitState to) {
      const char* name = to == serve::CircuitState::Open      ? "router_breaker_open"
                         : to == serve::CircuitState::HalfOpen ? "router_breaker_probe"
                                                                : "router_breaker_closed";
      recorder->record("breaker", name, scope,
                       std::string(serve::to_string(from)) + " -> " + serve::to_string(to));
    };
  }
  return breaker;
}

/// The probe request: one all-zeros row. Predictions are irrelevant —
/// the probe only proves the dispatch path and a worker are alive.
Dataset make_probe_queries(std::size_t num_features, int num_classes) {
  Dataset d(1, num_features, num_classes);
  const std::vector<float> row(num_features, 0.0f);
  d.push_back(row, 0);
  d.set_name("cluster-probe");
  return d;
}

}  // namespace

const char* to_string(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::ConsistentHash: return "consistent-hash";
    case RoutingPolicy::LeastLoaded: return "least-loaded";
  }
  return "?";
}

RoutingPolicy routing_policy_from_name(const std::string& name) {
  if (name == "hash" || name == "consistent-hash") return RoutingPolicy::ConsistentHash;
  if (name == "least-loaded") return RoutingPolicy::LeastLoaded;
  throw ConfigError("unknown routing policy '" + name +
                    "' (expected consistent-hash|hash|least-loaded)");
}

std::vector<std::size_t> rendezvous_order_subset(std::uint64_t key,
                                                 const std::vector<std::size_t>& shard_ids,
                                                 std::uint64_t salt) {
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(shard_ids.size());
  for (const std::size_t s : shard_ids) {
    // SplitMix64 finalization over (key, salt, shard) gives each pair an
    // independent uniform score; the shard ranking is the sorted order.
    // The score depends only on (key, salt, s) — never on which other
    // ids are in the subset — which is the whole minimal-disruption
    // argument: resizing the set cannot reorder the survivors.
    SplitMix64 mix(key ^ (salt + 0x9e3779b97f4a7c15ULL * (s + 1)));
    scored.emplace_back(mix.next(), s);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;  // highest score first
    return a.second < b.second;
  });
  std::vector<std::size_t> order;
  order.reserve(scored.size());
  for (const auto& [score, s] : scored) order.push_back(s);
  return order;
}

std::vector<std::size_t> rendezvous_order(std::uint64_t key, std::size_t num_shards,
                                          std::uint64_t salt) {
  std::vector<std::size_t> ids(num_shards);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return rendezvous_order_subset(key, ids, salt);
}

std::string RollingReloadReport::to_string() const {
  std::string out = "rolling reload -> gen " + std::to_string(to_generation) + ": ";
  out += completed ? "completed" : "HALTED";
  out += " after " + std::to_string(shards.size()) + " shard(s)";
  if (!completed) out += " (" + reason + ")";
  if (!rollbacks.empty()) {
    out += "; rolled back " + std::to_string(rollbacks.size()) + " promoted shard(s)";
  }
  for (const ShardReload& sr : shards) {
    out += "\n  shard " + std::to_string(sr.shard) + ": " + sr.report.to_string();
  }
  for (const ShardReload& sr : rollbacks) {
    out += "\n  rollback shard " + std::to_string(sr.shard) + ": " + sr.report.to_string();
  }
  return out;
}

ClusterRouter::ClusterRouter(const Forest& forest, const ClassifierOptions& classifier_options,
                             const serve::ServerOptions& shard_options,
                             const ClusterOptions& options)
    : options_(options),
      limiter_(options.limit),
      probe_queries_(make_probe_queries(forest.num_features(), forest.num_classes())) {
  // The factory outlives this constructor (scale_up() replays it), so it
  // owns one copy of the model instead of borrowing the caller's; every
  // shard, including those scale_up() adds later, shares that copy.
  auto model = std::make_shared<const Forest>(forest);
  init_shards(classifier_options, shard_options,
              [model, classifier_options](const serve::ServerOptions& per_shard) {
                return std::make_unique<serve::ForestServer>(model, classifier_options,
                                                             per_shard);
              });
}

ClusterRouter::ClusterRouter(const serve::ModelStore& store,
                             const ClassifierOptions& classifier_options,
                             const serve::ServerOptions& shard_options,
                             const ClusterOptions& options)
    : options_(options), limiter_(options.limit) {
  {
    // One load up front for the probe shape; each shard loads its own
    // copy through the store constructor so it stays reload()-able.
    const std::optional<std::uint64_t> current = store.current();
    require(current.has_value(), "cluster: model store has no complete generation");
    const serve::LoadedModel model = store.load(*current);
    probe_queries_ =
        make_probe_queries(model.forest->num_features(), model.forest->num_classes());
  }
  // The store is captured by reference: it must outlive the router (the
  // same lifetime rolling_reload() already requires).
  init_shards(classifier_options, shard_options,
              [&store, classifier_options](const serve::ServerOptions& per_shard) {
                return std::make_unique<serve::ForestServer>(store, classifier_options,
                                                             per_shard);
              });
}

void ClusterRouter::init_shards(const ClassifierOptions& /*classifier_options*/,
                                const serve::ServerOptions& shard_options,
                                MakeServer make_server) {
  require(options_.num_shards >= 1, "cluster needs at least one shard");
  if (options_.max_shards == 0) options_.max_shards = options_.num_shards;
  require(options_.max_shards >= options_.num_shards,
          "cluster max_shards must be >= num_shards");
  require(options_.max_failovers >= 0, "cluster max_failovers must be >= 0");
  require(options_.hedge.min_seconds >= 0.0, "cluster hedge min_seconds must be >= 0");
  require(options_.hedge.p95_multiplier > 0.0, "cluster hedge p95_multiplier must be > 0");
  require(options_.probe_interval_seconds > 0.0, "cluster probe_interval_seconds must be > 0");
  require(options_.probe_deadline_seconds > 0.0, "cluster probe_deadline_seconds must be > 0");

  shard_options_ = shard_options;
  make_server_ = std::move(make_server);
  // All max_shards slots exist for the router's whole life (stable slot
  // ids keep rendezvous scores stable); only the first num_shards get a
  // server now — the rest wait for scale_up().
  shards_.reserve(options_.max_shards);
  for (std::size_t s = 0; s < options_.max_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->breaker = std::make_unique<serve::CircuitBreaker>(
        wire_router_breaker(options_.shard_breaker, options_.flight_recorder, s));
    if (s < options_.num_shards) {
      shard->server = make_server_(slot_options(s));
      shard->active.store(true, std::memory_order_release);
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.start_probes) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
}

serve::ServerOptions ClusterRouter::slot_options(std::size_t s) const {
  serve::ServerOptions per_shard = shard_options_;
  // Distinct jitter streams per slot, same reproducibility per seed.
  per_shard.seed = shard_options_.seed + 7919 * s;
  // Every shard server shares the fleet's flight recorder; its scope
  // names the slot so bundle readers can tell shards apart.
  per_shard.flight_recorder = options_.flight_recorder;
  per_shard.flight_scope = "shard:" + std::to_string(s);
  return per_shard;
}

void ClusterRouter::flight_event(const char* category, const char* name, std::string scope,
                                 std::string detail) const {
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->record(category, name, std::move(scope), std::move(detail));
  }
}

std::shared_ptr<serve::ForestServer> ClusterRouter::server_of(std::size_t s) const {
  std::lock_guard<std::mutex> lock(shards_[s]->mu);
  return shards_[s]->server;
}

std::vector<std::size_t> ClusterRouter::active_ids() const {
  std::vector<std::size_t> ids;
  ids.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->active.load(std::memory_order_acquire)) ids.push_back(s);
  }
  return ids;
}

std::size_t ClusterRouter::active_shards() const { return active_ids().size(); }

ClusterRouter::~ClusterRouter() {
  try {
    shutdown();
  } catch (...) {  // NOLINT(bugprone-empty-catch): destructor must not throw
  }
}

void ClusterRouter::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> probe_lock(probe_mu_);
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    if (server) server->shutdown();
  }
}

bool ClusterRouter::scale_up() {
  std::lock_guard<std::mutex> lock(scale_mu_);
  if (stopping_.load(std::memory_order_acquire)) return false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    if (sh.active.load(std::memory_order_acquire)) continue;
    // A previously drained slot's server is shut down for good — build a
    // fresh one, and a fresh breaker so drain-era failures don't
    // quarantine the newcomer.
    std::unique_ptr<serve::ForestServer> server = make_server_(slot_options(s));
    {
      std::lock_guard<std::mutex> slot_lock(sh.mu);
      sh.server = std::move(server);
    }
    sh.breaker = std::make_unique<serve::CircuitBreaker>(
        wire_router_breaker(options_.shard_breaker, options_.flight_recorder, s));
    sh.alive.store(true, std::memory_order_release);
    sh.partitioned.store(false, std::memory_order_release);
    // Publish last: candidate orders only list the slot once the server
    // and breaker above are in place.
    sh.active.store(true, std::memory_order_release);
    counters_.add("cluster.scale_ups");
    flight_event("cluster", "scale_up", "shard:" + std::to_string(s));
    return true;
  }
  return false;  // every slot already active
}

std::optional<serve::DrainReport> ClusterRouter::scale_down() {
  std::lock_guard<std::mutex> lock(scale_mu_);
  if (stopping_.load(std::memory_order_acquire)) return std::nullopt;
  const std::vector<std::size_t> ids = active_ids();
  if (ids.size() <= 1) return std::nullopt;  // never scale to zero
  Shard& sh = *shards_[ids.back()];
  // Deactivate first: new candidate orders stop listing the slot, then
  // the graceful drain finishes what already reached it. A racing
  // dispatch that slips in shuts out with ShutdownError and fails over —
  // the client request still completes elsewhere.
  sh.active.store(false, std::memory_order_release);
  const std::shared_ptr<serve::ForestServer> server = server_of(ids.back());
  counters_.add("cluster.scale_downs");
  flight_event("cluster", "scale_down", "shard:" + std::to_string(ids.back()));
  return server->shutdown();
}

void ClusterRouter::add_counter(const std::string& name, std::uint64_t delta) {
  counters_.add(name, delta);
}

std::size_t ClusterRouter::concurrency_limit() const {
  return limiter_.options().enabled ? limiter_.limit() : 0;
}

std::size_t ClusterRouter::limiter_in_flight() const {
  return limiter_.options().enabled ? limiter_.in_flight() : 0;
}

bool ClusterRouter::routable(std::size_t shard) const {
  // state() does not consume probe charges: client traffic only rides
  // shards the probe loop (or a prior client probe) has proven; the
  // Open -> HalfOpen recovery transition belongs to probe_shard().
  return shards_[shard]->breaker->state() == serve::CircuitState::Closed;
}

std::vector<std::size_t> ClusterRouter::candidate_order(std::uint64_t key) const {
  const std::vector<std::size_t> ids = active_ids();
  if (options_.policy == RoutingPolicy::ConsistentHash) {
    return rendezvous_order_subset(key, ids, options_.hash_salt);
  }
  // Least-loaded: ascending queue depth, index as the deterministic tie
  // break. Depths are sampled once per request — racy by nature, but a
  // stale read only costs a slightly suboptimal choice.
  std::vector<std::pair<std::size_t, std::size_t>> load;
  load.reserve(ids.size());
  for (const std::size_t s : ids) {
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    if (!server) continue;  // deactivating race: the slot is on its way out
    load.emplace_back(server->queue_depth(), s);
  }
  std::sort(load.begin(), load.end());
  std::vector<std::size_t> order;
  order.reserve(load.size());
  for (const auto& [depth, s] : load) order.push_back(s);
  return order;
}

std::future<serve::ServeResult> ClusterRouter::dispatch(std::size_t shard, const Dataset& queries,
                                                        const QueryOptions& qopt, bool is_probe,
                                                        std::uint64_t router_request) {
  Shard& sh = *shards_[shard];
  if (!is_probe) fault_point("crash:route");
  if (sh.partitioned.load(std::memory_order_acquire)) {
    throw ResourceError("cluster: shard " + std::to_string(shard) +
                        " unreachable (network partition)");
  }
  const std::shared_ptr<serve::ForestServer> server = server_of(shard);
  if (!server) {
    throw ResourceError("cluster: shard " + std::to_string(shard) + " has no server");
  }
  // <= 0 falls back to the server's own default deadline, matching a
  // direct submit(queries) call.
  const double deadline = qopt.deadline_seconds > 0.0
                              ? qopt.deadline_seconds
                              : server->options().default_deadline_seconds;
  return server->submit(queries, deadline, qopt.tenant, router_request);
}

void ClusterRouter::shard_failed(std::size_t shard) {
  shards_[shard]->failures.fetch_add(1, std::memory_order_relaxed);
  shards_[shard]->breaker->record_failure();
}

ClusterResult ClusterRouter::query(const Dataset& queries, const QueryOptions& qopt) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw ShutdownError("cluster router is shut down");
  }
  // Adaptive admission first: a refused request never touches a shard
  // queue, so overload is shed at the cheapest possible point.
  if (!limiter_.try_acquire()) {
    counters_.add("cluster.limited");
    throw OverloadError("cluster: adaptive concurrency limit reached (limit " +
                        std::to_string(limiter_.limit()) + ", in flight " +
                        std::to_string(limiter_.in_flight()) + "); back off and retry");
  }
  // Counted the moment the limiter admits it, so `submitted` never lags
  // the limiter's in-flight count (a refusal is never counted).
  counters_.add("cluster.submitted");
  WallTimer limiter_timer;
  try {
    ClusterResult out = query_routed(queries, qopt);
    limiter_.release(limiter_timer.seconds(), /*deadline_expired=*/false);
    return out;
  } catch (const DeadlineError&) {
    // A blown deadline is the AIMD backoff signal even when the p95
    // epoch has not filled yet.
    limiter_.release(limiter_timer.seconds(), /*deadline_expired=*/true);
    throw;
  } catch (...) {
    limiter_.release(limiter_timer.seconds(), /*deadline_expired=*/false);
    throw;
  }
}

ClusterResult ClusterRouter::query_routed(const Dataset& queries, const QueryOptions& qopt) {
  WallTimer request_timer;
  const std::vector<std::size_t> order = candidate_order(qopt.key);

  ClusterResult out;
  out.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  std::size_t next = 0;
  int started = 0;
  int quota_sheds = 0;
  const int budget = 1 + options_.max_failovers;
  std::exception_ptr last_error;

  // Starts an attempt on the next routable untried candidate. A dispatch
  // that throws (partition, crash:route, overload, shutdown) feeds the
  // shard breaker and moves on — it consumed a budget slot, matching the
  // "bounded cross-shard retry" contract.
  const auto next_attempt = [&]() -> std::optional<Attempt> {
    while (next < order.size() && started < budget) {
      const std::size_t s = order[next++];
      if (!routable(s)) continue;
      ++started;
      try {
        Attempt a{s, dispatch(s, queries, qopt, /*is_probe=*/false, out.request_id)};
        shards_[s]->routed.fetch_add(1, std::memory_order_relaxed);
        return a;
      } catch (const QuotaError&) {
        // The shard is healthy — this tenant is over its admission
        // quota. No breaker verdict and no failover count (nothing
        // failed), but the attempt still spent a budget slot: another
        // shard may have spare capacity for the tenant.
        last_error = std::current_exception();
        ++quota_sheds;
        counters_.add("cluster.quota_shed");
      } catch (const Error&) {
        // A reroute past a shard that refused the dispatch (dead,
        // partitioned, overloaded) is a failover the operator should see,
        // same as a started-then-failed attempt.
        last_error = std::current_exception();
        shard_failed(s);
        ++out.failovers;
        counters_.add("cluster.failovers");
        flight_event("cluster", "failover", "shard:" + std::to_string(s),
                     "dispatch refused");
      }
    }
    return std::nullopt;
  };

  std::optional<Attempt> primary = next_attempt();
  if (!primary) {
    counters_.add("cluster.no_shard_available");
    counters_.add("cluster.failed");
    if (last_error) std::rethrow_exception(last_error);
    throw OverloadError("cluster: no routable shard (all breakers open)");
  }

  std::optional<Attempt> hedge;
  bool hedge_spent = false;
  WallTimer hedge_timer;
  const double hedge_delay = options_.hedge.enabled ? effective_hedge_delay() : -1.0;

  while (primary || hedge) {
    if (primary && !hedge_spent && hedge_delay >= 0.0 &&
        hedge_timer.seconds() >= hedge_delay) {
      // One hedge per request, win or lose: hedging is a tail-latency
      // device, not extra retry budget.
      hedge_spent = true;
      hedge = next_attempt();
      if (hedge) {
        out.hedged = true;
        counters_.add("cluster.hedged");
        flight_event("cluster", "hedge_started", "shard:" + std::to_string(hedge->shard));
      }
    }

    for (std::optional<Attempt>* slot : {&primary, &hedge}) {
      if (!slot->has_value()) continue;
      const bool is_hedge = (slot == &hedge);
      Attempt& att = **slot;
      // Short poll slices keep the hedge timer honest while waiting.
      if (att.fut.wait_for(std::chrono::microseconds(500)) != std::future_status::ready) {
        continue;
      }
      try {
        out.result = att.fut.get();
        out.shard = att.shard;
        out.hedge_won = is_hedge;
        // A shed-then-served request is a degraded success: the tenant
        // was over quota somewhere, and the caller should see that in
        // the same trail as backend fallbacks — distinct from overload.
        if (quota_sheds > 0) {
          out.result.report.degradations.push_back(
              "cluster: tenant '" + qopt.tenant + "' quota-shed at " +
              std::to_string(quota_sheds) + " shard(s) -> served by shard " +
              std::to_string(att.shard));
        }
        shards_[att.shard]->breaker->record_success();
        counters_.add("cluster.completed");
        if (is_hedge) counters_.add("cluster.hedge_wins");
        // The other attempt (if any) is abandoned: its outcome is
        // unknown, so the breaker hears nothing about it.
        hist_route_.record_seconds(request_timer.seconds());
        return out;
      } catch (const DeadlineError&) {
        // Not a shard-health verdict — but a HalfOpen probe admission
        // must still be resolved (see CircuitBreaker::record_timeout).
        shards_[att.shard]->breaker->record_timeout();
        shards_[att.shard]->failures.fetch_add(1, std::memory_order_relaxed);
        last_error = std::current_exception();
      } catch (const Error&) {
        shard_failed(att.shard);
        last_error = std::current_exception();
      }
      const std::size_t failed_shard = att.shard;
      slot->reset();
      if (!is_hedge) {
        primary = next_attempt();
        if (primary) {
          ++out.failovers;
          counters_.add("cluster.failovers");
          flight_event("cluster", "failover", "shard:" + std::to_string(failed_shard),
                       "attempt failed -> shard:" + std::to_string(primary->shard));
          hedge_timer.reset();  // the hedge clock restarts with the attempt
        }
      }
    }
  }

  counters_.add("cluster.failed");
  if (last_error) std::rethrow_exception(last_error);
  throw OverloadError("cluster: request failed with no shard available");
}

RollingReloadReport ClusterRouter::rolling_reload(const serve::ModelStore& store,
                                                  std::uint64_t gen,
                                                  const RollingReloadOptions& opts) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  WallTimer timer;
  counters_.add("cluster.reload_waves");
  RollingReloadReport rep;
  rep.to_generation = gen;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->active.load(std::memory_order_acquire)) continue;
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    if (!server) continue;
    serve::ReloadReport r = server->reload(store, gen, opts.reload);
    const bool ok = r.promoted() || r.outcome == serve::ReloadOutcome::NoOp;
    rep.shards.push_back({s, std::move(r)});
    if (ok) continue;

    const serve::ReloadReport& bad = rep.shards.back().report;
    rep.reason = "shard " + std::to_string(s) + ": " +
                 (bad.reason.empty() ? std::string(serve::to_string(bad.outcome)) : bad.reason);
    counters_.add("cluster.reload_waves_halted");
    flight_event("reload", "wave_halted", "shard:" + std::to_string(s), rep.reason);
    if (opts.rollback_wave) {
      // Most recently promoted shard reverts first, so at every instant
      // the fleet is a contiguous mix of exactly two generations.
      for (std::size_t i = rep.shards.size() - 1; i-- > 0;) {
        const ShardReload& done = rep.shards[i];
        if (!done.report.promoted()) continue;
        serve::ReloadOptions rollback = opts.reload;
        // The wave-entry generation already proved itself in production;
        // a canary would stall the revert waiting for client traffic.
        rollback.canary_success_requests = 0;
        rollback.post_promotion_watch_requests = 0;
        serve::ReloadReport undo =
            server_of(done.shard)->reload(store, done.report.from_generation, rollback);
        counters_.add("cluster.shard_rollbacks");
        flight_event("reload", "shard_rolled_back", "shard:" + std::to_string(done.shard));
        rep.rollbacks.push_back({done.shard, std::move(undo)});
      }
    }
    rep.total_seconds = timer.seconds();
    return rep;
  }

  rep.completed = true;
  rep.total_seconds = timer.seconds();
  return rep;
}

void ClusterRouter::kill_shard(std::size_t shard) {
  require(shard < shards_.size(), "kill_shard: no such shard");
  const std::shared_ptr<serve::ForestServer> server = server_of(shard);
  require(server != nullptr, "kill_shard: slot has no server");
  shards_[shard]->alive.store(false, std::memory_order_release);
  flight_event("chaos", "shard_killed", "shard:" + std::to_string(shard));
  // Zero drain budget: queued requests fail with ShutdownError, as close
  // to kill -9 as an in-process shard gets.
  server->shutdown(0.0);
}

void ClusterRouter::set_partitioned(std::size_t shard, bool partitioned) {
  require(shard < shards_.size(), "set_partitioned: no such shard");
  shards_[shard]->partitioned.store(partitioned, std::memory_order_release);
}

std::size_t ClusterRouter::available_shards() const {
  std::size_t n = 0;
  for (const std::size_t s : active_ids()) {
    if (shards_[s]->alive.load(std::memory_order_acquire) &&
        !shards_[s]->partitioned.load(std::memory_order_acquire) && routable(s)) {
      ++n;
    }
  }
  return n;
}

serve::CircuitState ClusterRouter::shard_breaker_state(std::size_t shard) const {
  require(shard < shards_.size(), "shard_breaker_state: no such shard");
  return shards_[shard]->breaker->state();
}

serve::ForestServer& ClusterRouter::shard(std::size_t shard) {
  require(shard < shards_.size(), "shard: no such shard");
  const std::shared_ptr<serve::ForestServer> server = server_of(shard);
  require(server != nullptr, "shard: slot has no server");
  return *server;
}

void ClusterRouter::probe_loop() {
  std::unique_lock<std::mutex> lock(probe_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    probe_cv_.wait_for(lock, to_duration(options_.probe_interval_seconds),
                       [this] { return stopping_.load(std::memory_order_acquire); });
    if (stopping_.load(std::memory_order_acquire)) break;
    lock.unlock();
    for (const std::size_t s : active_ids()) probe_shard(s);
    lock.lock();
  }
}

void ClusterRouter::probe_shard(std::size_t shard) {
  Shard& sh = *shards_[shard];
  // allow_request() owns the Open -> HalfOpen transition: while the
  // breaker cools down this returns false and the shard rests.
  if (!sh.breaker->allow_request()) return;
  counters_.add("cluster.probes");
  try {
    QueryOptions probe_qopt;
    probe_qopt.deadline_seconds = options_.probe_deadline_seconds;
    std::future<serve::ServeResult> fut =
        dispatch(shard, probe_queries_, probe_qopt, /*is_probe=*/true);
    // Bounded wait, never .get() on a silent future: a frozen worker
    // holds queued requests past their deadline (shedding happens at
    // dispatch), and an unbounded wait would wedge the probe loop with
    // the shard. Abandoning the future is safe — the promise keeps the
    // shared state alive.
    const auto patience = to_duration(options_.probe_deadline_seconds + 0.05);
    if (fut.wait_for(patience) == std::future_status::ready) {
      fut.get();
      sh.breaker->record_success();
      return;
    }
    sh.breaker->record_failure();
  } catch (const QuotaError&) {
    // Admission answered — the shard is alive, the anonymous probe just
    // lost to quota pressure. Not a health verdict either way, but a
    // HalfOpen probe charge must still be resolved (record_timeout
    // re-opens HalfOpen and is a no-op when Closed). Without this, a
    // noisy neighbor filling the spare pool would trip every breaker
    // through the probe loop and collapse the fleet.
    sh.breaker->record_timeout();
    return;
  } catch (const Error&) {
    sh.breaker->record_failure();
  }
  counters_.add("cluster.probe_failures");
}

double ClusterRouter::effective_hedge_delay() const {
  const HistogramSnapshot snap = hist_route_.snapshot();
  if (snap.total < options_.hedge.min_samples) return options_.hedge.min_seconds;
  const double p95_seconds = snap.percentile_ns(95) / 1e9;
  return std::max(options_.hedge.min_seconds, options_.hedge.p95_multiplier * p95_seconds);
}

double ClusterRouter::hedge_delay_seconds() const { return effective_hedge_delay(); }

HistogramSnapshot ClusterRouter::route_latency() const { return hist_route_.snapshot(); }

serve::LatencyStats ClusterRouter::latency() const {
  serve::LatencyStats merged;
  // All slots that ever held a server, active or not: drained shards'
  // history stays in the fleet view until the slot is reused.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    if (!server) continue;
    const serve::LatencyStats one = server->latency();
    merged.queue_wait.merge(one.queue_wait);
    merged.execute.merge(one.execute);
    merged.end_to_end.merge(one.end_to_end);
    merged.reload.merge(one.reload);
    merged.batch_size.merge(one.batch_size);
  }
  return merged;
}

ClusterStats ClusterRouter::stats() const {
  ClusterStats out;
  out.shards = active_shards();
  out.available = available_shards();
  const std::map<std::string, std::uint64_t> c = counters_.snapshot();
  const auto get = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  out.submitted = get("cluster.submitted");
  out.completed = get("cluster.completed");
  out.failed = get("cluster.failed");
  out.failovers = get("cluster.failovers");
  out.hedged = get("cluster.hedged");
  out.hedge_wins = get("cluster.hedge_wins");
  out.no_shard_available = get("cluster.no_shard_available");
  out.quota_shed = get("cluster.quota_shed");
  out.limited = get("cluster.limited");
  out.scale_ups = get("cluster.scale_ups");
  out.scale_downs = get("cluster.scale_downs");
  out.probes = get("cluster.probes");
  out.probe_failures = get("cluster.probe_failures");
  out.reload_waves = get("cluster.reload_waves");
  out.reload_waves_halted = get("cluster.reload_waves_halted");
  out.shard_rollbacks = get("cluster.shard_rollbacks");
  // Status rows cover the active fleet (index order); drained or
  // never-activated slots are not part of the serving picture.
  for (const std::size_t s : active_ids()) {
    const Shard& sh = *shards_[s];
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    if (!server) continue;
    ShardStatus st;
    st.index = s;
    st.active = true;
    st.alive = sh.alive.load(std::memory_order_acquire);
    st.partitioned = sh.partitioned.load(std::memory_order_acquire);
    st.breaker = sh.breaker->state();
    st.queue_depth = server->queue_depth();
    st.generation = server->generation();
    st.routed = sh.routed.load(std::memory_order_relaxed);
    st.failures = sh.failures.load(std::memory_order_relaxed);
    const serve::SelfHealStats heal = server->self_heal();
    st.repairs = heal.scrub_repairs;
    st.worker_restarts = heal.watchdog_worker_restarts;
    out.shard_status.push_back(st);
  }
  return out;
}

obs::MetricsSnapshot ClusterRouter::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  // Zero-fill both catalogues so an idle cluster still exposes the full
  // schema (same contract as ForestServer::metrics_snapshot).
  for (const std::string& name : obs::counter_catalogue()) snap.counters[name] = 0;
  for (const std::string& name : obs::cluster_counter_catalogue()) snap.counters[name] = 0;
  for (const auto& [name, value] : counters_.snapshot()) snap.counters[name] += value;

  std::map<obs::RollupKey, obs::BackendRollup> merged_rollups;
  trace::TracerSummary traces{};
  double total_queue_depth = 0.0;
  double total_workers = 0.0;
  double worst_breaker = 0.0;  // in-server breakers, numeric max
  double min_generation = std::numeric_limits<double>::infinity();
  bool any_traces = false;
  // Tenant rows merge across shards by name (each shard runs the same
  // quota config; reserved slots sum to the fleet-wide reservation).
  std::vector<obs::TenantStat> tenants;
  std::map<std::string, std::size_t> tenant_index;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    const bool active = sh.active.load(std::memory_order_acquire);
    const std::shared_ptr<serve::ForestServer> server = server_of(s);
    // Cumulative series (counters, histograms, rollups, traces, tenant
    // admission counts) sum over every slot that ever served, so totals
    // stay monotonic across a scale_down; instantaneous gauges and the
    // health rows describe only the active fleet.
    if (!server) continue;
    const obs::MetricsSnapshot one = server->metrics_snapshot();
    for (const auto& [name, value] : one.counters) snap.counters[name] += value;
    // Stages merge by name, in the order the shards first report them.
    for (const auto& [stage, hist] : one.histograms) {
      const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                                   [&](const auto& h) { return h.first == stage; });
      if (it == snap.histograms.end()) {
        snap.histograms.emplace_back(stage, hist);
      } else {
        it->second.merge(hist);
      }
    }
    for (const auto& [key, rollup] : one.rollups) merged_rollups[key].merge(rollup);
    if (one.has_traces) {
      any_traces = true;
      traces.started += one.traces.started;
      traces.sampled += one.traces.sampled;
      traces.completed += one.traces.completed;
      traces.evicted += one.traces.evicted;
      traces.retained += one.traces.retained;
      traces.sampling = one.traces.sampling;  // uniform fleet config
      traces.capacity += one.traces.capacity;
    }
    for (const obs::TenantStat& t : one.tenants) {
      const auto [it, inserted] = tenant_index.try_emplace(t.name, tenants.size());
      if (inserted) {
        tenants.push_back(t);
        if (!active) {
          // Drained slot: keep the cumulative counts, drop the live ones.
          tenants.back().reserved = 0;
          tenants.back().queued = 0;
        }
        continue;
      }
      obs::TenantStat& row = tenants[it->second];
      row.admitted += t.admitted;
      row.shed += t.shed;
      if (active) {
        row.reserved += t.reserved;
        row.queued += t.queued;
      }
    }
    if (!active) continue;

    const auto g = one.gauges;
    const auto find_gauge = [&](const char* name) {
      const auto it = g.find(name);
      return it == g.end() ? 0.0 : it->second;
    };
    total_queue_depth += find_gauge("queue_depth");
    total_workers += find_gauge("workers");
    worst_breaker = std::max(worst_breaker, find_gauge("breaker_state"));
    min_generation = std::min(min_generation, find_gauge("model_generation"));

    obs::ShardHealth health;
    health.index = s;
    health.up = sh.alive.load(std::memory_order_acquire);
    health.partitioned = sh.partitioned.load(std::memory_order_acquire);
    health.breaker_state = static_cast<int>(sh.breaker->state());
    health.queue_depth = server->queue_depth();
    health.generation = server->generation();
    health.routed = sh.routed.load(std::memory_order_relaxed);
    health.failures = sh.failures.load(std::memory_order_relaxed);
    const serve::SelfHealStats heal = server->self_heal();
    health.repairs = heal.scrub_repairs;
    health.worker_restarts = heal.watchdog_worker_restarts;
    snap.shards.push_back(health);
  }

  snap.tenants = std::move(tenants);
  snap.gauges["queue_depth"] = total_queue_depth;
  snap.gauges["workers"] = total_workers;
  snap.gauges["breaker_state"] = worst_breaker;
  snap.gauges["model_generation"] = std::isfinite(min_generation) ? min_generation : 0.0;
  snap.gauges["cluster_shards"] = static_cast<double>(active_shards());
  snap.gauges["cluster_shards_available"] = static_cast<double>(available_shards());
  snap.gauges["cluster_hedge_delay_seconds"] = effective_hedge_delay();
  snap.gauges["cluster_concurrency_limit"] = static_cast<double>(concurrency_limit());
  snap.gauges["cluster_in_flight"] = static_cast<double>(limiter_in_flight());

  snap.histograms.emplace_back("route", hist_route_.snapshot());

  snap.rollups.assign(merged_rollups.begin(), merged_rollups.end());
  snap.traces = traces;
  snap.has_traces = any_traces;
  // The injector is process-global, so take its counts once here rather
  // than summing per-shard snapshots (which would multiply them).
  snap.fault_fired = FaultInjector::global().fired_counts();
  return snap;
}

}  // namespace hrf::cluster
