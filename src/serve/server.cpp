#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "serve/model_store.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace hrf::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

void stall(double seconds) { std::this_thread::sleep_for(to_duration(seconds)); }

std::string format_seconds(double s) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << s;
  return out.str();
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now().time_since_epoch())
          .count());
}

}  // namespace

void ForestServer::validate_options() const {
  require(options_.num_workers >= 1, "num_workers must be >= 1");
  require(options_.queue_capacity >= 1, "queue_capacity must be >= 1");
  require(options_.trace_sampling >= 0.0 && options_.trace_sampling <= 1.0,
          "trace_sampling must be in [0, 1]");
  require(options_.trace_capacity >= 1, "trace_capacity must be >= 1");
  require(options_.deadline_chunk_size >= 1, "deadline_chunk_size must be >= 1");
  require(options_.retry.max_retries >= 0, "retry.max_retries must be >= 0");
  require(options_.retry.backoff_base_seconds >= 0.0 &&
              options_.retry.backoff_max_seconds >= 0.0,
          "retry backoff seconds must be >= 0");
  require(options_.retry.jitter_fraction >= 0.0 && options_.retry.jitter_fraction <= 1.0,
          "retry.jitter_fraction must be in [0, 1]");
  require(options_.batching.max_wait_seconds >= 0.0,
          "batching.max_wait_seconds must be >= 0");
  require(options_.batching.deadline_fraction >= 0.0 &&
              options_.batching.deadline_fraction <= 1.0,
          "batching.deadline_fraction must be in [0, 1]");
  require(options_.integrity.scrub_interval_seconds >= 0.0,
          "integrity.scrub_interval_seconds must be >= 0");
  require(options_.integrity.hang_timeout_seconds >= 0.0,
          "integrity.hang_timeout_seconds must be >= 0");
  require(options_.integrity.audit_mismatch_threshold >= 1,
          "integrity.audit_mismatch_threshold must be >= 1");
  require(options_.integrity.monitor_poll_seconds > 0.0,
          "integrity.monitor_poll_seconds must be > 0");
  require(options_.integrity.inject_hang_seconds >= 0.0,
          "integrity.inject_hang_seconds must be >= 0");
}

std::shared_ptr<const ForestServer::WorkerModel> ForestServer::build_worker_model(
    const std::shared_ptr<const Forest>& forest, const CsrForest* csr,
    const HierarchicalForest* hier, std::uint64_t generation,
    std::shared_ptr<ModelHealth> health) const {
  // Precompiled layout when the store supplied one (shape/kind checked by
  // the Classifier ctor); otherwise compile from the forest.
  std::shared_ptr<const Classifier> primary;
  if (csr != nullptr) {
    primary = std::make_shared<const Classifier>(forest, *csr, classifier_options_);
  } else if (hier != nullptr) {
    primary = std::make_shared<const Classifier>(forest, *hier, classifier_options_);
  } else {
    primary = std::make_shared<const Classifier>(forest, classifier_options_);
  }
  auto model = std::make_shared<WorkerModel>();
  model->plan = build_degradation_plan(std::move(primary));
  model->generation = generation;
  model->health = std::move(health);
  // Scrubber reference: recaptured on every legitimate install (ctor,
  // reload, repair) because they all build their models right here.
  model->layout_crc = scrub_reference(model->primary());
  return model;
}

std::shared_ptr<const ForestServer::WorkerModel> ForestServer::model_for(std::size_t w) const {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  return slots_[w].model;
}

void ForestServer::install_model(std::size_t w, std::shared_ptr<const WorkerModel> m) {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  slots_[w].model = std::move(m);
}

void ForestServer::start_workers() {
  Xoshiro256 jitter_base(options_.seed);
  jitter_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    jitter_.push_back(jitter_base.split(static_cast<int>(w) + 1));
  }
  runtimes_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    runtimes_.push_back(std::make_unique<WorkerRuntime>());
  }
  started_ = !options_.start_paused;
  workers_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (integrity_enabled()) monitor_ = std::thread([this] { monitor_loop(); });
}

namespace {

/// Attaches a breaker-transition -> flight-recorder bridge when a
/// recorder is configured and the caller did not install its own hook.
/// Captures the recorder pointer and scope by value: the callback must
/// not depend on the server object (it can fire during construction).
CircuitBreakerOptions wire_breaker_events(CircuitBreakerOptions breaker,
                                          obs::FlightRecorder* recorder, std::string scope) {
  if (recorder != nullptr && !breaker.on_transition) {
    breaker.on_transition = [recorder, scope = std::move(scope)](CircuitState from,
                                                                CircuitState to) {
      const char* name = to == CircuitState::Open      ? "breaker_open"
                         : to == CircuitState::HalfOpen ? "breaker_probe"
                                                         : "breaker_closed";
      recorder->record("breaker", name, scope,
                       std::string(to_string(from)) + " -> " + to_string(to));
    };
  }
  return breaker;
}

}  // namespace

void ForestServer::flight_event(const char* category, const char* name,
                                std::string detail) const {
  if (options_.flight_recorder != nullptr) {
    options_.flight_recorder->record(category, name, options_.flight_scope, std::move(detail));
  }
}

namespace {

LoadedModel load_current(const ModelStore& store) {
  const std::optional<std::uint64_t> cur = store.current();
  if (!cur) {
    throw ConfigError("model store has no complete generation to serve: " + store.dir());
  }
  return store.load(*cur);
}

}  // namespace

ForestServer::ForestServer(std::shared_ptr<const Forest> forest,
                           ClassifierOptions classifier_options, ServerOptions options)
    : ForestServer(LoadedModel{0, std::move(forest), "", std::nullopt, std::nullopt},
                   classifier_options, options) {}

ForestServer::ForestServer(Forest forest, ClassifierOptions classifier_options,
                           ServerOptions options)
    : ForestServer(std::make_shared<const Forest>(std::move(forest)), classifier_options,
                   options) {}

ForestServer::ForestServer(const ModelStore& store, ClassifierOptions classifier_options,
                           ServerOptions options)
    : ForestServer(load_current(store), classifier_options, options) {}

ForestServer::ForestServer(const LoadedModel& m, ClassifierOptions classifier_options,
                           ServerOptions options)
    : options_(options),
      classifier_options_(classifier_options),
      slots_(options.num_workers),
      breaker_(wire_breaker_events(options.breaker, options.flight_recorder,
                                   options.flight_scope)),
      tracer_({options.trace_sampling, options.trace_capacity}) {
  validate_options();
  batch_granularity_ = backend_batch_granularity(classifier_options_.backend,
                                                 classifier_options_.gpu);
  if (options_.quotas.enabled()) quotas_.emplace(options_.quotas, options_.queue_capacity);
  auto health = std::make_shared<ModelHealth>();
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    install_model(w, build_worker_model(m.forest, m.csr ? &*m.csr : nullptr,
                                        m.hier ? &*m.hier : nullptr, m.generation, health));
  }
  current_generation_.store(m.generation, std::memory_order_release);
  start_workers();
}

ForestServer::~ForestServer() {
  try {
    shutdown();
  } catch (...) {
    // A destructor must not throw; the drain report is lost but every
    // queued promise was still failed with ShutdownError.
  }
}

std::future<ServeResult> ForestServer::submit(Dataset queries) {
  return submit(std::move(queries), options_.default_deadline_seconds);
}

std::future<ServeResult> ForestServer::submit(Dataset queries, double deadline_seconds,
                                              const std::string& tenant,
                                              std::uint64_t router_request) {
  counters_.add("requests.submitted");
  Request req;
  req.span = tracer_.start_trace("request");
  if (req.span.active()) {
    req.span.set_attr("queries", static_cast<std::uint64_t>(queries.num_samples()));
    if (deadline_seconds > 0.0) req.span.set_attr("deadline_s", deadline_seconds);
    if (!tenant.empty()) req.span.set_attr("tenant", tenant);
    if (router_request != 0) req.span.set_attr("router_request", router_request);
  }
  req.queries = std::move(queries);
  req.tenant = tenant;
  req.enqueued = SteadyClock::now();
  req.has_deadline = deadline_seconds > 0.0;
  if (req.has_deadline) req.deadline = req.enqueued + to_duration(deadline_seconds);
  std::future<ServeResult> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      counters_.add("requests.rejected_shutdown");
      req.span.set_attr("outcome", "rejected_shutdown");
      throw ShutdownError("server is shutting down; submission rejected");
    }
    if (quotas_) {
      // Quotas subsume the plain capacity check: every queued request
      // holds exactly one slot, and the slots sum to queue_capacity — so
      // a failed acquire always means *this tenant* is past its share,
      // never that another tenant's traffic displaced it.
      if (!quotas_->try_acquire(req.tenant)) {
        counters_.add("requests.rejected_quota");
        req.span.set_attr("outcome", "rejected_quota");
        flight_event("quota", "quota_shed",
                     "tenant " + (req.tenant.empty() ? "<anonymous>" : req.tenant));
        throw QuotaError("tenant '" + (req.tenant.empty() ? "<anonymous>" : req.tenant) +
                         "' exceeded its admission quota (" +
                         std::to_string(quotas_->reserved_slots(req.tenant)) +
                         " reserved slots + shared spare exhausted); back off and retry");
      }
    } else if (queue_.size() >= options_.queue_capacity) {
      counters_.add("requests.rejected_overload");
      req.span.set_attr("outcome", "rejected_overload");
      flight_event("overload", "overload_shed",
                   "queue full at " + std::to_string(options_.queue_capacity));
      throw OverloadError("request queue full (capacity " +
                          std::to_string(options_.queue_capacity) +
                          "); back off and retry");
    }
    req.queue_span = req.span.child("queue");
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return fut;
}

void ForestServer::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  cv_.notify_all();
}

DrainReport ForestServer::shutdown() { return shutdown(options_.drain_deadline_seconds); }

DrainReport ForestServer::shutdown(double drain_deadline_seconds) {
  // Serialized so a concurrent second shutdown() cannot double-join.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return drain_report_;
    accepting_ = false;
    started_ = true;  // a paused server still drains its backlog
    drain_deadline_ = SteadyClock::now() + to_duration(drain_deadline_seconds);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  // The monitor joins first: workers_/zombies_ are mutated only by it, so
  // once it is gone the join loops below race nothing. Any in-flight hang
  // is finite (inject_hang_seconds), so losing the watchdog here cannot
  // wedge the drain.
  monitor_stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  WallTimer timer;
  for (std::thread& t : workers_) t.join();
  for (std::thread& t : zombies_) t.join();

  DrainReport rep;
  rep.drain_seconds = timer.seconds();
  std::lock_guard<std::mutex> lock(mu_);
  rep.abandoned = queue_.size();
  rep.deadline_hit = !queue_.empty();
  for (Request& r : queue_) {
    if (quotas_) quotas_->release(r.tenant);
    r.promise.set_exception(std::make_exception_ptr(ShutdownError(
        "request abandoned: drain deadline (" + format_seconds(drain_deadline_seconds) +
        "s) passed during shutdown")));
  }
  queue_.clear();
  if (rep.abandoned > 0) counters_.add("requests.abandoned", rep.abandoned);
  rep.drained = drained_after_stop_.load(std::memory_order_relaxed);
  drain_report_ = rep;
  shut_down_ = true;
  return rep;
}

bool ForestServer::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepting_ && started_ && !stopping_.load(std::memory_order_relaxed);
}

bool ForestServer::healthy() const { return !worker_failed_.load(std::memory_order_relaxed); }

obs::MetricsSnapshot ForestServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap;
  // Zero-fill the documented names first, then overlay live values: an
  // idle server still exposes the full counter schema.
  for (const std::string& name : obs::counter_catalogue()) snap.counters[name] = 0;
  for (const auto& [name, value] : counters_.snapshot()) snap.counters[name] = value;
  snap.counters["breaker.trips"] = breaker_.trips();
  snap.counters["breaker.probes"] = breaker_.probes();
  snap.gauges["queue_depth"] = static_cast<double>(queue_depth());
  snap.gauges["workers"] = static_cast<double>(options_.num_workers);
  snap.gauges["breaker_state"] = static_cast<double>(breaker_.state());
  snap.gauges["model_generation"] =
      static_cast<double>(current_generation_.load(std::memory_order_acquire));
  snap.histograms = {{"queue_wait", hist_queue_wait_.snapshot()},
                     {"execute", hist_execute_.snapshot()},
                     {"end_to_end", hist_end_to_end_.snapshot()},
                     {"reload", hist_reload_.snapshot()},
                     {"batch_size", hist_batch_size_.snapshot()}};
  snap.rollups = rollups_.snapshot();
  snap.traces = tracer_.summary();
  snap.has_traces = true;
  // Fault-injector fire counts by site (empty unless chaos armed some):
  // a failing chaos run is debuggable from the snapshot alone.
  snap.fault_fired = FaultInjector::global().fired_counts();
  for (const TenantCounters& t : tenant_stats()) {
    obs::TenantStat row;
    row.name = t.name;
    row.weight = t.weight;
    row.reserved = t.reserved;
    row.queued = t.queued;
    row.admitted = t.admitted;
    row.shed = t.shed;
    snap.tenants.push_back(std::move(row));
  }
  return snap;
}

std::vector<TenantCounters> ForestServer::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quotas_ ? quotas_->snapshot() : std::vector<TenantCounters>{};
}

LatencyStats ForestServer::latency() const {
  LatencyStats s;
  s.queue_wait = hist_queue_wait_.snapshot();
  s.execute = hist_execute_.snapshot();
  s.end_to_end = hist_end_to_end_.snapshot();
  s.reload = hist_reload_.snapshot();
  s.batch_size = hist_batch_size_.snapshot();
  return s;
}

std::string LatencyStats::to_markdown() const {
  return latency_table_markdown({{"queue-wait", queue_wait},
                                 {"execute", execute},
                                 {"end-to-end", end_to_end},
                                 {"reload", reload}});
}

std::size_t ForestServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

DegradationPlan ForestServer::worker_plan(std::size_t w) const {
  require(w < options_.num_workers, "worker_plan: no such worker");
  return model_for(w)->plan;
}

ServerStats ForestServer::stats() const {
  ServerStats s;
  s.queue_depth = queue_depth();
  s.breaker = breaker_.state();
  s.breaker_trips = breaker_.trips();
  s.breaker_probes = breaker_.probes();
  s.submitted = counters_.value("requests.submitted");
  s.rejected_overload = counters_.value("requests.rejected_overload");
  s.rejected_quota = counters_.value("requests.rejected_quota");
  s.rejected_shutdown = counters_.value("requests.rejected_shutdown");
  s.shed_deadline = counters_.value("requests.shed_deadline");
  s.deadline_expired = counters_.value("requests.deadline_expired");
  s.completed = counters_.value("requests.completed");
  s.failed = counters_.value("requests.failed");
  s.retries = counters_.value("requests.retried");
  s.fallback_served = counters_.value("fallback.served");
  s.breaker_short_circuited = counters_.value("breaker.short_circuited");
  s.abandoned = counters_.value("requests.abandoned");
  s.model_generation = current_generation_.load(std::memory_order_acquire);
  s.reloads_promoted = counters_.value("reload.promoted");
  s.reloads_rejected = counters_.value("reload.rejected");
  s.reloads_rolled_back = counters_.value("reload.rolled_back");
  return s;
}

std::vector<ReloadReport> ForestServer::reload_history() const {
  std::lock_guard<std::mutex> lock(reload_history_mu_);
  return reload_history_;
}

void ForestServer::record_reload(const ReloadReport& rep) {
  hist_reload_.record_seconds(rep.total_seconds);
  const std::string gens =
      "gen " + std::to_string(rep.from_generation) + " -> " + std::to_string(rep.to_generation);
  switch (rep.outcome) {
    case ReloadOutcome::Promoted:
      counters_.add("reload.promoted");
      flight_event("reload", "reload_promoted", gens);
      break;
    case ReloadOutcome::NoOp:
      break;
    case ReloadOutcome::RejectedLoad:
    case ReloadOutcome::RejectedValidation:
    case ReloadOutcome::RejectedShadow:
      counters_.add("reload.rejected");
      flight_event("reload", "reload_rejected", gens + ": " + rep.reason);
      break;
    case ReloadOutcome::RolledBackCanary:
    case ReloadOutcome::RolledBackPostPromotion:
      counters_.add("reload.rolled_back");
      flight_event("reload", "reload_rolled_back", gens + ": " + rep.reason);
      break;
  }
  std::lock_guard<std::mutex> lock(reload_history_mu_);
  reload_history_.push_back(rep);
}

ForestServer::Request ForestServer::pop_front_locked() {
  Request req = std::move(queue_.front());
  queue_.pop_front();
  // The quota slot meters *queued* requests; it frees at dequeue so
  // a tenant's share caps its backlog, not its lifetime throughput.
  if (quotas_) quotas_->release(req.tenant);
  return req;
}

void ForestServer::worker_loop(std::size_t w) {
  try {
    const bool batching = options_.batching.enabled();
    for (;;) {
      // Liveness heartbeat for the watchdog (one relaxed store per loop).
      runtimes_[w]->heartbeat_ns.store(steady_ns(), std::memory_order_relaxed);
      std::vector<Request> batch;
      bool deadline_flush = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stopping_.load(std::memory_order_acquire) || (started_ && !queue_.empty());
        });
        if (stopping_.load(std::memory_order_acquire)) {
          if (queue_.empty()) return;                         // drained clean
          if (SteadyClock::now() >= drain_deadline_) return;  // budget exhausted
        }
        if (queue_.empty()) continue;
        batch.push_back(pop_front_locked());
        if (batching) {
          // Coalesce consecutive shape-compatible requests until the
          // former is full or its flush deadline passes (batcher.hpp).
          BatchFormer former(options_.batching, batch_granularity_);
          // Snapshot the head's shape: push_back below may reallocate
          // `batch`, so holding a reference into it would dangle.
          const auto head_features = batch.front().queries.num_features();
          const auto head_classes = batch.front().queries.num_classes();
          former.add(SteadyClock::now(), batch.front().queries.num_samples(),
                     batch.front().has_deadline, batch.front().deadline);
          for (;;) {
            if (former.should_flush(SteadyClock::now())) {
              // Closed by the wait deadline, not by filling up.
              deadline_flush = !former.full();
              break;
            }
            if (!queue_.empty()) {
              const Request& next = queue_.front();
              // Only shape-compatible neighbours join: a mismatched
              // request runs (or fails validation) alone rather than
              // poisoning a combined batch.
              if (next.queries.num_features() != head_features ||
                  next.queries.num_classes() != head_classes ||
                  !former.fits(next.queries.num_samples())) {
                break;
              }
              former.add(SteadyClock::now(), next.queries.num_samples(), next.has_deadline,
                         next.deadline);
              batch.push_back(pop_front_locked());
              continue;
            }
            if (stopping_.load(std::memory_order_acquire)) break;  // drain: flush now
            // Empty queue: sleep until an arrival or the flush deadline —
            // never a spin.
            if (!cv_.wait_until(lock, former.flush_deadline(), [&] {
                  return stopping_.load(std::memory_order_acquire) || !queue_.empty();
                })) {
              deadline_flush = true;
              break;
            }
          }
        }
      }
      if (batching) {
        hist_batch_size_.record_ns(static_cast<std::uint64_t>(batch.size()));
        CounterDeltas delta;
        ++delta["batch.formed"];
        if (deadline_flush) ++delta["batch.flush_deadline"];
        if (batch.size() >= 2) delta["requests.batched"] += batch.size();
        counters_.add_batch(delta);
      }
      // A false return means the watchdog declared this thread hung and
      // already replaced it.
      if (!dispatch(w, std::move(batch))) return;
    }
  } catch (...) {
    // Per-request failures are delivered through promises; only an
    // unexpected infrastructure error lands here. Flag it for healthy()
    // rather than taking the process down from a worker thread.
    worker_failed_.store(true, std::memory_order_relaxed);
  }
}

bool ForestServer::dispatch(std::size_t w, std::vector<Request> batch) {
  FaultInjector& inj = FaultInjector::global();
  // With a watchdog, publish the batch so it can be rescued, then
  // (possibly) wedge at the hang:worker site, then race the watchdog for
  // the claim: whoever claims first owns every member's promise, so a
  // rescue is never a lost or duplicate response. Without one, an
  // injected hang degenerates to a finite stall (the sleep is bounded
  // precisely so undefended runs still drain).
  std::shared_ptr<InFlight> inf;
  if (options_.integrity.hang_timeout_seconds > 0.0) {
    inf = std::make_shared<InFlight>();
    inf->dispatched = SteadyClock::now();
    inf->batch = std::move(batch);
    std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
    runtimes_[w]->inflight = inf;
  }
  if (inj.enabled() && inj.consume("hang:worker")) stall(options_.integrity.inject_hang_seconds);
  if (inf) {
    batch = inf->claim();
    runtimes_[w]->retire(inf);
    if (batch.empty()) return false;  // rescued: this thread was declared hung
  }
  if (inj.enabled()) {
    // Chaos sites, placed before the deadline check so a stalled member
    // lands in the shed path — exactly the deadline storm the cluster
    // router's hedging has to absorb (docs/cluster.md). freeze:batcher
    // wedges formed batches only; freeze:shard wedges any dispatch as if
    // the shard stalled; surge:tenant stalls once per member from the
    // configured tenant — a noisy neighbor whose requests are heavy as
    // well as frequent, so QoS tests get a deterministic hog.
    if (batch.size() >= 2 && inj.consume("freeze:batcher")) stall(options_.inject_freeze_seconds);
    if (inj.consume("freeze:shard")) stall(options_.inject_freeze_seconds);
    for (const Request& req : batch) {
      if (!options_.surge_tenant.empty() && req.tenant == options_.surge_tenant &&
          inj.consume("surge:tenant")) {
        stall(options_.inject_surge_seconds);
      }
    }
  }
  const TimePoint now = SteadyClock::now();
  for (Request& req : batch) end_queue_wait(req, now);
  // Shed expired members alone; their batchmates proceed unharmed.
  const auto expired = std::stable_partition(batch.begin(), batch.end(), [now](const Request& r) {
    return !r.has_deadline || now < r.deadline;
  });
  for (auto it = expired; it != batch.end(); ++it) {
    CounterDeltas shed{{"requests.shed_deadline", 1}};
    settle({&*it, 1}, shed, nullptr,
           std::make_exception_ptr(DeadlineError("deadline expired after " +
                                                 format_seconds(it->queue_seconds) +
                                                 "s in queue; shed before dispatch")),
           "shed_deadline");
  }
  batch.erase(expired, batch.end());
  if (!batch.empty()) run_dispatch(w, std::move(batch), CounterDeltas{}, /*rescue=*/false);
  return true;
}

void ForestServer::end_queue_wait(Request& req, TimePoint now) {
  req.queue_seconds = std::chrono::duration<double>(now - req.enqueued).count();
  hist_queue_wait_.record_seconds(req.queue_seconds);
  if (req.queue_span.active()) req.queue_span.set_attr("seconds", req.queue_seconds);
  req.queue_span.end();
}

void ForestServer::run_dispatch(std::size_t w, std::vector<Request> live, CounterDeltas delta,
                                bool rescue) {
  // One model snapshot per dispatch: a concurrent reload flips the slot
  // pointer, but these members run start to finish on the model grabbed
  // here.
  const std::shared_ptr<const WorkerModel> m = model_for(w);
  // A batch executes as one contiguous feature span: each member's rows
  // are appended once; labels never travel.
  QueryView rows = live.front().queries;
  std::vector<float> gathered;
  if (live.size() > 1) {
    std::size_t n = 0;
    for (const Request& req : live) n += req.queries.num_samples();
    gathered.reserve(n * rows.num_features());
    for (Request& req : live) {
      const std::span<const float> features = req.queries.features();
      gathered.insert(gathered.end(), features.begin(), features.end());
      if (req.span.active()) {
        req.span.set_attr("batch_members", static_cast<std::uint64_t>(live.size()));
        req.span.set_attr("batch_rows", static_cast<std::uint64_t>(n));
      }
    }
    rows = QueryView(gathered.data(), n, rows.num_features());
  }

  // The first member's trace hosts the execution spans; every member's
  // own root span still records the batch shape and outcome.
  trace::Span exec_span = live.front().span.child("execute");
  if (exec_span.active()) {
    exec_span.set_attr("worker", static_cast<std::uint64_t>(w));
    if (rescue) exec_span.set_attr("watchdog_rescue", true);
  }
  WallTimer timer;
  ServeResult served;
  std::exception_ptr error;
  bool expired = false;
  try {
    served = run_chain(w, *m, rows, live, exec_span, delta, rescue);
  } catch (const DeadlineError&) {
    expired = true;  // cancelled at the loosest member deadline: every member expired
    error = std::current_exception();
  } catch (...) {
    error = std::current_exception();
  }
  exec_span.end();
  served.service_seconds = timer.seconds();
  if (error && !expired && live.size() > 1) {
    // A fault the batch cannot pin on one member — typically ConfigError
    // from combined validation (one malformed row). Re-run each member
    // alone: the poison request fails with its own error and batchmates
    // complete normally. No promise was fulfilled yet, so no double-set.
    counters_.add_batch(delta);
    for (Request& req : live) {
      std::vector<Request> one;
      one.push_back(std::move(req));
      run_dispatch(w, std::move(one), CounterDeltas{}, rescue);
    }
    return;
  }
  if (expired) delta["requests.deadline_expired"] += live.size();
  settle(live, delta, error ? nullptr : &served, error);
}

ServeResult ForestServer::run_chain(std::size_t w, const WorkerModel& m, QueryView rows,
                                    const std::vector<Request>& members,
                                    const trace::Span& span, CounterDeltas& delta,
                                    bool rescue) {
  ServeResult out;
  const auto step_desc = [](const PlanStep& step) {
    return std::string(to_string(step.classifier->options().backend)) + "/" +
           to_string(step.variant);
  };
  const std::string primary_desc = step_desc(m.plan.front());
  if (span.active()) {
    span.set_attr("generation", m.generation);
    span.set_attr("primary", primary_desc);
  }
  const std::size_t cpu = m.plan.size() - 1;
  std::size_t i = 0;  // the rung being tried
  std::vector<std::string> trail;
  bool answered = false;
  bool primary_errored = false;  // retries exhausted: this model's primary is sick
  if (rescue) {
    trail.push_back("watchdog: worker " + std::to_string(w) + " hung past hang_timeout");
    i = cpu;
  } else if (!breaker_.allow_request()) {
    ++delta["breaker.short_circuited"];  // one verdict covers the whole dispatch
    if (span.active()) {
      span.set_attr("breaker", to_string(breaker_.state()));
      span.set_attr("short_circuited", true);
    }
    trail.push_back("serve: breaker open: skipped primary " + primary_desc);
    i = cpu;
  } else {
    if (span.active()) span.set_attr("breaker", to_string(breaker_.state()));
    std::optional<TimePoint> tightest;
    for (const Request& req : members) {
      if (req.has_deadline && (!tightest || req.deadline < *tightest)) tightest = req.deadline;
    }
    const int tries = 1 + options_.retry.max_retries;
    std::string last_error;
    for (int attempt = 0; attempt < tries && !answered; ++attempt) {
      trace::Span attempt_span = span.child("attempt-" + std::to_string(attempt));
      try {
        out.report = classify_members(m.plan.front(), rows, members, attempt_span);
        breaker_.record_success();
        answered = true;
      } catch (const DeadlineError&) {
        // The attempt outlived the deadline: not a backend verdict, so no
        // failure is counted — but a HalfOpen probe must still resolve the
        // charge it spent at allow_request(), else the breaker is stuck
        // HalfOpen with zero budget (see record_timeout).
        breaker_.record_timeout();
        throw;
      } catch (const ResourceError& e) {
        breaker_.record_failure();
        last_error = e.what();
        attempt_span.set_attr("error", last_error);
        if (attempt + 1 == tries) break;
        ++out.retries;
        ++delta["requests.retried"];  // one backend attempt retried, every member aboard
        // Deterministic jitter (per-worker stream of the server seed)
        // spreads retries from concurrent workers so they do not
        // re-converge on the recovering backend in lockstep. A nap that
        // would outlive the tightest member deadline ends the retries
        // instead of burning the remaining budget.
        const double backoff = retry_backoff_seconds(options_.retry, attempt, jitter_[w]);
        if (tightest && SteadyClock::now() + to_duration(backoff) >= *tightest) break;
        stall(backoff);
      }
    }
    if (!answered) {
      primary_errored = true;
      trail.push_back("serve: primary " + primary_desc + " failed after " +
                      std::to_string(out.retries + 1) + " attempt(s) (" + last_error + ")");
      i = breaker_.state() == CircuitState::Open ? cpu : 1;  // tripped just now?
    }
  }
  // The rest of the ladder, one try per step (the CPU step cannot raise
  // ResourceError).
  while (!answered) {
    const PlanStep& step = m.plan[i];
    trail.push_back("degrade: " + step.note);
    trace::Span step_span = span.child(i == cpu ? "fallback" : "step-" + std::to_string(i));
    try {
      out.report = classify_members(step, rows, members, step_span);
      answered = true;
    } catch (const ResourceError& e) {
      if (i == cpu) throw;
      step_span.set_attr("error", std::string(e.what()));
      trail.push_back("serve: " + step_desc(step) + " failed (" + e.what() + ")");
      ++i;
    }
  }
  rollups_.record(to_string(m.plan[i].variant),
                  to_string(m.plan[i].classifier->options().backend), m.generation, out.report);
  if (!trail.empty() && m.generation > 0) {
    trail.back() += " [gen " + std::to_string(m.generation) + "]";
  }
  out.report.degradations = std::move(trail);
  if (i == cpu) {
    out.via_fallback = true;
    delta["fallback.served"] += members.size();
  } else {
    maybe_audit(w, m, rows, members.size(), out.report, delta);
  }
  // Health after the fact: a degraded request still completed, but a
  // primary failure is what the canary / post-promotion watch act on.
  if (primary_errored) m.health->primary_errors.fetch_add(1, std::memory_order_relaxed);
  m.health->completed.fetch_add(members.size(), std::memory_order_relaxed);
  return out;
}

RunReport ForestServer::classify_members(const PlanStep& step, QueryView rows,
                                         const std::vector<Request>& members,
                                         const trace::Span& span) const {
  // Cancellation policy: a run may only be cancelled when every member
  // carries a deadline, and then at the *loosest* of them — at that
  // instant every member is past its own deadline, so failing the whole
  // dispatch strands nobody who still had budget. One deadline-less member
  // pins the run to one chunk (its batchmates shed at dispatch or simply
  // receive their answer late, same as a slow single request).
  std::optional<TimePoint> loosest;
  for (const Request& req : members) {
    if (!req.has_deadline) {
      loosest.reset();
      break;
    }
    loosest = std::max(loosest.value_or(req.deadline), req.deadline);
  }
  // Time-boxed execution runs in chunks, cancel polled between them, so an
  // expired dispatch stops burning the backend after at most one chunk.
  const std::size_t n = rows.num_samples();
  const std::size_t chunk = loosest ? options_.deadline_chunk_size : n;
  const std::size_t chunks = loosest ? n / chunk + (n % chunk != 0) : 1;
  RunReport out;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, n);
    if (loosest && SteadyClock::now() >= *loosest) {
      throw DeadlineError("deadline expired during execution (" + std::to_string(lo) + " of " +
                          std::to_string(n) + " queries done)");
    }
    trace::Span chunk_span = loosest ? span.child("chunk-" + std::to_string(c)) : trace::Span{};
    RunReport r = step.classifier->classify(rows.rows(lo, hi), step.variant);
    if (chunk_span.active()) {
      chunk_span.set_attr("queries", static_cast<std::uint64_t>(hi - lo));
      chunk_span.set_attr("seconds", r.seconds);
      set_backend_span_attrs(chunk_span, r);
    }
    if (c == 0) {
      out = std::move(r);  // a one-chunk run is that chunk's report, whole
      continue;
    }
    // Later chunks fold in: counters and cycles sum; the FPGA report keeps
    // the first chunk's descriptive fields (clock, II, limiter). Per-launch
    // device timing does not sum, so a multi-chunk run carries none.
    out.predictions.insert(out.predictions.end(), r.predictions.begin(), r.predictions.end());
    out.seconds += r.seconds;
    out.gpu_timing.reset();
    if (r.gpu_counters) *out.gpu_counters += *r.gpu_counters;
    if (r.fpga_report) {
      fpgasim::FpgaReport& f = *out.fpga_report;
      f.seconds += r.fpga_report->seconds;
      f.pipeline_cycles += r.fpga_report->pipeline_cycles;
      f.total_cycles += r.fpga_report->total_cycles;
      f.stall_pct =
          f.total_cycles > 0.0 ? 100.0 * (1.0 - f.pipeline_cycles / f.total_cycles) : 0.0;
    }
  }
  if (span.active()) {
    if (loosest) span.set_attr("chunks", static_cast<std::uint64_t>(chunks));
    span.set_attr("seconds", out.seconds);
    set_backend_span_attrs(span, out);
  }
  return out;
}

void ForestServer::settle(std::span<Request> members, CounterDeltas& delta, ServeResult* served,
                          std::exception_ptr error, const char* failed_outcome) {
  delta[served != nullptr ? "requests.completed" : "requests.failed"] += members.size();
  counters_.add_batch(delta);
  // Demultiplex: each member takes its slice of the predictions plus a
  // copy of the shared timing / degradation / backend-counter trail; a
  // lone member takes the report whole.
  std::vector<std::uint8_t> combined;
  if (served != nullptr && members.size() > 1) combined.swap(served->report.predictions);
  const bool draining = stopping_.load(std::memory_order_relaxed);
  std::size_t offset = 0;
  for (Request& req : members) {
    if (served == nullptr) {
      req.span.set_attr("outcome", failed_outcome);
      req.span.end();  // retire the trace before the client's future wakes
      req.promise.set_exception(error);
      continue;
    }
    ServeResult res = members.size() == 1 ? std::move(*served) : *served;
    if (members.size() > 1) {
      const auto begin = combined.begin() + static_cast<std::ptrdiff_t>(offset);
      offset += req.queries.num_samples();
      res.report.predictions.assign(begin, combined.begin() + static_cast<std::ptrdiff_t>(offset));
    }
    res.queue_seconds = req.queue_seconds;
    hist_execute_.record_seconds(res.service_seconds);
    hist_end_to_end_.record_seconds(res.queue_seconds + res.service_seconds);
    if (draining) drained_after_stop_.fetch_add(1, std::memory_order_relaxed);
    req.span.set_attr("outcome", "completed");
    // End (and retire) the root span before fulfilling the promise: once
    // the client's future.get() returns, metrics_snapshot() must already
    // count this trace as completed.
    req.span.end();
    req.promise.set_value(std::move(res));
  }
}

// --- Integrity monitor (scrubber / shadow audits / watchdog) ------------

bool ForestServer::integrity_enabled() const {
  const IntegrityOptions& i = options_.integrity;
  return i.scrub_interval_seconds > 0.0 || i.hang_timeout_seconds > 0.0 ||
         i.audit_sample_every > 0;
}

SelfHealStats ForestServer::self_heal() const {
  SelfHealStats s;
  s.scrub_passes = counters_.value("scrub.passes");
  s.scrub_corruptions = counters_.value("scrub.corruptions");
  s.scrub_repairs = counters_.value("scrub.repairs");
  s.audit_sampled = counters_.value("audit.sampled");
  s.audit_mismatches = counters_.value("audit.mismatches");
  s.watchdog_missed_heartbeats = counters_.value("watchdog.missed_heartbeats");
  s.watchdog_worker_restarts = counters_.value("watchdog.worker_restarts");
  return s;
}

bool ForestServer::install_model_if(std::size_t w,
                                    const std::shared_ptr<const WorkerModel>& expected,
                                    std::shared_ptr<const WorkerModel> next) {
  std::lock_guard<std::mutex> lock(slots_[w].mu);
  if (slots_[w].model != expected) return false;
  slots_[w].model = std::move(next);
  return true;
}

void ForestServer::maybe_audit(std::size_t w, const WorkerModel& m, QueryView rows,
                               std::size_t requests, RunReport& report, CounterDeltas& delta) {
  const std::size_t every = options_.integrity.audit_sample_every;
  if (every == 0) return;
  // Ticks [first, first + requests) belong to this dispatch; it is
  // sampled when one of them is a multiple of `every`.
  const std::uint64_t first = audit_tick_.fetch_add(requests, std::memory_order_relaxed);
  if (first % every != 0 && first % every + requests <= every) return;
  ++delta["audit.sampled"];
  RunReport oracle;
  try {
    oracle = m.oracle().classify(rows);
  } catch (...) {
    return;  // an oracle failure is its own incident, not replica evidence
  }
  if (oracle.predictions == report.predictions) {
    runtimes_[w]->audit_streak.store(0, std::memory_order_relaxed);
    return;
  }
  ++delta["audit.mismatches"];
  flight_event("integrity", "audit_mismatch", "worker " + std::to_string(w));
  // The oracle is authoritative — every variant/backend agrees
  // bit-for-bit on an uncorrupted layout (the cross-backend equivalence
  // the tier-1 suite pins) — so serve its answer and note the divergence.
  report.predictions = oracle.predictions;
  report.degradations.push_back("audit: worker " + std::to_string(w) +
                                " diverged from the cpu oracle -> served oracle result");
  const int streak = runtimes_[w]->audit_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= options_.integrity.audit_mismatch_threshold) {
    // One mismatch could be the audit racing something legitimate; K in a
    // row on one replica cannot. Hand the repair to the monitor thread.
    runtimes_[w]->repair_requested.store(true, std::memory_order_release);
  }
}

void ForestServer::monitor_loop() {
  FaultInjector& inj = FaultInjector::global();
  const IntegrityOptions& iopt = options_.integrity;
  TimePoint last_scrub = SteadyClock::now();
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    stall(iopt.monitor_poll_seconds);
    if (monitor_stop_.load(std::memory_order_acquire)) break;
    // Chaos: corrupt one replica copy-and-swap (readers never race the
    // flip; only the scrubber's CRC or an audit can tell).
    if (inj.enabled() && inj.consume("corrupt:replica")) inject_replica_corruption();
    if (iopt.hang_timeout_seconds > 0.0) watchdog_scan();
    for (std::size_t w = 0; w < options_.num_workers; ++w) {
      if (runtimes_[w]->repair_requested.exchange(false, std::memory_order_acq_rel)) {
        repair_replica(w, model_for(w));
      }
    }
    if (iopt.scrub_interval_seconds > 0.0 &&
        SteadyClock::now() - last_scrub >= to_duration(iopt.scrub_interval_seconds)) {
      last_scrub = SteadyClock::now();
      scrub_pass();
    }
  }
}

void ForestServer::watchdog_scan() {
  const TimePoint now = SteadyClock::now();
  const SteadyClock::duration threshold = to_duration(options_.integrity.hang_timeout_seconds);
  const std::uint64_t now_ns = steady_ns();
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    std::shared_ptr<InFlight> inf;
    {
      std::lock_guard<std::mutex> lock(runtimes_[w]->mu);
      inf = runtimes_[w]->inflight;
    }
    if (!inf || now - inf->dispatched < threshold) continue;
    // Corroborate with the loop heartbeat: a worker that stamped recently
    // is alive (mid-claim), whatever the in-flight timestamp says.
    const std::uint64_t beat = runtimes_[w]->heartbeat_ns.load(std::memory_order_relaxed);
    if (now_ns - beat < static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(threshold)
                                .count())) {
      continue;
    }
    std::vector<Request> rescued = inf->claim();
    if (rescued.empty()) continue;  // the worker woke up and claimed first
    counters_.add("watchdog.missed_heartbeats");
    // Answer every member on the plan's CPU step, with the full
    // counter/histogram/trace treatment of a normal completion plus a
    // watchdog note — never a lost response.
    for (Request& req : rescued) end_queue_wait(req, SteadyClock::now());
    run_dispatch(w, std::move(rescued), CounterDeltas{}, /*rescue=*/true);
    // The wedged thread fails its claim and exits; park its handle and
    // run a replacement in its slot (joined with everyone at shutdown).
    zombies_.push_back(std::move(workers_[w]));
    workers_[w] = std::thread([this, w] { worker_loop(w); });
    counters_.add("watchdog.worker_restarts");
    flight_event("integrity", "watchdog_restart", "worker " + std::to_string(w));
    runtimes_[w]->retire(inf);
  }
}

std::uint32_t ForestServer::scrub_reference(const Classifier& clf) const {
  return options_.integrity.scrub_interval_seconds > 0.0 ? replica_crc32(clf) : 0;
}

void ForestServer::scrub_pass() {
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    const std::shared_ptr<const WorkerModel> m = model_for(w);
    counters_.add("scrub.passes");
    if (replica_crc32(m->primary()) == m->layout_crc) continue;
    counters_.add("scrub.corruptions");
    flight_event("integrity", "scrub_corruption", "worker " + std::to_string(w));
    repair_replica(w, m);
  }
}

void ForestServer::repair_replica(std::size_t w, std::shared_ptr<const WorkerModel> suspect) {
  // Quarantine first: the CPU oracle replica (never corrupted — audits
  // and rescues already trust it) takes over as primary, so this worker
  // keeps answering correctly for the whole rebuild.
  auto degraded = std::make_shared<WorkerModel>(*suspect);
  const PlanStep& oracle = suspect->plan.back();
  degraded->plan = {PlanStep{oracle.classifier, oracle.variant, ""}, oracle};
  degraded->layout_crc = scrub_reference(degraded->primary());
  if (!install_model_if(w, suspect, degraded)) return;  // a reload got there first
  flight_event("integrity", "replica_quarantined", "worker " + std::to_string(w));
  runtimes_[w]->audit_streak.store(0, std::memory_order_relaxed);

  // Rebuild over the generation's shared forest (immutable, so never the
  // corrupted part). Preferred layout source: the store's current
  // generation, whose blob CRCs are re-verified on read; otherwise
  // recompile the layout from that forest.
  const std::shared_ptr<const Forest>& forest = suspect->oracle().shared_forest();
  std::shared_ptr<const WorkerModel> fresh;
  if (!options_.integrity.rebuild_store_dir.empty()) {
    try {
      const ModelStore store = ModelStore::open(options_.integrity.rebuild_store_dir);
      const std::optional<std::uint64_t> cur = store.current();
      if (cur && *cur == suspect->generation) {
        const LoadedModel lm = store.load(*cur);
        fresh = build_worker_model(forest, lm.csr ? &*lm.csr : nullptr,
                                   lm.hier ? &*lm.hier : nullptr, lm.generation, suspect->health);
      }
    } catch (const std::exception&) {
      fresh = nullptr;  // unusable store: recompile below instead
    }
  }
  if (!fresh) {
    try {
      fresh = build_worker_model(forest, nullptr, nullptr, suspect->generation,
                                 suspect->health);
    } catch (const std::exception&) {
      return;  // keep serving degraded-but-correct on the oracle
    }
  }
  if (install_model_if(w, degraded, std::move(fresh))) {
    counters_.add("scrub.repairs");
    flight_event("integrity", "replica_repaired", "worker " + std::to_string(w));
  }
}

void ForestServer::inject_replica_corruption() {
  const std::size_t w = corrupt_rr_++ % options_.num_workers;
  const std::shared_ptr<const WorkerModel> m = model_for(w);
  const Classifier& primary = m->primary();
  // FilBaseline has no layout to corrupt a copy of; its image is derived
  // from the forest, which the oracle shares.
  if (primary.options().variant == Variant::FilBaseline) return;
  std::shared_ptr<const Classifier> corrupted;
  try {
    if (primary.options().variant == Variant::Csr) {
      corrupted = std::make_shared<const Classifier>(
          primary.shared_forest(), corrupt_replica_copy(primary.csr()), classifier_options_);
    } else {
      corrupted = std::make_shared<const Classifier>(
          primary.shared_forest(), corrupt_replica_copy(primary.hierarchical()),
          classifier_options_);
    }
  } catch (const std::exception&) {
    return;  // e.g. a stump forest with no internal node: nothing to flip
  }
  // Keep the pristine reference CRC (copied with the rest of the model):
  // the whole point is that the live layout now drifts from it, which
  // only the scrubber/audits can see. Every rung that ran the primary's
  // layout (the variant downgrade) now runs the corrupted copy.
  auto poisoned = std::make_shared<WorkerModel>(*m);
  for (PlanStep& step : poisoned->plan) {
    if (step.classifier.get() == &primary) step.classifier = corrupted;
  }
  install_model_if(w, m, std::move(poisoned));
}

double retry_backoff_seconds(const RetryPolicy& policy, int attempt, Xoshiro256& rng) {
  // ldexp scales by 2^attempt exactly (no libm rounding variance), so the
  // whole expression is reproducible bit-for-bit across platforms.
  const double exponential = std::ldexp(policy.backoff_base_seconds, attempt);
  double backoff = std::min(exponential, policy.backoff_max_seconds);
  backoff *= 1.0 + policy.jitter_fraction * rng.uniform(-1.0, 1.0);
  return backoff;
}

}  // namespace hrf::serve
