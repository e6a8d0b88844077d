#pragma once

// Concurrent serving layer over the Classifier (docs/serving.md).
//
// A ForestServer owns a pool of worker threads, each holding its own
// degradation plan (core/degradation_plan.hpp: primary Classifier replica
// first, CPU-native fallback replica last), fed from one bounded MPMC
// request queue. Robustness features,
// in request order:
//
//   admission   queue full -> submit() throws OverloadError immediately
//               (bounded memory, fast feedback) instead of queueing
//               unboundedly; after shutdown begins, ShutdownError.
//   deadlines   a request past its deadline is shed before dispatch, and
//               time-boxed during execution by chunked classification
//               (cancel polled between chunks) — both DeadlineError.
//   retry       transient ResourceError from the primary is retried with
//               exponential backoff + deterministic jitter, then each
//               later step of the plan is tried once.
//   breaker     a per-server circuit breaker trips after N consecutive
//               primary failures; while open, requests route straight to
//               the CPU-native fallback (bit-identical predictions, noted
//               in RunReport::degradations), and probe requests half-open
//               it before it closes.
//   drain       shutdown() stops admission, drains in-flight and queued
//               requests up to a drain deadline, and fails whatever is
//               left with ShutdownError, reporting counts.
//   reload      zero-downtime model swap from a versioned ModelStore:
//               candidate replicas are built off-thread, shadow-validated
//               against the CPU oracle, canaried on one worker, then
//               promoted via an atomic per-worker slot flip — with
//               automatic rollback on any failure (serve/reload.hpp,
//               docs/model-lifecycle.md).
//   integrity   runtime silent-corruption defense (serve/integrity.hpp):
//               a background scrubber re-verifies each replica's layout
//               CRC against the value captured at install; sampled shadow
//               audits re-execute every Nth request on the CPU oracle
//               (serving the oracle's answer on divergence); a watchdog
//               answers a hung worker's in-flight batch on the oracle
//               and replaces the thread. A corrupted replica is
//               quarantined (the oracle serves as primary) and rebuilt in
//               place while the other workers keep serving.
//
// One dispatch path: a worker hands every formed batch to dispatch() —
// size 1 unless micro-batching (ServerOptions::batching) coalesced more;
// a lone request is simply a batch of one. Each dispatch fires the
// dispatch fault sites, sheds expired members, gathers the surviving
// rows (no copy for one member), walks the plan once, shadow-audits
// device runs, and settles every member through one completion/failure
// step. The watchdog's rescue is the plan's CPU step, so audits and
// hung-worker rescue cover batches too.
//
// Composition with the fault-injection harness (util/fault): injection
// sites fire inside worker threads, driving the retry, ladder and breaker
// paths deterministically in tests.
//
// Model hot-swap memory model: each worker owns a *slot* holding a
// shared_ptr to an immutable WorkerModel (degradation plan + generation +
// shared health counters). A worker snapshots the pointer
// once per dispatch, so an in-flight request finishes entirely on the
// model it started with; reload flips the pointers between dispatches.
// Slots are mutex-guarded (uncontended in steady state — one lock per
// dispatch) rather than lock-free, keeping the swap trivially TSan-clean.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "core/degradation_plan.hpp"
#include "obs/exporter.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/rollup.hpp"
#include "serve/batcher.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/integrity.hpp"
#include "serve/qos.hpp"
#include "serve/reload.hpp"
#include "util/histogram.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hrf::serve {

class ModelStore;
struct LoadedModel;

/// Server-level retry of transient primary-backend failures: the only
/// retry budget a request has (later steps of the degradation plan are
/// tried once). Backs off between attempts, so a device that needs a
/// moment to recover is not hammered.
struct RetryPolicy {
  int max_retries = 2;                 // extra primary attempts per request
  double backoff_base_seconds = 1e-3;  // first backoff; doubles per attempt
  double backoff_max_seconds = 0.1;    // exponential growth cap
  double jitter_fraction = 0.5;        // backoff scaled by 1 +/- U*fraction
};

/// Jittered exponential backoff for 0-based `attempt`:
/// min(base * 2^attempt, max) scaled by 1 + jitter_fraction * U(-1, 1)
/// with U drawn from `rng`. Pure given the rng state: a fixed seed
/// reproduces the exact sequence bit-for-bit on any platform (the base
/// is scaled by ldexp, not pow, so no libm rounding leaks in), which the
/// chaos harness's deterministic replays rely on.
double retry_backoff_seconds(const RetryPolicy& policy, int attempt, Xoshiro256& rng);

struct ServerOptions {
  std::size_t num_workers = 2;
  std::size_t queue_capacity = 64;
  /// Applied to submit(queries) without an explicit deadline; 0 = none.
  double default_deadline_seconds = 0.0;
  /// Chunk size for deadline-bounded (time-boxed) execution.
  std::size_t deadline_chunk_size = 256;
  RetryPolicy retry{};
  CircuitBreakerOptions breaker{};
  /// Default drain budget for shutdown() / the destructor.
  double drain_deadline_seconds = 5.0;
  /// When true, workers do not dequeue until resume() — admission is
  /// still open, which tests and warmup flows use to stage a backlog
  /// deterministically.
  bool start_paused = false;
  /// Seed for backoff jitter (per-worker streams split from it).
  std::uint64_t seed = 42;
  /// Request-trace sampling rate in [0, 1] (util/trace): 0 disables
  /// tracing entirely (span operations become no-ops), 1 records every
  /// request. Sampling is deterministic — rate r records every 1/r-th
  /// submission.
  double trace_sampling = 0.0;
  /// Completed traces retained in the tracer's ring buffer.
  std::size_t trace_capacity = 128;
  /// How long a worker stalls when the `freeze:shard` fault site fires at
  /// dispatch (chaos only; the site is never armed in production). The
  /// frozen worker then proceeds normally — typically into the
  /// deadline-shed path, which is the point: a wedged shard that the
  /// cluster router's hedging and probes must route around.
  double inject_freeze_seconds = 0.25;
  /// Per-tenant admission quotas (serve/qos.hpp): weighted reserved
  /// shares of queue_capacity plus a shared spare pool. Empty = disabled.
  TenantQuotaOptions quotas{};
  /// Tenant whose requests the `surge:tenant` fault site stalls, and for
  /// how long per charge (chaos only — a deterministic noisy neighbor
  /// whose requests are heavy as well as frequent).
  std::string surge_tenant;
  double inject_surge_seconds = 0.05;
  /// Dynamic micro-batching (serve/batcher.hpp, docs/serving.md): a
  /// worker coalesces consecutive shape-compatible queued requests into
  /// one backend-native batch and demultiplexes the responses. Disabled
  /// by default (max_requests <= 1): every dispatch is then a batch of
  /// one, on the same dispatch path a coalesced batch takes.
  BatchOptions batching{};
  /// Runtime integrity monitor (serve/integrity.hpp): replica scrubber,
  /// sampled shadow audits, worker watchdog. All off by default — an
  /// unconfigured server starts no monitor thread and audits nothing.
  IntegrityOptions integrity{};
  /// Incident flight recorder (obs/flight_recorder.hpp): when set, the
  /// server pushes structured events — breaker transitions, reload
  /// outcomes, quota sheds, watchdog restarts, scrub repairs — tagged
  /// with `flight_scope` ("" for a standalone server, "shard:N" when a
  /// cluster router owns this server). Not owned; must outlive the
  /// server. Null disables event recording entirely.
  obs::FlightRecorder* flight_recorder = nullptr;
  std::string flight_scope;
};

/// One served request's outcome.
struct ServeResult {
  RunReport report;            // predictions + degradation trail
  int retries = 0;             // server-level retry attempts spent
  bool via_fallback = false;   // served by the plan's CPU replica
  double queue_seconds = 0.0;  // submit -> dispatch
  double service_seconds = 0.0;
};

/// Point-in-time statistics snapshot (also exported as named counters via
/// counters(), see util/metrics CounterRegistry).
struct ServerStats {
  std::size_t queue_depth = 0;
  CircuitState breaker = CircuitState::Closed;
  std::uint64_t submitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_quota = 0;  // tenant exceeded its share (QuotaError)
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t shed_deadline = 0;     // expired while queued
  std::uint64_t deadline_expired = 0;  // expired during execution/backoff
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // failed with an exception (incl. deadline)
  std::uint64_t retries = 0;
  std::uint64_t fallback_served = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t breaker_short_circuited = 0;  // primary skipped: breaker open
  std::uint64_t abandoned = 0;                // failed by shutdown drain
  /// Model lifecycle (serve/reload.hpp). model_generation is 0 for a
  /// server constructed directly from a Forest (no store attached).
  std::uint64_t model_generation = 0;
  std::uint64_t reloads_promoted = 0;
  std::uint64_t reloads_rejected = 0;
  std::uint64_t reloads_rolled_back = 0;
};

/// Per-stage latency distributions (docs/benchmarking.md): queue wait
/// (submit -> dispatch, recorded for every dispatched request), execute
/// (backend service time of completed requests), and end-to-end (queue
/// wait + service of completed requests). Snapshots of the server's
/// lock-free histograms; mergeable across servers/shards.
struct LatencyStats {
  HistogramSnapshot queue_wait;
  HistogramSnapshot execute;
  HistogramSnapshot end_to_end;
  HistogramSnapshot reload;  // total seconds of each reload attempt
  /// Members per dispatched batch when micro-batching is enabled (the
  /// value recorded is a member count, not nanoseconds — one sample per
  /// formed batch, including batches of one). Empty with batching off.
  HistogramSnapshot batch_size;

  /// "stage | count | mean | p50 | p95 | p99 | max" markdown table
  /// (time-domain stages only; batch_size is a count distribution).
  std::string to_markdown() const;
};

/// What graceful shutdown accomplished.
struct DrainReport {
  std::size_t drained = 0;    // requests completed after shutdown began
  std::size_t abandoned = 0;  // queued requests failed with ShutdownError
  bool deadline_hit = false;  // drain stopped by the deadline, not emptiness
  double drain_seconds = 0.0;
};

class ForestServer {
 public:
  /// Builds one degradation plan per worker, then starts the worker pool
  /// (paused when options.start_paused).
  ForestServer(Forest forest, ClassifierOptions classifier_options, ServerOptions options);

  /// Serves the store's current generation (precompiled layout blob);
  /// throws ConfigError when the store has no complete generation or the
  /// layout kind does not fit classifier_options. The server remembers
  /// nothing about the store — pass it again to reload()/reload_latest().
  ForestServer(const ModelStore& store, ClassifierOptions classifier_options,
               ServerOptions options);

  ~ForestServer();  // shutdown(options().drain_deadline_seconds) if still up

  ForestServer(const ForestServer&) = delete;
  ForestServer& operator=(const ForestServer&) = delete;

  /// Enqueues a request. Throws OverloadError when the queue is full and
  /// ShutdownError once shutdown began; otherwise returns a future that
  /// yields the result or the request's failure exception. The deadline
  /// (seconds from now; <= 0 = none) bounds queue wait + execution.
  /// With tenant quotas configured, `tenant` names the admission bucket
  /// — a tenant past its reserved share and the spare pool is shed with
  /// QuotaError (never displacing other tenants' queued requests).
  /// `router_request` (nonzero when a cluster router dispatched this
  /// submission) is stamped on the request's root span as the
  /// "router_request" attribute, so one routed query's spans correlate
  /// across every shard tracer it touched (failover, hedging). Without a
  /// deadline argument, options().default_deadline_seconds applies.
  std::future<ServeResult> submit(Dataset queries);
  std::future<ServeResult> submit(Dataset queries, double deadline_seconds,
                                  const std::string& tenant = {},
                                  std::uint64_t router_request = 0);

  /// Starts paused workers (no-op when already running).
  void resume();

  /// Graceful shutdown: stops admission, lets workers drain the queue
  /// until empty or the drain deadline passes, then fails leftovers with
  /// ShutdownError. Idempotent — later calls return the first report.
  DrainReport shutdown();
  DrainReport shutdown(double drain_deadline_seconds);

  /// Readiness: accepting requests and workers are running (false while
  /// start_paused and after shutdown begins).
  bool ready() const;
  /// Health: no worker thread has died on an unexpected exception
  /// (per-request failures are delivered through futures, not here).
  bool healthy() const;

  std::size_t queue_depth() const;
  ServerStats stats() const;
  /// Per-tenant quota accounting; empty when quotas are disabled.
  std::vector<TenantCounters> tenant_stats() const;
  /// Point-in-time snapshot of the per-stage latency histograms.
  LatencyStats latency() const;
  const CounterRegistry& counters() const { return counters_; }
  CircuitState breaker_state() const { return breaker_.state(); }
  const ServerOptions& options() const { return options_; }
  /// Self-heal ledger: scrubber passes/repairs, shadow-audit samples and
  /// mismatches, watchdog rescues. All zero with integrity off.
  SelfHealStats self_heal() const;

  /// The request tracer (sampling per options().trace_sampling). Read
  /// retained traces with tracer().slowest(n) / traces().
  const trace::Tracer& tracer() const { return tracer_; }
  /// Backend metric rollups keyed variant × backend × generation.
  const obs::RollupRegistry& rollups() const { return rollups_; }
  /// One consistent snapshot of everything the server exports: counters
  /// (documented names zero-filled so idle servers expose the full
  /// schema), gauges, per-stage latency histograms, backend rollups, and
  /// tracer summary — ready for obs::to_prometheus / snapshot_to_json.
  obs::MetricsSnapshot metrics_snapshot() const;

  // --- Model lifecycle (implemented in serve/reload.cpp) ---------------

  /// Atomically hot-reloads generation `gen` from `store` through the
  /// full state machine (load -> validate -> shadow -> build -> canary ->
  /// promote -> watch). Serving never stops: every phase runs off the
  /// worker threads, and on any rejection or rollback the previous model
  /// keeps serving. Concurrent reload() calls are serialized. Never
  /// throws for model problems — the outcome is in the returned report.
  ReloadReport reload(const ModelStore& store, std::uint64_t gen,
                      const ReloadOptions& opts = {});

  /// reload(store.current()) — NoOp report when already current or the
  /// store has no complete generation. This is the watcher's call.
  ReloadReport reload_latest(const ModelStore& store, const ReloadOptions& opts = {});

  /// Generation currently serving (0 = constructed without a store).
  std::uint64_t generation() const {
    return current_generation_.load(std::memory_order_acquire);
  }
  /// Every reload attempt since construction, in order.
  std::vector<ReloadReport> reload_history() const;

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Request {
    Dataset queries;
    std::promise<ServeResult> promise;
    std::string tenant;  // admission bucket ("" = anonymous)
    TimePoint enqueued;
    TimePoint deadline;  // meaningful only when has_deadline
    bool has_deadline = false;
    /// Root span of this request's trace (inactive when unsampled) and
    /// the queue-wait child opened at enqueue, ended at dispatch. Both
    /// travel with the request through the queue to the worker thread.
    trace::Span span;
    trace::Span queue_span;
    double queue_seconds = 0.0;  // submit -> dispatch, stamped at dequeue
  };

  /// Health counters shared by every replica of one model generation;
  /// the canary and post-promotion watch read them to decide rollback.
  struct ModelHealth {
    std::atomic<std::uint64_t> completed{0};       // requests finished OK
    std::atomic<std::uint64_t> primary_errors{0};  // primary exhausted retries
  };

  /// An immutable model installation for one worker: its degradation
  /// plan (whose CPU step is also the shadow audits' oracle) and the
  /// generation it came from. Swapped wholesale — a dispatch sees one
  /// WorkerModel end to end.
  struct WorkerModel {
    DegradationPlan plan;
    std::uint64_t generation = 0;
    std::shared_ptr<ModelHealth> health;
    /// Reference CRC of the primary's resident layout and gpu-sim device
    /// image, captured when the model is built (so every legitimate
    /// install — ctor, reload, repair — recaptures it for free). The
    /// scrubber recomputes the live CRC and compares; 0 when it is off.
    std::uint32_t layout_crc = 0;
    const Classifier& primary() const { return *plan.front().classifier; }
    const Classifier& oracle() const { return *plan.back().classifier; }
  };

  /// One worker's swap point. The mutex is uncontended except during a
  /// reload flip (one lock acquisition per dispatch).
  struct Slot {
    mutable std::mutex mu;
    std::shared_ptr<const WorkerModel> model;
  };

  /// Both public constructors land here: installs `m` on every worker.
  ForestServer(const LoadedModel& m, ClassifierOptions classifier_options,
               ServerOptions options);
  void validate_options() const;
  void start_workers();
  /// Builds one worker's degradation plan from a forest and optional
  /// precompiled layout (ConfigError on shape/kind mismatch).
  std::shared_ptr<const WorkerModel> build_worker_model(
      const Forest& forest, const CsrForest* csr, const HierarchicalForest* hier,
      std::uint64_t generation, std::shared_ptr<ModelHealth> health) const;

  std::shared_ptr<const WorkerModel> model_for(std::size_t w) const;
  void install_model(std::size_t w, std::shared_ptr<const WorkerModel> m);

  void record_reload(const ReloadReport& rep);

  /// Pushes one structured event into options_.flight_recorder (no-op
  /// when none is configured), tagged with options_.flight_scope.
  void flight_event(const char* category, const char* name, std::string detail = "") const;

  /// Per-dispatch counter deltas, applied in one CounterRegistry
  /// add_batch() before any member's future wakes — one lock acquisition
  /// per dispatch instead of one per counter.
  using CounterDeltas = std::map<std::string, std::uint64_t>;

  void worker_loop(std::size_t w);
  /// Pops the queue head (mu_ must be held), releasing its quota slot.
  Request pop_front_locked();
  /// Worker entry for a formed batch (size >= 1): fault sites inside the
  /// watchdog's claim window, per-member deadline shed, then run_dispatch().
  /// Returns false when the watchdog claimed the batch — this thread was
  /// declared hung and replaced, so it must exit.
  bool dispatch(std::size_t w, std::vector<Request> batch);
  /// Stamps a dequeued request's queue wait (histogram, queue span).
  void end_queue_wait(Request& req, TimePoint now);
  /// Runs `live` as one classify on worker w's plan — rows gathered once
  /// (none for a lone member), one walk of the plan, a shadow audit of
  /// device runs — and settles every member. A watchdog `rescue` skips
  /// straight to the plan's CPU step. A
  /// non-deadline fault a batch cannot pin on one member (e.g. a
  /// malformed row failing combined validation) re-runs each member
  /// alone, so a poison request never fails its batchmates.
  void run_dispatch(std::size_t w, std::vector<Request> live, CounterDeltas delta, bool rescue);
  /// Walks the plan over `rows`: breaker + retry on step 0, then one try
  /// per step; an open breaker (or a rescue) jumps to the CPU step. A
  /// backoff nap that would outlive the tightest member deadline ends the
  /// retries. Throws DeadlineError on cancel.
  ServeResult run_chain(std::size_t w, const WorkerModel& m, const Dataset& rows,
                        const std::vector<Request>& members, const trace::Span& span,
                        CounterDeltas& delta, bool rescue);
  /// One classify of `rows` on `step`: chunked and cancellable at the
  /// *loosest* member deadline when every member carries one (cancelling
  /// then strands no member that still had budget; DeadlineError), one
  /// classify() call otherwise. Chunk child spans hang off `span`; backend
  /// counter attributes are stamped onto it.
  RunReport classify_members(const PlanStep& step, const Dataset& rows,
                             const std::vector<Request>& members, const trace::Span& span) const;
  /// Settles every member of one dispatch: counters first (one add_batch,
  /// so a woken client reads them), then per member its histograms, root
  /// span and promise. With `served`, each member takes its slice of the
  /// combined predictions plus the shared trail; otherwise each fails
  /// with `error`, its root span marked `failed_outcome`.
  void settle(std::span<Request> members, CounterDeltas& delta, ServeResult* served,
              std::exception_ptr error = nullptr, const char* failed_outcome = "failed");

  // --- Integrity monitor (scrubber / audits / watchdog) -----------------

  /// A batch published by its worker before dispatch so the watchdog can
  /// rescue it. Whoever claims it first owns every member's promise: the
  /// worker claims the batch back after the (possibly injected-hang)
  /// dispatch window, or the watchdog claims it past the hang threshold.
  struct InFlight {
    std::mutex mu;
    std::vector<Request> batch;  // never empty until claimed
    TimePoint dispatched{};
    /// Takes the batch; empty when the other side claimed it first.
    std::vector<Request> claim() {
      std::lock_guard<std::mutex> lock(mu);
      return std::exchange(batch, {});
    }
  };

  /// Per-worker liveness/audit state, stable for the server's lifetime
  /// (worker threads may be replaced; their runtime record is not).
  struct WorkerRuntime {
    std::mutex mu;                       // guards inflight
    std::shared_ptr<InFlight> inflight;  // engaged while a rescue is possible
    std::atomic<std::uint64_t> heartbeat_ns{0};  // last worker_loop activity
    std::atomic<int> audit_streak{0};            // consecutive oracle mismatches
    std::atomic<bool> repair_requested{false};   // audit streak hit K
    /// Unpublishes `done` unless a newer dispatch already replaced it.
    void retire(const std::shared_ptr<InFlight>& done) {
      std::lock_guard<std::mutex> lock(mu);
      if (inflight == done) inflight.reset();
    }
  };

  bool integrity_enabled() const;
  /// Every Nth request's successful primary run: a dispatch of `requests`
  /// members takes that many sampling ticks and is audited when any is
  /// sampled — its combined rows re-execute on the CPU oracle and are
  /// compared. On divergence the oracle's predictions are served (with a
  /// degradation note) and K consecutive mismatches flag the replica for
  /// quarantine-and-rebuild.
  void maybe_audit(std::size_t w, const WorkerModel& m, const Dataset& rows,
                   std::size_t requests, RunReport& report, CounterDeltas& delta);
  /// The shared monitor thread: corrupt:replica injection, watchdog
  /// scans, audit-requested repairs, and timed scrub passes.
  void monitor_loop();
  /// Rescues a hung worker's claimed batch: answered by the plan's CPU
  /// step with a watchdog note (never a lost response), and the thread
  /// replaced.
  void watchdog_scan();
  /// Re-verifies every replica's CRC against its reference.
  void scrub_pass();
  /// The scrubber's reference CRC for `clf` (replica_crc32), or 0 when
  /// the scrubber is off: nothing else reads it, and checksumming a large
  /// layout plus its device image costs tens of ms per install.
  std::uint32_t scrub_reference(const Classifier& clf) const;
  /// Quarantines worker w's replica (the CPU oracle serves as primary)
  /// and rebuilds the real primary — from the configured store's current
  /// generation when possible, else recompiled from the pristine forest
  /// the CPU replica holds. No-op if the slot moved on (a reload).
  void repair_replica(std::size_t w, std::shared_ptr<const WorkerModel> suspect);
  /// corrupt:replica payload: copy-clobber-swap one worker's layout,
  /// keeping the reference CRC so the scrubber sees the drift.
  void inject_replica_corruption();
  /// Compare-and-swap install: replaces worker w's model only when the
  /// slot still holds `expected` (repairs never clobber a fresh reload).
  bool install_model_if(std::size_t w, const std::shared_ptr<const WorkerModel>& expected,
                        std::shared_ptr<const WorkerModel> next);

  ServerOptions options_;
  ClassifierOptions classifier_options_;  // replica recipe, reused by reload
  std::vector<Slot> slots_;               // one per worker, never resized
  std::vector<Xoshiro256> jitter_;        // one per worker
  CircuitBreaker breaker_;
  CounterRegistry counters_;
  trace::Tracer tracer_;
  obs::RollupRegistry rollups_;
  LatencyHistogram hist_queue_wait_;   // every dispatched request
  LatencyHistogram hist_execute_;      // completed requests only
  LatencyHistogram hist_end_to_end_;   // completed requests only
  LatencyHistogram hist_reload_;       // per reload attempt (total seconds)
  LatencyHistogram hist_batch_size_;   // members per formed batch (count, not ns)
  /// Backend-native batch granularity in rows (warp size on GpuSim);
  /// resolved once at construction for the batch former's row budget.
  std::size_t batch_granularity_ = 1;

  std::atomic<std::uint64_t> current_generation_{0};
  std::mutex reload_mu_;  // serializes reload state machines
  mutable std::mutex reload_history_mu_;
  std::vector<ReloadReport> reload_history_;

  mutable std::mutex mu_;     // guards queue + lifecycle flags + quotas
  std::mutex shutdown_mu_;    // serializes shutdown() callers (join once)
  std::condition_variable cv_;
  std::deque<Request> queue_;
  /// Engaged when options_.quotas has tenants. Shares mu_ with the queue
  /// it meters: every queued request holds exactly one quota slot.
  std::optional<TenantQuotas> quotas_;
  bool accepting_ = true;
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> stopping_{false};
  TimePoint drain_deadline_{};
  DrainReport drain_report_{};

  std::atomic<bool> worker_failed_{false};
  std::atomic<std::uint64_t> drained_after_stop_{0};
  std::vector<std::thread> workers_;

  /// Integrity monitor state. workers_ and zombies_ are mutated only by
  /// the monitor thread after construction; shutdown() joins the monitor
  /// before touching either, so no lock is needed.
  std::vector<std::unique_ptr<WorkerRuntime>> runtimes_;  // one per worker
  std::thread monitor_;
  std::atomic<bool> monitor_stop_{false};
  std::vector<std::thread> zombies_;  // superseded workers, joined at shutdown
  std::size_t corrupt_rr_ = 0;        // round-robin corruption victim picker
  std::atomic<std::uint64_t> audit_tick_{0};  // global audit sampling counter
};

}  // namespace hrf::serve
