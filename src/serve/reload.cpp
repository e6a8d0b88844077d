// ForestServer's model-lifecycle state machine (docs/model-lifecycle.md):
//
//   load -> validate -> shadow -> build -> canary -> promote -> watch
//
// Every phase runs on the caller's thread (typically the store watcher),
// never on a worker — workers keep serving the previous generation until
// their slot pointer flips, and flip back automatically on rollback.

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "data/synthetic.hpp"
#include "serve/model_store.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace hrf::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

// Health-poll tick. The reload thread is the only poller (workers never
// wait on it), so a short sleep loop is simpler than a condition variable
// threaded through the hot request path, and trivially TSan-clean.
constexpr std::chrono::milliseconds kPollTick{1};

}  // namespace

const char* to_string(ReloadOutcome outcome) {
  switch (outcome) {
    case ReloadOutcome::Promoted: return "promoted";
    case ReloadOutcome::NoOp: return "no-op";
    case ReloadOutcome::RejectedLoad: return "rejected-load";
    case ReloadOutcome::RejectedValidation: return "rejected-validation";
    case ReloadOutcome::RejectedShadow: return "rejected-shadow";
    case ReloadOutcome::RolledBackCanary: return "rolled-back-canary";
    case ReloadOutcome::RolledBackPostPromotion: return "rolled-back-post-promotion";
  }
  return "unknown";
}

std::string ReloadReport::to_string() const {
  std::string out = "reload gen " + std::to_string(from_generation) + " -> " +
                    std::to_string(to_generation) + ": " + serve::to_string(outcome);
  if (!reason.empty()) out += " (" + reason + ")";
  out += " in " + std::to_string(total_seconds) + "s [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ", ";
    out += phases[i].name + " " + std::to_string(phases[i].seconds) + "s";
  }
  out += "]";
  return out;
}

ReloadReport ForestServer::reload_latest(const ModelStore& store, const ReloadOptions& opts) {
  const std::optional<std::uint64_t> cur = store.current();
  if (!cur || *cur == generation()) {
    // A polling no-op is not a reload attempt: nothing recorded.
    ReloadReport rep;
    rep.from_generation = generation();
    rep.to_generation = cur.value_or(generation());
    rep.outcome = ReloadOutcome::NoOp;
    rep.reason = cur ? "already serving generation " + std::to_string(*cur)
                     : "store has no complete generation";
    return rep;
  }
  return reload(store, *cur, opts);
}

ReloadReport ForestServer::reload(const ModelStore& store, std::uint64_t gen,
                                  const ReloadOptions& opts) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  WallTimer total;
  ReloadReport rep;
  rep.from_generation = generation();
  rep.to_generation = gen;

  // The reload state machine is traced like a request (sampling applies):
  // one "reload" trace with a child span per phase.
  trace::Span rspan = tracer_.start_trace("reload");
  if (rspan.active()) {
    rspan.set_attr("from_generation", rep.from_generation);
    rspan.set_attr("to_generation", rep.to_generation);
  }
  trace::Span phase_span;

  const auto finish = [&](ReloadOutcome outcome, std::string reason) {
    rep.outcome = outcome;
    rep.reason = std::move(reason);
    rep.total_seconds = total.seconds();
    if (rspan.active()) {
      rspan.set_attr("outcome", serve::to_string(outcome));
      if (!rep.reason.empty()) rspan.set_attr("reason", rep.reason);
    }
    rspan.end();
    record_reload(rep);
    return rep;
  };
  const auto begin_phase = [&](const char* name) {
    phase_span = rspan.child(name);
    return WallTimer{};
  };
  const auto end_phase = [&](const char* name, const WallTimer& t) {
    rep.phases.push_back({name, t.seconds()});
    phase_span.end();
  };

  // --- load: pull the generation off disk, full CRC + format checks ----
  LoadedModel model;
  {
    WallTimer t = begin_phase("load");
    try {
      model = store.load(gen);
    } catch (const Error& e) {
      end_phase("load", t);
      return finish(ReloadOutcome::RejectedLoad, e.what());
    }
    end_phase("load", t);
  }
  const CsrForest* csr = model.csr ? &*model.csr : nullptr;
  const HierarchicalForest* hier = model.hier ? &*model.hier : nullptr;

  // --- validate: can this model actually be built into our replica
  // configuration? (layout-kind vs variant, feature/class shape) --------
  auto health = std::make_shared<ModelHealth>();
  std::shared_ptr<const WorkerModel> candidate0;
  {
    WallTimer t = begin_phase("validate");
    try {
      candidate0 = build_worker_model(model.forest, csr, hier, gen, health);
    } catch (const Error& e) {
      end_phase("validate", t);
      return finish(ReloadOutcome::RejectedValidation, e.what());
    }
    end_phase("validate", t);
  }

  // --- shadow: differential run against the CPU reference oracle ------
  if (opts.shadow_validation) {
    WallTimer t = begin_phase("shadow");
    std::optional<Dataset> generated;
    if (opts.probe == nullptr) {
      generated = make_random_queries(opts.shadow_queries,
                                      static_cast<int>(model.forest->num_features()),
                                      opts.shadow_seed);
    }
    const Dataset& probe = opts.probe ? *opts.probe : *generated;
    rep.shadow_queries = probe.num_samples();
    try {
      const std::vector<std::uint8_t> expected =
          model.forest->classify_batch(probe.features(), probe.num_samples());
      const RunReport got = candidate0->primary().classify(probe);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (got.predictions.at(i) != expected[i]) ++mismatches;
      }
      rep.shadow_mismatches = mismatches;
      if (mismatches > 0) {
        end_phase("shadow", t);
        return finish(ReloadOutcome::RejectedShadow,
                      "shadow validation: " + std::to_string(mismatches) + " of " +
                          std::to_string(expected.size()) +
                          " predictions differ from the CPU oracle (layout does not match "
                          "the published forest?)");
      }
    } catch (const Error& e) {
      end_phase("shadow", t);
      return finish(ReloadOutcome::RejectedShadow,
                    std::string("shadow run failed: ") + e.what());
    }
    end_phase("shadow", t);
  }

  // --- build: replicas for the remaining workers ----------------------
  std::vector<std::shared_ptr<const WorkerModel>> candidates(options_.num_workers);
  candidates[0] = candidate0;
  {
    WallTimer t = begin_phase("build");
    try {
      for (std::size_t w = 1; w < options_.num_workers; ++w) {
        candidates[w] = build_worker_model(model.forest, csr, hier, gen, health);
      }
    } catch (const Error& e) {
      end_phase("build", t);
      return finish(ReloadOutcome::RejectedValidation, e.what());
    }
    end_phase("build", t);
  }

  // Pre-flip snapshot of every slot: what rollback restores.
  std::vector<std::shared_ptr<const WorkerModel>> previous(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) previous[w] = model_for(w);

  // --- canary: candidate serves on worker 0 only; it must prove itself
  // with live traffic before anyone else flips -------------------------
  if (opts.canary_success_requests > 0) {
    WallTimer t = begin_phase("canary");
    install_model(0, candidates[0]);
    const SteadyClock::time_point deadline =
        SteadyClock::now() + to_duration(opts.canary_timeout_seconds);
    std::string failure;
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) {
        failure = "server began shutdown during canary";
        break;
      }
      const std::uint64_t errors = health->primary_errors.load(std::memory_order_relaxed);
      if (errors > 0) {
        failure = "canary worker recorded " + std::to_string(errors) + " primary error(s)";
        break;
      }
      const std::uint64_t done = health->completed.load(std::memory_order_relaxed);
      if (done >= opts.canary_success_requests) break;  // proven healthy
      if (SteadyClock::now() >= deadline) {
        failure = "canary saw only " + std::to_string(done) + " of " +
                  std::to_string(opts.canary_success_requests) +
                  " required requests before the " +
                  std::to_string(opts.canary_timeout_seconds) + "s timeout";
        break;
      }
      std::this_thread::sleep_for(kPollTick);
    }
    if (!failure.empty()) {
      install_model(0, previous[0]);  // old model resumes on the canary worker
      end_phase("canary", t);
      return finish(ReloadOutcome::RolledBackCanary, failure);
    }
    end_phase("canary", t);
  }

  // --- promote: flip every worker's slot ------------------------------
  {
    WallTimer t = begin_phase("promote");
    for (std::size_t w = 0; w < options_.num_workers; ++w) install_model(w, candidates[w]);
    current_generation_.store(gen, std::memory_order_release);
    end_phase("promote", t);
  }

  // --- watch: post-promotion error-spike detection --------------------
  if (opts.post_promotion_watch_requests > 0) {
    WallTimer t = begin_phase("watch");
    const std::uint64_t base_completed = health->completed.load(std::memory_order_relaxed);
    const std::uint64_t base_errors = health->primary_errors.load(std::memory_order_relaxed);
    const std::uint64_t base_trips = breaker_.trips();
    const SteadyClock::time_point deadline =
        SteadyClock::now() + to_duration(opts.post_promotion_timeout_seconds);
    std::string failure;
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) break;  // shutdown: keep promotion
      const std::uint64_t errors =
          health->primary_errors.load(std::memory_order_relaxed) - base_errors;
      const std::uint64_t trips = breaker_.trips() - base_trips;
      if (errors >= opts.post_promotion_error_threshold || trips > 0) {
        failure = trips > 0
                      ? "circuit breaker tripped " + std::to_string(trips) +
                            " time(s) after promotion"
                      : std::to_string(errors) + " primary error(s) within the watch window";
        break;
      }
      const std::uint64_t done =
          health->completed.load(std::memory_order_relaxed) - base_completed;
      if (done >= opts.post_promotion_watch_requests) break;  // watched enough
      // A quiet timeout keeps the promotion: unlike the canary, silence
      // after a successful canary is not evidence of failure.
      if (SteadyClock::now() >= deadline) break;
      std::this_thread::sleep_for(kPollTick);
    }
    if (!failure.empty()) {
      for (std::size_t w = 0; w < options_.num_workers; ++w) install_model(w, previous[w]);
      current_generation_.store(rep.from_generation, std::memory_order_release);
      end_phase("watch", t);
      return finish(ReloadOutcome::RolledBackPostPromotion, failure);
    }
    end_phase("watch", t);
  }

  return finish(ReloadOutcome::Promoted, "");
}

}  // namespace hrf::serve
