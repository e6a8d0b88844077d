#pragma once

// The three closed-loop workloads. Each drives one public entry point of
// hrf from outside: Classifier (core), ForestServer (serve) or
// ClusterRouter (cluster). See README.md for why each exists.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "forest/forest.hpp"

namespace perfbench {

/// Workload names, in BENCHMARK.json order.
inline const std::vector<std::string> kWorkloadNames = {"offline-gpu", "serve-gpu-small",
                                                       "routed-cpu"};

/// What one or more measured loops saw. Every field adds up across loops
/// and client threads (merge()).
struct LoopStats {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;      // the call threw
  std::uint64_t mismatched = 0;  // answered, but not byte-identical to the oracle
  std::string first_error;

  std::vector<double> latency_us;  // one per succeeded operation
  std::vector<Completion> completions;

  // serve / cluster detail taken from ServeResult and ClusterResult.
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::uint64_t retried = 0;      // requests with ServeResult::retries > 0
  std::uint64_t via_fallback = 0;
  std::uint64_t hedged = 0;
  std::uint64_t hedge_won = 0;
  std::uint64_t failovers = 0;
  std::map<std::size_t, std::uint64_t> per_shard;  // answers per shard
  std::uint64_t batches = 0;          // batches the server formed
  std::uint64_t batch_members = 0;    // requests in those batches

  void merge(const LoopStats& o);
};

/// One workload: a system built from the shared forest plus the closed
/// loop that drives it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload keeps busy: clients plus server workers.
  virtual int busy_threads() const = 0;

  /// Destroys any previous installation, then times model install (the
  /// system's construction from the already generated forest) through the
  /// first correct response. Returns seconds; throws when that response
  /// is wrong.
  virtual double install() = 0;

  /// Runs the closed loop on the installed system until `until_ns`
  /// (operations in flight then are finished and counted). Spans go to
  /// `spans`, which may be disabled.
  virtual void run(std::int64_t until_ns, SpanRecorder& spans, LoopStats& out) = 0;

  /// Tears the installed system down (not timed).
  virtual void uninstall() = 0;
};

/// Builds the workload named `name` over `forest`, drawing its request
/// pool from `seed`. Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const hrf::Forest& forest,
                                        std::uint64_t seed);

}  // namespace perfbench
