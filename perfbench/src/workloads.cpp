#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "cluster/cluster.hpp"
#include "core/classifier.hpp"
#include "inputs.hpp"
#include "serve/server.hpp"

namespace perfbench {

void LoopStats::merge(const LoopStats& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  failed += o.failed;
  mismatched += o.mismatched;
  if (first_error.empty()) first_error = o.first_error;
  latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  completions.insert(completions.end(), o.completions.begin(), o.completions.end());
  queue_us.insert(queue_us.end(), o.queue_us.begin(), o.queue_us.end());
  service_us.insert(service_us.end(), o.service_us.begin(), o.service_us.end());
  retried += o.retried;
  via_fallback += o.via_fallback;
  hedged += o.hedged;
  hedge_won += o.hedge_won;
  failovers += o.failovers;
  for (const auto& [shard, n] : o.per_shard) per_shard[shard] += n;
  batches += o.batches;
  batch_members += o.batch_members;
}

namespace {

constexpr double kNsPerUs = 1e3;

/// Books one answered operation; returns false on a mismatch.
bool book(LoopStats& out, std::int64_t t0, std::int64_t t1,
          const std::vector<std::uint8_t>& got, const std::vector<std::uint8_t>& want) {
  if (got != want) {
    ++out.mismatched;
    return false;
  }
  ++out.succeeded;
  out.latency_us.push_back(static_cast<double>(t1 - t0) / kNsPerUs);
  out.completions.push_back({t1, got.size()});
  return true;
}

void book_failure(LoopStats& out, const std::exception& e) {
  ++out.failed;
  if (out.first_error.empty()) out.first_error = e.what();
}

/// Records a request span [t0, t1] with its queue and service intervals
/// rebuilt from the server's own stamps. The queue starts at submit
/// (t0); both children are clipped to the request.
void record_request(SpanRecorder& spans, const char* root, const char* queue,
                    const char* service, std::int64_t t0, std::int64_t t1,
                    const hrf::serve::ServeResult& r) {
  if (!spans.enabled()) return;
  const std::uint64_t id = spans.record(root, 0, t0, t1);
  const auto q_end = std::min(t1, t0 + static_cast<std::int64_t>(r.queue_seconds * 1e9));
  const auto s_end = std::min(t1, q_end + static_cast<std::int64_t>(r.service_seconds * 1e9));
  spans.record(queue, id, t0, q_end);
  spans.record(service, id, q_end, s_end);
}

void book_serve_detail(LoopStats& out, const hrf::serve::ServeResult& r) {
  out.queue_us.push_back(r.queue_seconds * 1e6);
  out.service_us.push_back(r.service_seconds * 1e6);
  out.retried += r.retries > 0;
  out.via_fallback += r.via_fallback;
}

/// Pins the calling thread, and every thread it starts while pinned, to
/// the last CPU it may run on; release() gives it back its previous mask.
/// A serving workload's client and server threads share that CPU: in these
/// closed loops one of them at a time does nearly all the work, and on one
/// CPU a hand-off between them never has to wake an idle vCPU, which on a
/// shared host waits for the hypervisor (README.md, Run-to-run spread).
class CpuPin {
 public:
  void pin() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
      throw std::system_error(errno, std::generic_category(), "sched_getaffinity");
    }
    int last = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) last = cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    set(one);
    saved_ = mask;
  }

  void release() {
    if (saved_) set(*saved_);
    saved_.reset();
  }

 private:
  static void set(const cpu_set_t& mask) {
    if (sched_setaffinity(0, sizeof mask, &mask) != 0) {
      throw std::system_error(errno, std::generic_category(), "sched_setaffinity");
    }
  }

  std::optional<cpu_set_t> saved_;  // the mask before pin()
};

// offline-gpu: one caller, Classifier::classify on gpu-sim/hybrid with
// 1024-row blocks cycling a pool of distinct blocks.
class OfflineGpu final : public Workload {
 public:
  OfflineGpu(const hrf::Forest& forest, std::uint64_t seed)
      : forest_(forest), pool_(make_request_pool(forest, 16, 1024, seed)) {}

  int busy_threads() const override { return 1; }

  double install() override {
    clf_.reset();
    hrf::Forest copy = forest_;
    const std::int64_t t0 = now_ns();
    clf_ = std::make_unique<hrf::Classifier>(std::move(copy), hrf::ClassifierOptions{});
    const hrf::RunReport r = clf_->classify(pool_.requests[0]);
    const std::int64_t t1 = now_ns();
    if (r.predictions != pool_.expected[0]) {
      throw std::runtime_error("offline-gpu: wrong first response");
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  void run(std::int64_t until_ns, SpanRecorder& spans, LoopStats& out) override {
    for (std::size_t i = 0; now_ns() < until_ns; ++i) {
      const std::size_t k = i % pool_.size();
      ++out.attempted;
      const std::int64_t t0 = now_ns();
      try {
        const hrf::RunReport r = clf_->classify(pool_.requests[k]);
        const std::int64_t t1 = now_ns();
        spans.record("core.classify", 0, t0, t1);
        book(out, t0, t1, r.predictions, pool_.expected[k]);
      } catch (const std::exception& e) {
        book_failure(out, e);
      }
    }
  }

  void uninstall() override { clf_.reset(); }

 private:
  const hrf::Forest& forest_;
  RequestPool pool_;
  std::unique_ptr<hrf::Classifier> clf_;
};

// serve-gpu-small: one ForestServer (1 worker, gpu-sim/hybrid,
// micro-batching up to 8 requests); one client thread keeps 8 requests of 4
// rows outstanding. Client and worker share one CPU (CpuPin). One worker
// rather than two: on a shared host two workers lose far more time to
// hypervisor steal, and in back-to-back runs during one steal episode two
// workers read a p90 of 7.0-14.2 ms where one read 5.5-6.4 ms, with no
// lower throughput. With one worker taking batches from the head of a FIFO
// queue, answers come back in submission order, so the client waits on the
// oldest request and no answer is held behind another.
class ServeGpuSmall final : public Workload {
 public:
  static constexpr std::size_t kOutstanding = 8;

  ServeGpuSmall(const hrf::Forest& forest, std::uint64_t seed)
      : forest_(forest), pool_(make_request_pool(forest, 4096, 4, seed)) {
    options_.num_workers = 1;
    options_.batching.max_requests = kOutstanding;
  }

  int busy_threads() const override { return 1 + static_cast<int>(options_.num_workers); }

  double install() override {
    uninstall();
    pin_.pin();
    hrf::Forest copy = forest_;
    const std::int64_t t0 = now_ns();
    server_ = std::make_unique<hrf::serve::ForestServer>(std::move(copy),
                                                         hrf::ClassifierOptions{}, options_);
    const hrf::serve::ServeResult r = server_->submit(pool_.requests[0]).get();
    const std::int64_t t1 = now_ns();
    if (r.report.predictions != pool_.expected[0]) {
      throw std::runtime_error("serve-gpu-small: wrong first response");
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  void run(std::int64_t until_ns, SpanRecorder& spans, LoopStats& out) override {
    struct InFlight {
      std::future<hrf::serve::ServeResult> fut;
      std::int64_t t0;
      std::size_t k;
    };
    const hrf::HistogramSnapshot batches_before = server_->latency().batch_size;
    std::deque<InFlight> window;
    std::size_t next = 0;
    while (true) {
      while (window.size() < kOutstanding && now_ns() < until_ns) {
        const std::size_t k = next++ % pool_.size();
        ++out.attempted;
        const std::int64_t t0 = now_ns();
        try {
          window.push_back({server_->submit(pool_.requests[k]), t0, k});
        } catch (const std::exception& e) {
          book_failure(out, e);
        }
      }
      if (window.empty()) break;
      InFlight f = std::move(window.front());
      window.pop_front();
      try {
        const hrf::serve::ServeResult r = f.fut.get();
        const std::int64_t t1 = now_ns();
        if (book(out, f.t0, t1, r.report.predictions, pool_.expected[f.k])) {
          book_serve_detail(out, r);
          record_request(spans, "serve.request", "serve.queue", "serve.service", f.t0, t1, r);
        }
      } catch (const std::exception& e) {
        book_failure(out, e);
      }
    }
    // The histogram records a member count per formed batch, not ns.
    const hrf::HistogramSnapshot batches =
        server_->latency().batch_size.delta_since(batches_before);
    out.batches += batches.total;
    out.batch_members += batches.sum_ns;
  }

  void uninstall() override {
    server_.reset();
    pin_.release();
  }

 private:
  const hrf::Forest& forest_;
  RequestPool pool_;
  hrf::serve::ServerOptions options_;
  std::unique_ptr<hrf::serve::ForestServer> server_;
  CpuPin pin_;
};

// routed-cpu: ClusterRouter over 2 shards x 1 worker on
// cpu-native/independent, consistent-hash routing with default hedging;
// one client sends 256-row requests, each under a distinct key. The client
// and every thread of the router share one CPU (CpuPin): left free, each
// request's hand-offs (client to shard worker, and the client's 0.5 ms
// polls of its future inside ClusterRouter::query) woke idle vCPUs, and in
// a busy spell on a shared host this workload lost about 10% of the
// machine to steal where offline-gpu lost 1%, and p90 doubled.
//
// One client rather than two: with two, a request whose key hashed to the
// shard busy with the other client's request waited out that request, so
// p90 was a collision tail (about 1.8x p50) that moved with each run's
// collision pattern.
class RoutedCpu final : public Workload {
 public:
  RoutedCpu(const hrf::Forest& forest, std::uint64_t seed)
      : forest_(forest), pool_(make_request_pool(forest, 64, 256, seed)), seed_(seed) {
    classifier_.variant = hrf::Variant::Independent;
    classifier_.backend = hrf::Backend::CpuNative;
    shard_.num_workers = 1;
    cluster_.num_shards = 2;
  }

  int busy_threads() const override {
    return 1 + static_cast<int>(cluster_.num_shards * shard_.num_workers);
  }

  double install() override {
    uninstall();
    pin_.pin();
    const std::int64_t t0 = now_ns();
    router_ = std::make_unique<hrf::cluster::ClusterRouter>(forest_, classifier_, shard_, cluster_);
    const hrf::cluster::ClusterResult r = router_->query(pool_.requests[0], query_options(0));
    const std::int64_t t1 = now_ns();
    if (r.result.report.predictions != pool_.expected[0]) {
      throw std::runtime_error("routed-cpu: wrong first response");
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  void run(std::int64_t until_ns, SpanRecorder& spans, LoopStats& out) override {
    for (; now_ns() < until_ns; ++next_) {
      const std::size_t k = next_ % pool_.size();
      ++out.attempted;
      const std::int64_t t0 = now_ns();
      try {
        const hrf::cluster::ClusterResult r =
            router_->query(pool_.requests[k], query_options(next_));
        const std::int64_t t1 = now_ns();
        if (book(out, t0, t1, r.result.report.predictions, pool_.expected[k])) {
          book_serve_detail(out, r.result);
          out.hedged += r.hedged;
          out.hedge_won += r.hedge_won;
          out.failovers += static_cast<std::uint64_t>(r.failovers);
          ++out.per_shard[r.shard];
          record_request(spans, "cluster.query", "shard.queue", "shard.service", t0, t1, r.result);
        }
      } catch (const std::exception& e) {
        book_failure(out, e);
      }
    }
    // Shards that answered nothing still count toward the skew's mean.
    for (std::size_t s = 0; s < cluster_.num_shards; ++s) out.per_shard[s] += 0;
  }

  void uninstall() override {
    router_.reset();
    pin_.release();
  }

 private:
  /// The j-th request's options: a distinct routing key (SplitMix64 of
  /// seed + j), no deadline, no tenant.
  hrf::cluster::QueryOptions query_options(std::uint64_t j) const {
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (j + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    hrf::cluster::QueryOptions q;
    q.key = z ^ (z >> 31);
    return q;
  }

  const hrf::Forest& forest_;
  RequestPool pool_;
  std::uint64_t seed_;
  std::uint64_t next_ = 1;  // index of the next request; 0 is install()'s
  hrf::ClassifierOptions classifier_;
  hrf::serve::ServerOptions shard_;
  hrf::cluster::ClusterOptions cluster_;
  std::unique_ptr<hrf::cluster::ClusterRouter> router_;
  CpuPin pin_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const hrf::Forest& forest,
                                        std::uint64_t seed) {
  if (name == "offline-gpu") return std::make_unique<OfflineGpu>(forest, seed);
  if (name == "serve-gpu-small") return std::make_unique<ServeGpuSmall>(forest, seed);
  if (name == "routed-cpu") return std::make_unique<RoutedCpu>(forest, seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
