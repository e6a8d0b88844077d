#pragma once

// Deadline-aware dynamic micro-batching for the serving layer
// (docs/serving.md, "Dynamic micro-batching").
//
// The paper's GPU/FPGA speedups come from amortizing stage-1 subtree
// staging and memory transactions across many rows (§3.2); a server that
// executes every request alone re-stages the root subtree per request and
// runs warps under-occupied. The BatchFormer closes that gap: a worker
// that dequeues a request keeps coalescing *consecutive, shape-compatible*
// queued requests into one backend-native batch until
//
//   - the batch is full (max_requests members, or max_rows rows aligned
//     to the backend's native granularity — warp size on GpuSim), or
//   - the flush deadline passes: every member, when it joins, grants the
//     batch at most min(max_wait_seconds, deadline_fraction x its own
//     remaining deadline budget) of further waiting, and the batch closes
//     at the *tightest* of those grants. A member that joins already past
//     its deadline grants nothing — the batch flushes immediately.
//
// The former is a pure state machine over caller-supplied
// steady_clock::time_points (no clock reads of its own), so unit tests
// drive it on a fake clock with zero sleeps. ForestServer owns the
// waiting (cv_.wait_until on flush_deadline(), never a spin) and the
// execution/demultiplex; see server.cpp.

#include <chrono>
#include <cstddef>

#include "core/classifier.hpp"

namespace hrf::serve {

/// Dynamic micro-batching knobs (ServerOptions::batching). Disabled by
/// default: max_requests <= 1 makes every dispatch a batch of one, on the
/// same dispatch path a coalesced batch takes.
struct BatchOptions {
  /// Most member requests per batch; <= 1 disables batching entirely.
  std::size_t max_requests = 1;
  /// Most total query rows per batch. 0 = auto: max_requests x the
  /// backend's native granularity (GpuSim warp size; see
  /// backend_batch_granularity).
  std::size_t max_rows = 0;
  /// Hard cap on how long a batch may wait for more members, counted
  /// from each member's join. Kept well under typical deadlines so
  /// batching trades microseconds of wait for backend efficiency.
  double max_wait_seconds = 500e-6;
  /// Fraction of a member's *remaining* deadline budget the batch may
  /// spend waiting (0..1). The tightest member wins: one nearly-expired
  /// request closes the batch early instead of being shed by batchmates'
  /// patience.
  double deadline_fraction = 0.5;

  bool enabled() const { return max_requests > 1; }
};

/// The backend's native batch granularity in rows: the unit the paper's
/// kernels fill before adding rows stops being free. GpuSim: the warp
/// size (32 on the modeled TITAN Xp) — an under-filled warp still costs
/// a full warp of lock-step work. FpgaSim: the pipeline restart overhead
/// amortizes over a burst, modeled as one warp-equivalent. CpuNative: an
/// OpenMP chunk's worth.
std::size_t backend_batch_granularity(Backend backend, const gpusim::DeviceConfig& gpu);

/// Pure batch-forming state machine. All methods take "now" explicitly;
/// the former never reads a clock, so tests feed it synthetic time.
class BatchFormer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Throws ConfigError on out-of-range options (negative max_wait,
  /// deadline_fraction outside [0,1]) or zero granularity. max_rows 0
  /// resolves to max_requests * granularity.
  BatchFormer(const BatchOptions& options, std::size_t granularity);

  /// True when `rows` more rows still fit under max_rows — the caller
  /// checks before add() and leaves an oversized head request for the
  /// next batch instead of splitting it. An empty former always fits one
  /// member (a request larger than max_rows forms a batch of one).
  bool fits(std::size_t rows) const;

  /// Adds one member joining at `now`. `deadline` is meaningful only
  /// when has_deadline. Tightens the flush deadline per the member's
  /// wait grant (see file header).
  void add(TimePoint now, std::size_t rows, bool has_deadline, TimePoint deadline);

  std::size_t size() const { return members_; }
  std::size_t rows() const { return rows_; }
  std::size_t max_rows() const { return max_rows_; }

  /// Full = no more members may join (member or row budget exhausted).
  bool full() const { return members_ >= max_requests_ || rows_ >= max_rows_; }

  /// The instant the batch must flush even if not full: the tightest
  /// member wait grant seen so far. Meaningful once a member was added.
  TimePoint flush_deadline() const { return flush_deadline_; }

  /// True when the batch must stop waiting at `now`: full, or the flush
  /// deadline has passed. Empty formers never flush.
  bool should_flush(TimePoint now) const {
    return members_ > 0 && (full() || now >= flush_deadline_);
  }

  /// Forget all members (the server hands the popped requests to
  /// execution and reuses the former for the next batch).
  void reset();

 private:
  std::size_t max_requests_ = 1;
  std::size_t max_rows_ = 1;
  std::chrono::steady_clock::duration max_wait_{};
  double deadline_fraction_ = 0.5;

  std::size_t members_ = 0;
  std::size_t rows_ = 0;
  TimePoint flush_deadline_{};
};

}  // namespace hrf::serve
