#pragma once

// The benchmark's own arithmetic: percentiles that refuse thin tails,
// window throughput, non-negative layer differences, and the span
// recorder with its self-time rule. Kept free of hrf types so the tests in
// tests/test_bench_math.cpp pin it directly.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// A reported percentile must leave at least this many samples beyond it;
/// a thinner tail is one or two outliers and does not repeat run to run.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Throws
/// std::invalid_argument when fewer than kMinTailSamples samples lie
/// strictly beyond the chosen rank.
double percentile(std::vector<double> samples, double p);

/// Median of a non-empty sample (mean of the middle pair for even sizes),
/// with no tail rule: for repeated measurements such as set-up times and
/// layer probes.
double median(std::vector<double> samples);

/// One finished operation: when its answer arrived and how many rows it
/// answered correctly.
struct Completion {
  std::int64_t end_ns = 0;
  std::size_t rows = 0;
};

/// One measured spell: a loop ran from `begin_ns` until it returned at
/// `end_ns` with nothing in flight, so the spell holds every operation it
/// started, whatever the length of one call.
struct Window {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Rows of every completion in `done` per second of the measured windows
/// (not overlapping; the gaps between them are not counted). Throws
/// std::invalid_argument when the windows have no length or a completion
/// lies outside all of them.
double window_rate(const std::vector<Completion>& done, const std::vector<Window>& windows);

/// `total - parts`, floored at zero. Per-layer overheads are a whole call
/// minus the layers inside it, each timed separately; when the remainder
/// is below the timing noise the layer reads 0 rather than a negative
/// time.
double nonnegative_difference(double total, double parts);

/// A named value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One recorded interval. `parent` is 0 for a root span; ids start at 1.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by the union of its direct children (children
/// clipped to the parent; overlapping children counted once). Never
/// negative.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Thread-safe in-memory span store. A disabled recorder records nothing
/// and returns id 0, so traced and untraced loops share one code path.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t record(const char* name, std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// Everything recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as a JSON array (one object per span) to `path`.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
