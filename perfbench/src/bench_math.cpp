#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 100.0)) throw std::invalid_argument("percentile must be in (0, 100)");
  const std::size_t n = samples.size();
  // Nearest rank: the smallest k with k >= p/100 * n (1-based).
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t k = std::max<std::size_t>(rank, 1);
  if (n < k || n - k < kMinTailSamples) {
    throw std::invalid_argument("p" + std::to_string(p) + " of " + std::to_string(n) +
                                " samples leaves fewer than " +
                                std::to_string(kMinTailSamples) + " beyond it");
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   samples.end());
  return samples[k - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double window_rate(const std::vector<Completion>& done, const std::vector<Window>& windows) {
  std::int64_t length_ns = 0;
  for (const Window& w : windows) length_ns += w.end_ns - w.begin_ns;
  if (length_ns <= 0) throw std::invalid_argument("measured windows have no length");
  std::size_t rows = 0;
  for (const Completion& c : done) {
    const bool inside = std::any_of(windows.begin(), windows.end(), [&](const Window& w) {
      return w.begin_ns <= c.end_ns && c.end_ns <= w.end_ns;
    });
    if (!inside) throw std::invalid_argument("completion outside the measured windows");
    rows += c.rows;
  }
  return static_cast<double>(rows) * 1e9 / static_cast<double>(length_ns);
}

double nonnegative_difference(double total, double parts) {
  return std::max(0.0, total - parts);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return out;
}

std::uint64_t SpanRecorder::record(const char* name, std::uint64_t parent, std::int64_t start_ns,
                                   std::int64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, name, start_ns, end_ns});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("failed writing spans to " + path);
}

}  // namespace perfbench
