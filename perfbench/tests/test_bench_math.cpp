// Tests of the benchmark's own arithmetic and input generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bench_math.hpp"
#include "forest/random_forest_gen.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

/// FNV-1a over raw bytes.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t digest(const hrf::Forest& forest) {
  Fnv1a f;
  for (const hrf::DecisionTree& t : forest.trees()) {
    for (const hrf::TreeNode& n : t.nodes()) {
      f.add(&n.feature, sizeof n.feature);
      f.add(&n.value, sizeof n.value);
      f.add(&n.left, sizeof n.left);
      f.add(&n.right, sizeof n.right);
    }
  }
  return f.h;
}

std::uint64_t digest(const RequestPool& pool) {
  Fnv1a f;
  for (const hrf::Dataset& d : pool.requests) f.add(d.features().data(), d.features().size_bytes());
  return f.h;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  // p90 of 99 samples is rank 90 (ceil 89.1), leaving 9 beyond it.
  EXPECT_THROW(percentile(one_to(99), 90), std::invalid_argument);
  // p90 of 100 samples is rank 90, leaving exactly 10 beyond it.
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 90), 90.0);
  EXPECT_THROW(percentile(one_to(19), 50), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(one_to(20), 50), 10.0);
  EXPECT_THROW(percentile(one_to(1000), 99.5), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, IsNearestRankOfUnsortedInput) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(percentile(v, 50), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 180.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(WindowRate, IsRowsOverTheMeasuredWindows) {
  // One completion of 10 rows every 1 ms over 10 ms: 10 rows/ms.
  std::vector<Completion> done;
  for (int i = 1; i <= 10; ++i) done.push_back({i * 1'000'000LL, 10});
  EXPECT_DOUBLE_EQ(window_rate(done, {{0, 10'000'000}}), 10'000.0);
  // Two windows with a gap between them: the gap is not measured time.
  EXPECT_DOUBLE_EQ(window_rate(done, {{0, 5'000'000}, {5'500'000, 10'500'000}}), 10'000.0);
  EXPECT_THROW(window_rate(done, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(window_rate(done, {}), std::invalid_argument);
  EXPECT_THROW(window_rate(done, {{2'000'000, 10'000'000}}), std::invalid_argument);
  EXPECT_THROW(window_rate(done, {{0, 4'000'000}, {6'000'000, 10'000'000}}),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(window_rate({}, {{0, 1'000'000'000}}), 0.0);
}

TEST(WindowRate, FollowsCallsLongerThanAnyShortInterval) {
  // 1024-row calls of 50 ms, then the same calls at 200 ms: the rate is
  // the window's, so a 4x slowdown reads as a 4x lower rate rather than
  // the inverse of one call's latency.
  std::vector<Completion> fast, slow;
  for (int i = 1; i <= 20; ++i) fast.push_back({i * 50'000'000LL, 1024});
  for (int i = 1; i <= 5; ++i) slow.push_back({i * 200'000'000LL, 1024});
  EXPECT_DOUBLE_EQ(window_rate(fast, {{0, 1'000'000'000}}), 20 * 1024.0);
  EXPECT_DOUBLE_EQ(window_rate(slow, {{0, 1'000'000'000}}), 5 * 1024.0);
  // A stall in the middle of the window lowers the rate by its share.
  std::vector<Completion> stalled = fast;
  for (std::size_t i = 10; i < stalled.size(); ++i) stalled[i].end_ns += 1'000'000'000;
  EXPECT_DOUBLE_EQ(window_rate(stalled, {{0, 2'000'000'000}}), 10 * 1024.0);
}

TEST(SelfTime, IsDurationMinusChildCoverage) {
  const std::vector<Span> spans = {
      {1, 0, "request", 0, 100},
      {2, 1, "queue", 0, 30},
      {3, 1, "service", 30, 80},
      {4, 1, "overlap", 70, 90},    // overlaps service: 80..90 is new
      {5, 1, "outside", 95, 150},   // clipped to 95..100
      {6, 3, "grandchild", 40, 50},  // covers its parent, not the root
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (30 + 50 + 10 + 5));
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[5], 10);
}

TEST(SelfTime, NeverNegativeWhenChildrenOverrunTheParent) {
  const std::vector<Span> spans = {{1, 0, "request", 10, 20}, {2, 1, "queue", 0, 15},
                                   {3, 1, "service", 15, 40}};
  EXPECT_EQ(self_times(spans)[0], 0);
}

TEST(SelfTime, RecorderFeedsSelfTimeAndDisabledRecordsNothing) {
  SpanRecorder on(true);
  const std::uint64_t root = on.record("request", 0, 0, 1000);
  on.record("queue", root, 0, 400);
  on.record("service", root, 400, 900);
  EXPECT_EQ(self_times(on.spans())[0], 100);

  SpanRecorder off(false);
  EXPECT_EQ(off.record("request", 0, 0, 1), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Subtraction, LayerOverheadsAreNeverNegative) {
  // core.overhead_us: classify minus Device ctor minus run_hybrid.
  EXPECT_DOUBLE_EQ(nonnegative_difference(120.0, 20.0 + 90.0), 10.0);
  EXPECT_DOUBLE_EQ(nonnegative_difference(100.0, 20.0 + 90.0), 0.0);
  EXPECT_DOUBLE_EQ(nonnegative_difference(0.0, std::numeric_limits<double>::max()), 0.0);
  // serve.overhead_us_p50 and cluster.route_overhead_us_p50 are self
  // times of request spans whose rebuilt queue + service intervals may
  // read longer than the request itself (clock granularity).
  SpanRecorder spans(true);
  const std::uint64_t req = spans.record("serve.request", 0, 1000, 2000);
  spans.record("serve.queue", req, 1000, 1700);
  spans.record("serve.service", req, 1700, 2600);
  for (const std::int64_t s : self_times(spans.spans())) EXPECT_GE(s, 0);
}

TEST(Inputs, SameSeedGivesByteIdenticalForestAndQueries) {
  hrf::RandomForestSpec spec = forest_spec(7);
  spec.num_trees = 4;  // the shape under test is the seeding, not the size
  spec.max_depth = 10;
  const hrf::Forest a = hrf::make_random_forest(spec);
  const hrf::Forest b = hrf::make_random_forest(spec);
  EXPECT_EQ(digest(a), digest(b));
  const RequestPool pa = make_request_pool(a, 8, 16, 7);
  const RequestPool pb = make_request_pool(b, 8, 16, 7);
  EXPECT_EQ(digest(pa), digest(pb));
  EXPECT_EQ(pa.expected, pb.expected);

  spec.seed = 8;
  EXPECT_NE(digest(hrf::make_random_forest(spec)), digest(a));
  EXPECT_NE(digest(make_request_pool(a, 8, 16, 8)), digest(pa));
}

TEST(Inputs, ForestHasThePaperShapeAndTheTargetSize) {
  const hrf::RandomForestSpec spec = forest_spec(1);
  EXPECT_EQ(spec.num_trees, 100);
  EXPECT_EQ(spec.max_depth, 20);
  EXPECT_EQ(spec.num_features, kNumFeatures);
  const hrf::Forest a = make_forest(1);
  const double nodes = static_cast<double>(a.stats().total_nodes);
  EXPECT_NEAR(nodes, static_cast<double>(kTargetNodes), kTargetNodes * kNodeTolerance);
  EXPECT_NEAR(mean_path(a), kTargetPath, kTargetPath * kPathTolerance);
  EXPECT_EQ(a.stats().max_depth, 20);
  EXPECT_EQ(digest(make_forest(1)), digest(a));
  EXPECT_NE(digest(make_forest(2)), digest(a));
}

}  // namespace
}  // namespace perfbench
