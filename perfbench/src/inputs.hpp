#pragma once

// Seeded inputs shared by every workload: one paper-sized random forest
// and pools of distinct query requests with their oracle predictions.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "forest/random_forest_gen.hpp"

namespace perfbench {

/// Feature count of the paper's HIGGS dataset, which the forest mirrors.
inline constexpr int kNumFeatures = 28;

/// 100 trees of depth 20 over kNumFeatures features: the paper's largest
/// forest shape, about 0.75M nodes, so that set-up and per-call work are
/// long enough to time steadily.
hrf::RandomForestSpec forest_spec(std::uint64_t seed);

/// The two forest properties the per-call cost follows, held steady
/// across seeds: the node count (packing, upload and set-up cost) and the
/// mean number of inner nodes a uniform random query visits per tree
/// (traversal cost). Both vary by 10-20% between raw seeds.
inline constexpr std::size_t kTargetNodes = 750'000;
inline constexpr double kNodeTolerance = 0.02;
inline constexpr double kTargetPath = 4.58;
inline constexpr double kPathTolerance = 0.01;

/// Mean inner nodes visited per tree by a fixed sample of 1024 uniform
/// random queries.
double mean_path(const hrf::Forest& forest);

/// The benchmark forest of `seed`: forest_spec() of the first candidate
/// seed drawn from `seed` whose node count and mean_path() are within
/// tolerance of their targets. Keeps forest-to-forest differences in work
/// out of the run-to-run spread while every seed still gives its own
/// forest.
hrf::Forest make_forest(std::uint64_t seed);

/// `count` requests of `rows` distinct seeded rows each, plus the
/// predictions Forest::classify_batch gives for every request.
struct RequestPool {
  std::vector<hrf::Dataset> requests;
  std::vector<std::vector<std::uint8_t>> expected;

  std::size_t size() const { return requests.size(); }
};

RequestPool make_request_pool(const hrf::Forest& forest, std::size_t count, std::size_t rows,
                              std::uint64_t seed);

}  // namespace perfbench
