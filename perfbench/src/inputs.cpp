#include "inputs.hpp"

#include <stdexcept>

#include "data/synthetic.hpp"

namespace perfbench {

namespace {

// Separates the query stream from the forest stream of the same seed.
constexpr std::uint64_t kQuerySalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

hrf::RandomForestSpec forest_spec(std::uint64_t seed) {
  hrf::RandomForestSpec spec;
  spec.num_trees = 100;
  spec.max_depth = 20;
  spec.num_features = kNumFeatures;
  spec.seed = seed;
  return spec;
}

double mean_path(const hrf::Forest& forest) {
  static const hrf::Dataset probe = hrf::make_random_queries(1024, kNumFeatures, 12345);
  std::size_t visited = 0;
  for (std::size_t i = 0; i < probe.num_samples(); ++i) {
    const auto x = probe.sample(i);
    for (const hrf::DecisionTree& tree : forest.trees()) {
      for (std::int32_t n = 0; !tree.node(n).is_leaf(); ++visited) {
        const hrf::TreeNode& node = tree.node(n);
        n = x[node.feature] < node.value ? node.left : node.right;
      }
    }
  }
  return static_cast<double>(visited) /
         static_cast<double>(probe.num_samples() * forest.tree_count());
}

hrf::Forest make_forest(std::uint64_t seed) {
  const auto near = [](double v, double target, double tol) {
    return v >= target * (1.0 - tol) && v <= target * (1.0 + tol);
  };
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    // SplitMix64 of (seed, i): candidates of nearby seeds do not overlap.
    std::uint64_t z = seed * 0xd1342543de82ef95ULL + (i + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    hrf::Forest forest = hrf::make_random_forest(forest_spec(z ^ (z >> 31)));
    if (near(static_cast<double>(forest.stats().total_nodes), kTargetNodes, kNodeTolerance) &&
        near(mean_path(forest), kTargetPath, kPathTolerance)) {
      return forest;
    }
  }
  throw std::runtime_error("no candidate forest within the size and path tolerances");
}

RequestPool make_request_pool(const hrf::Forest& forest, std::size_t count, std::size_t rows,
                              std::uint64_t seed) {
  const hrf::Dataset all =
      hrf::make_random_queries(count * rows, kNumFeatures, seed ^ kQuerySalt);
  RequestPool pool;
  pool.requests.reserve(count);
  pool.expected.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    hrf::Dataset req(rows, kNumFeatures);
    for (std::size_t i = 0; i < rows; ++i) req.push_back(all.sample(r * rows + i), 0);
    pool.expected.push_back(forest.classify_batch(req.features(), rows));
    pool.requests.push_back(std::move(req));
  }
  return pool;
}

}  // namespace perfbench
