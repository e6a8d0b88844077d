#pragma once

// Internal helpers shared by the simulated GPU kernels. Not part of the
// public API (bench/test code should use kernels.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "forest/forest.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_array.hpp"
#include "gpukernels/kernels.hpp"
#include "util/error.hpp"

namespace hrf::gpukernels::detail {

inline constexpr int kWarpSize = 32;

/// Query matrix mirrored on the device (row-major, as the paper stores it).
struct QueryView {
  const Dataset* data;
  gpusim::DeviceArray<float> features;

  QueryView(gpusim::Device& device, const Dataset& queries)
      : data(&queries), features(device, queries.features()) {
    require(queries.num_samples() > 0, "no queries to classify");
  }

  std::size_t count() const { return data->num_samples(); }
  std::size_t width() const { return data->num_features(); }
  float value(std::size_t q, std::size_t f) const { return features[q * width() + f]; }
  std::uint64_t addr(std::size_t q, std::size_t f) const {
    return features.addr(q * width() + f);
  }
};

/// The image's packed node records, checked against the layout the kernel
/// walks (an image of another layout would index out of bounds).
inline std::span<const PackedNode> image_nodes(const HierarchicalForest& forest,
                                               const DeviceImage& image) {
  require(image.nodes().size() == forest.feature_id().size(),
          "device image was not prepared from this layout");
  return image.nodes();
}

/// Iterates the kernel grid: one thread per query, `block_size` threads per
/// block, block b resident on SM (b mod num_sms). `fn(sm, first_query,
/// active_mask)` is invoked once per warp; the mask covers lanes whose
/// query id is in range.
template <typename Fn>
void for_each_warp(const gpusim::DeviceConfig& cfg, std::size_t num_queries, Fn&& fn) {
  const std::size_t block_size = static_cast<std::size_t>(cfg.block_size);
  const std::size_t num_blocks = (num_queries + block_size - 1) / block_size;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const int sm = static_cast<int>(b % static_cast<std::size_t>(cfg.num_sms));
    for (std::size_t w = 0; w < block_size / kWarpSize; ++w) {
      const std::size_t first = b * block_size + w * kWarpSize;
      if (first >= num_queries) break;
      std::uint32_t active = 0;
      for (int l = 0; l < kWarpSize; ++l) {
        if (first + static_cast<std::size_t>(l) < num_queries) active |= 1u << l;
      }
      fn(sm, first, active);
    }
  }
}

/// Writes out per-query majority votes as the kernel's final global store
/// and returns the predictions. `votes` is a row-major (query x class)
/// histogram; the winner rule is Forest::vote_winner (ties to the higher
/// class id = Fig. 1a's `tmp < N/2 ? A : B` in the binary case).
inline std::vector<std::uint8_t> finalize_votes(gpusim::Device& device,
                                                const std::vector<std::uint32_t>& votes,
                                                std::size_t num_queries,
                                                std::size_t num_classes) {
  std::vector<std::uint8_t> out(num_queries);
  gpusim::DeviceArray<std::uint8_t> result_buf(device, out);
  for_each_warp(device.config(), num_queries, [&](int sm, std::size_t first, std::uint32_t active) {
    std::uint64_t addrs[kWarpSize] = {};
    for (int l = 0; l < kWarpSize; ++l) {
      const std::size_t q = first + static_cast<std::size_t>(l);
      if (!(active & (1u << l))) continue;
      out[q] = Forest::vote_winner({votes.data() + q * num_classes, num_classes});
      addrs[l] = result_buf.addr(q);
    }
    device.warp_store(sm, addrs, active, 1);
  });
  return out;
}

}  // namespace hrf::gpukernels::detail
