// Fuzz-style corruption coverage for the layout blob format: every header
// bit and a seeded random sample of body bits are flipped, and load must
// either succeed bit-identically or throw FormatError — never crash and
// never hand back a silently different forest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "layout/layout_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf {
namespace {

Forest demo_forest() {
  RandomForestSpec spec;
  spec.num_trees = 6;
  spec.max_depth = 9;
  spec.num_features = 9;
  spec.num_classes = 3;
  spec.seed = 71;
  return make_random_forest(spec);
}

std::string tmp_path(const char* name) { return testing::TempDir() + "/" + name; }

std::vector<std::byte> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good());
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool same_csr(const CsrForest& a, const CsrForest& b) {
  return a.num_features() == b.num_features() && a.num_classes() == b.num_classes() &&
         spans_equal(a.feature_id(), b.feature_id()) && spans_equal(a.value(), b.value()) &&
         spans_equal(a.children_arr(), b.children_arr()) &&
         spans_equal(a.children_arr_idx(), b.children_arr_idx()) &&
         spans_equal(a.tree_root(), b.tree_root());
}

bool same_hier(const HierarchicalForest& a, const HierarchicalForest& b) {
  return a.num_features() == b.num_features() && a.num_classes() == b.num_classes() &&
         a.real_nodes() == b.real_nodes() &&
         a.config().subtree_depth == b.config().subtree_depth &&
         a.config().root_subtree_depth == b.config().root_subtree_depth &&
         spans_equal(a.subtree_node_offsets(), b.subtree_node_offsets()) &&
         spans_equal(a.subtree_depths(), b.subtree_depths()) &&
         spans_equal(a.connection_offsets(), b.connection_offsets()) &&
         spans_equal(a.subtree_connection(), b.subtree_connection()) &&
         std::equal(a.nodes().begin(), a.nodes().end(), b.nodes().begin(), b.nodes().end(),
                    [](const PackedNode& x, const PackedNode& y) {
                      return x.feature == y.feature && x.value == y.value;
                    }) &&
         spans_equal(a.tree_subtree_begin(), b.tree_subtree_begin());
}

/// Loads `path` with `load` and checks the no-silent-corruption contract
/// against `reference` (equality via `same`). Returns true when the load
/// was rejected with FormatError.
template <typename LoadFn, typename SameFn, typename LayoutT>
bool load_rejects_or_is_identical(LoadFn load, SameFn same, const LayoutT& reference,
                                  const std::string& path, std::size_t bit) {
  try {
    const LayoutT loaded = load(path);
    EXPECT_TRUE(same(reference, loaded))
        << "flipping bit " << bit << " loaded a silently different forest";
    return false;
  } catch (const FormatError&) {
    return true;  // detected — the acceptable outcome
  }
  // Any other exception type escapes and fails the test.
}

class LayoutCorruption : public testing::Test {
 protected:
  void TearDown() override { FaultInjector::global().disarm_all(); }
};

TEST_F(LayoutCorruption, CsrEveryHeaderBitFlip) {
  const CsrForest csr = CsrForest::build(demo_forest());
  const std::string path = tmp_path("hrf_corrupt_csr_hdr.hrfc");
  save_csr(csr, path);
  const std::vector<std::byte> pristine = file_bytes(path);
  // "Header" = magic + version + the framed scalar section + the first
  // array section's frame: the first 64 bytes cover all of it.
  const std::size_t header_bits = std::min<std::size_t>(64, pristine.size()) * 8;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < header_bits; ++bit) {
    std::vector<std::byte> corrupted = pristine;
    FaultInjector::flip_bit(corrupted, bit);
    write_bytes(path, corrupted);
    rejected += load_rejects_or_is_identical([](const std::string& p) { return load_csr(p); },
                                             same_csr, csr, path, bit);
  }
  // The format must actually detect corruption, not just tolerate it.
  EXPECT_GT(rejected, header_bits / 2);
  std::remove(path.c_str());
}

TEST_F(LayoutCorruption, HierEveryHeaderBitFlip) {
  const HierarchicalForest h =
      HierarchicalForest::build(demo_forest(), HierConfig{.subtree_depth = 4,
                                                          .root_subtree_depth = 6});
  const std::string path = tmp_path("hrf_corrupt_hier_hdr.hrfh");
  save_hierarchical(h, path);
  const std::vector<std::byte> pristine = file_bytes(path);
  const std::size_t header_bits = std::min<std::size_t>(64, pristine.size()) * 8;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < header_bits; ++bit) {
    std::vector<std::byte> corrupted = pristine;
    FaultInjector::flip_bit(corrupted, bit);
    write_bytes(path, corrupted);
    rejected += load_rejects_or_is_identical(
        [](const std::string& p) { return load_hierarchical(p); }, same_hier, h, path, bit);
  }
  EXPECT_GT(rejected, header_bits / 2);
  std::remove(path.c_str());
}

TEST_F(LayoutCorruption, RandomBodyBitFlipsAreAlwaysDetected) {
  const Forest f = demo_forest();
  const CsrForest csr = CsrForest::build(f);
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  const std::string csr_path = tmp_path("hrf_corrupt_csr_body.hrfc");
  const std::string hier_path = tmp_path("hrf_corrupt_hier_body.hrfh");
  save_csr(csr, csr_path);
  save_hierarchical(h, hier_path);
  const std::vector<std::byte> csr_pristine = file_bytes(csr_path);
  const std::vector<std::byte> hier_pristine = file_bytes(hier_path);

  FaultInjector sampler(2024);  // deterministic sample of flip positions
  for (int round = 0; round < 150; ++round) {
    std::vector<std::byte> corrupted = csr_pristine;
    const auto bits = sampler.flip_random_bits(corrupted, 1 + round % 3);
    write_bytes(csr_path, corrupted);
    load_rejects_or_is_identical([](const std::string& p) { return load_csr(p); }, same_csr,
                                 csr, csr_path, bits.front());

    corrupted = hier_pristine;
    const auto hbits = sampler.flip_random_bits(corrupted, 1 + round % 3);
    write_bytes(hier_path, corrupted);
    load_rejects_or_is_identical([](const std::string& p) { return load_hierarchical(p); },
                                 same_hier, h, hier_path, hbits.front());
  }
  std::remove(csr_path.c_str());
  std::remove(hier_path.c_str());
}

TEST_F(LayoutCorruption, V1BlobsStillLoad) {
  const Forest f = demo_forest();
  const CsrForest csr = CsrForest::build(f);
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  const std::string csr_path = tmp_path("hrf_v1.hrfc");
  const std::string hier_path = tmp_path("hrf_v1.hrfh");
  save_csr(csr, csr_path, 1);
  save_hierarchical(h, hier_path, 1);
  EXPECT_TRUE(same_csr(csr, load_csr(csr_path)));
  EXPECT_TRUE(same_hier(h, load_hierarchical(hier_path)));
  std::remove(csr_path.c_str());
  std::remove(hier_path.c_str());
}

TEST_F(LayoutCorruption, UnsupportedSaveVersionIsRejected) {
  const CsrForest csr = CsrForest::build(demo_forest());
  EXPECT_THROW(save_csr(csr, tmp_path("hrf_v9.hrfc"), 9), ConfigError);
}

TEST_F(LayoutCorruption, ArmedBitflipSiteCorruptsTheLoad) {
  const CsrForest csr = CsrForest::build(demo_forest());
  const std::string path = tmp_path("hrf_bitflip_site.hrfc");
  save_csr(csr, path);
  FaultInjector::global().arm("bitflip:layout", 1);
  // One random bit anywhere in a checksummed blob must be detected.
  EXPECT_THROW(load_csr(path), FormatError);
  // The charge is spent: the next load is clean.
  EXPECT_TRUE(same_csr(csr, load_csr(path)));
  std::remove(path.c_str());
}

TEST_F(LayoutCorruption, ArmedCorruptNodeSiteIsCaughtByValidation) {
  const Forest f = demo_forest();
  const std::string csr_path = tmp_path("hrf_corrupt_node.hrfc");
  const std::string hier_path = tmp_path("hrf_corrupt_node.hrfh");
  save_csr(CsrForest::build(f), csr_path);
  save_hierarchical(HierarchicalForest::build(f, HierConfig{.subtree_depth = 4}), hier_path);
  // corrupt:node clobbers a parsed node field *after* checksums pass, so
  // only semantic validation stands between it and a wrong forest.
  FaultInjector::global().arm("corrupt:node", 1);
  EXPECT_THROW(load_csr(csr_path), FormatError);
  FaultInjector::global().arm("corrupt:node", 1);
  EXPECT_THROW(load_hierarchical(hier_path), FormatError);
  std::remove(csr_path.c_str());
  std::remove(hier_path.c_str());
}

TEST_F(LayoutCorruption, PeekLayoutKind) {
  const Forest f = demo_forest();
  const std::string csr_path = tmp_path("hrf_peek.hrfc");
  const std::string hier_path = tmp_path("hrf_peek.hrfh");
  const std::string junk_path = tmp_path("hrf_peek.junk");
  save_csr(CsrForest::build(f), csr_path);
  save_hierarchical(HierarchicalForest::build(f, HierConfig{.subtree_depth = 4}), hier_path);
  std::ofstream(junk_path, std::ios::binary) << "not a layout blob";
  EXPECT_EQ(peek_layout_kind(csr_path), "csr");
  EXPECT_EQ(peek_layout_kind(hier_path), "hierarchical");
  EXPECT_THROW(peek_layout_kind(junk_path), FormatError);
  std::remove(csr_path.c_str());
  std::remove(hier_path.c_str());
  std::remove(junk_path.c_str());
}

}  // namespace
}  // namespace hrf
