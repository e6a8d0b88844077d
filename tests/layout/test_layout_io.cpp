#include "layout/layout_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "forest/random_forest_gen.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace hrf {
namespace {

Forest demo_forest() {
  RandomForestSpec spec;
  spec.num_trees = 8;
  spec.max_depth = 10;
  spec.num_features = 9;
  spec.num_classes = 3;
  spec.seed = 61;
  return make_random_forest(spec);
}

std::string tmp_path(const char* name) { return testing::TempDir() + "/" + name; }

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// FORMAT.md's v2 hierarchical blob is pinned byte for byte: the layout
// holds its nodes as packed {feature, value} records, and the saved blob
// must still carry them as the separate feature-id and value sections.
// One forest has RSD != SD, so the root subtree's own depth is covered.
TEST(LayoutIo, HierarchicalBlobBytesArePinned) {
  struct Case {
    Forest forest;
    HierConfig config;
    std::size_t size;
    std::uint32_t crc;
  };
  RandomForestSpec binary;
  binary.num_trees = 5;
  binary.max_depth = 9;
  binary.branch_prob = 0.8;
  binary.num_features = 6;
  binary.seed = 2027;
  const Case cases[] = {
      {demo_forest(), HierConfig{.subtree_depth = 4, .root_subtree_depth = 6}, 31156, 0x2f3a560cu},
      {make_random_forest(binary), HierConfig{.subtree_depth = 5}, 11967, 0x2a12fb7cu},
  };
  for (const Case& c : cases) {
    const std::string path = tmp_path("hrf_hier_pin.hrfh");
    save_hierarchical(HierarchicalForest::build(c.forest, c.config), path);
    const std::string bytes = read_bytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), c.size);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), c.crc)
        << std::hex << "0x" << crc32(bytes.data(), bytes.size());
  }
}

TEST(LayoutIo, CsrRoundTripPreservesPredictions) {
  const Forest f = demo_forest();
  const CsrForest csr = CsrForest::build(f);
  const std::string path = tmp_path("hrf_csr_rt.hrfc");
  save_csr(csr, path);
  const CsrForest loaded = load_csr(path);
  EXPECT_EQ(loaded.num_features(), csr.num_features());
  EXPECT_EQ(loaded.num_classes(), 3);
  EXPECT_EQ(loaded.num_nodes(), csr.num_nodes());
  const Dataset q = make_random_queries(400, 9, 62);
  for (std::size_t i = 0; i < q.num_samples(); ++i) {
    ASSERT_EQ(loaded.classify(q.sample(i)), csr.classify(q.sample(i)));
  }
  std::remove(path.c_str());
}

TEST(LayoutIo, HierarchicalRoundTripPreservesEverything) {
  const Forest f = demo_forest();
  HierConfig cfg;
  cfg.subtree_depth = 4;
  cfg.root_subtree_depth = 6;
  const HierarchicalForest h = HierarchicalForest::build(f, cfg);
  const std::string path = tmp_path("hrf_hier_rt.hrfh");
  save_hierarchical(h, path);
  const HierarchicalForest loaded = load_hierarchical(path);
  EXPECT_EQ(loaded.config().subtree_depth, 4);
  EXPECT_EQ(loaded.config().root_subtree_depth, 6);
  EXPECT_EQ(loaded.num_subtrees(), h.num_subtrees());
  EXPECT_EQ(loaded.real_nodes(), h.real_nodes());
  EXPECT_EQ(loaded.memory_bytes(), h.memory_bytes());
  const Dataset q = make_random_queries(400, 9, 63);
  for (std::size_t i = 0; i < q.num_samples(); ++i) {
    ASSERT_EQ(loaded.classify(q.sample(i)), h.classify(q.sample(i)));
  }
  std::remove(path.c_str());
}

TEST(LayoutIo, CsrLoadRejectsWrongMagic) {
  const std::string path = tmp_path("hrf_csr_bad.hrfc");
  std::ofstream(path, std::ios::binary) << "definitely not a CSR layout file";
  EXPECT_THROW(load_csr(path), FormatError);
  std::remove(path.c_str());
}

TEST(LayoutIo, HierLoadRejectsWrongMagic) {
  const std::string path = tmp_path("hrf_hier_bad.hrfh");
  // A valid CSR file is not a hierarchical file.
  save_csr(CsrForest::build(demo_forest()), path);
  EXPECT_THROW(load_hierarchical(path), FormatError);
  std::remove(path.c_str());
}

TEST(LayoutIo, TruncatedFilesAreRejected) {
  const Forest f = demo_forest();
  const std::string path = tmp_path("hrf_hier_trunc.hrfh");
  save_hierarchical(HierarchicalForest::build(f, HierConfig{.subtree_depth = 4}), path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(load_hierarchical(path), FormatError);
  std::remove(path.c_str());
}

TEST(LayoutIo, CorruptedConnectionIsCaughtByValidate) {
  const Forest f = demo_forest();
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  // Rebuild via from_parts with a connection pointing outside its tree.
  std::vector<std::int32_t> conn(h.subtree_connection().begin(), h.subtree_connection().end());
  bool corrupted = false;
  for (auto& c : conn) {
    if (c >= 0) {
      c = static_cast<std::int32_t>(h.num_subtrees()) + 5;  // out of range
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(
      HierarchicalForest::from_parts(
          h.config(), h.num_features(), h.num_classes(), h.real_nodes(),
          {h.subtree_node_offsets().begin(), h.subtree_node_offsets().end()},
          {h.subtree_depths().begin(), h.subtree_depths().end()},
          {h.connection_offsets().begin(), h.connection_offsets().end()}, std::move(conn),
          {h.nodes().begin(), h.nodes().end()},
          {h.tree_subtree_begin().begin(), h.tree_subtree_begin().end()}),
      FormatError);
}

// The parts of a built layout, each editable before from_parts re-validates.
struct HierParts {
  std::vector<std::uint32_t> node_offset;
  std::vector<std::uint8_t> depth;
  std::vector<std::uint32_t> connection_offset;
  std::vector<std::int32_t> connection;
  std::vector<PackedNode> nodes;
  std::vector<std::uint32_t> tree_begin;

  explicit HierParts(const HierarchicalForest& h)
      : node_offset(h.subtree_node_offsets().begin(), h.subtree_node_offsets().end()),
        depth(h.subtree_depths().begin(), h.subtree_depths().end()),
        connection_offset(h.connection_offsets().begin(), h.connection_offsets().end()),
        connection(h.subtree_connection().begin(), h.subtree_connection().end()),
        nodes(h.nodes().begin(), h.nodes().end()),
        tree_begin(h.tree_subtree_begin().begin(), h.tree_subtree_begin().end()) {}

  HierarchicalForest rebuild(const HierarchicalForest& h) const {
    return HierarchicalForest::from_parts(h.config(), h.num_features(), h.num_classes(),
                                          h.real_nodes(), node_offset, depth, connection_offset,
                                          connection, nodes, tree_begin);
  }
};

// Offset tables that keep every per-subtree count but do not span their
// arrays used to pass validate(), which then read nodes out of bounds.
TEST(LayoutIo, OffsetTablesMustSpanTheirArrays) {
  const Forest f = demo_forest();
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  ASSERT_NO_THROW(HierParts(h).rebuild(h));
  ASSERT_GE(h.num_trees(), 2u);

  HierParts shifted(h);
  for (auto& off : shifted.node_offset) off += std::uint32_t{1} << 26;
  EXPECT_THROW(shifted.rebuild(h), FormatError);

  HierParts short_nodes(h);
  short_nodes.nodes.pop_back();
  EXPECT_THROW(short_nodes.rebuild(h), FormatError);

  HierParts conn_shifted(h);
  for (auto& off : conn_shifted.connection_offset) off += std::uint32_t{1} << 26;
  EXPECT_THROW(conn_shifted.rebuild(h), FormatError);

  HierParts extra_conn(h);
  extra_conn.connection.push_back(-1);
  EXPECT_THROW(extra_conn.rebuild(h), FormatError);

  HierParts trees_past_end(h);
  trees_past_end.tree_begin.back() += 1;
  EXPECT_THROW(trees_past_end.rebuild(h), FormatError);

  HierParts trees_from_one(h);
  trees_from_one.tree_begin.front() = 1;
  EXPECT_THROW(trees_from_one.rebuild(h), FormatError);

  HierParts trees_descending(h);
  std::swap(trees_descending.tree_begin[1], trees_descending.tree_begin[2]);
  EXPECT_THROW(trees_descending.rebuild(h), FormatError);
}

// A connection back to its own subtree or an earlier one would make
// traversal loop forever.
TEST(LayoutIo, ConnectionsMustPointForward) {
  const Forest f = demo_forest();
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  HierParts parts(h);
  bool corrupted = false;
  for (std::size_t st = 0; st < h.num_subtrees() && !corrupted; ++st) {
    for (std::uint32_t ci = parts.connection_offset[st]; ci < parts.connection_offset[st + 1];
         ++ci) {
      if (parts.connection[ci] >= 0) {
        parts.connection[ci] = static_cast<std::int32_t>(st);  // same tree, not forward
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(parts.rebuild(h), FormatError);
}

// A subtree cut short of its depth cap has no connection block, so its
// bottom level must hold leaves only: an inner node there has nowhere to go.
TEST(LayoutIo, ShortSubtreeBottomLevelMustBeLeaves) {
  const Forest f = demo_forest();
  const HierarchicalForest h = HierarchicalForest::build(f, HierConfig{.subtree_depth = 4});
  HierParts parts(h);
  bool corrupted = false;
  for (std::size_t st = 0; st < h.num_subtrees() && !corrupted; ++st) {
    if (parts.connection_offset[st] != parts.connection_offset[st + 1]) continue;
    const std::uint32_t bottom = parts.node_offset[st + 1] - 1;  // last bottom-level slot
    parts.nodes[bottom] = {0, 0.5f};
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(parts.rebuild(h), FormatError);
}

TEST(LayoutIo, SavesAreAtomicAndLeaveNoTempFiles) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/hrf_atomic_save";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Forest f = demo_forest();
  save_csr(CsrForest::build(f), dir + "/a.hrfc");
  save_hierarchical(HierarchicalForest::build(f, HierConfig{.subtree_depth = 4}), dir + "/b.hrfh");
  // Overwriting an existing blob must also go through the temp + rename path.
  save_csr(CsrForest::build(f), dir + "/a.hrfc");
  std::size_t files = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
        << "stray temp file: " << e.path();
  }
  EXPECT_EQ(files, 2u);  // only the two published blobs
  EXPECT_NO_THROW(load_csr(dir + "/a.hrfc"));
  fs::remove_all(dir);
}

TEST(LayoutIo, TruncationErrorCarriesSectionAndOffset) {
  const Forest f = demo_forest();
  const std::string path = tmp_path("hrf_hier_loc.hrfh");
  save_hierarchical(HierarchicalForest::build(f, HierConfig{.subtree_depth = 4}), path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  try {
    load_hierarchical(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_TRUE(e.has_location());
    EXPECT_FALSE(e.section().empty());
    EXPECT_GT(e.byte_offset(), 0u);
    // The located suffix is part of what() so plain log lines carry it too.
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(LayoutIo, ChecksumErrorCarriesSectionAndOffset) {
  const Forest f = demo_forest();
  const std::string path = tmp_path("hrf_csr_loc.hrfc");
  save_csr(CsrForest::build(f), path);
  {
    // Flip one payload byte past the header; the per-section CRC catches it.
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekg(0, std::ios::end);
    const std::streamoff mid = io.tellg() / 2;
    io.seekg(mid);
    char byte = 0;
    io.read(&byte, 1);
    byte ^= '\x5A';
    io.seekp(mid);
    io.write(&byte, 1);
  }
  try {
    load_csr(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_TRUE(e.has_location());
    EXPECT_FALSE(e.section().empty());
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(LayoutIo, CsrFromPartsValidation) {
  // Leaf with a children index must be rejected.
  EXPECT_THROW(CsrForest::from_parts({kLeafFeature}, {0.f}, {}, {0}, {0}, 2, 2), FormatError);
  // Inner node with out-of-range child.
  EXPECT_THROW(CsrForest::from_parts({0, kLeafFeature, kLeafFeature}, {0.5f, 0.f, 1.f},
                                     {1, 99}, {0, -1, -1}, {0}, 2, 2),
               FormatError);
  // Leaf value beyond the class range.
  EXPECT_THROW(CsrForest::from_parts({kLeafFeature}, {7.f}, {}, {-1}, {0}, 2, 2), FormatError);
  // A minimal valid single-leaf encoding passes.
  EXPECT_NO_THROW(CsrForest::from_parts({kLeafFeature}, {1.f}, {}, {-1}, {0}, 2, 2));
}

}  // namespace
}  // namespace hrf
