// Versioned model store coverage (docs/model-lifecycle.md): publish /
// load round trips, checksummed generation manifests, torn-write and
// crash recovery (newest complete generation wins, damage quarantined
// with a reason, never silently deleted), and the crash:publish /
// crash:manifest fault sites via gtest death tests.

#include "serve/model_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "forest/random_forest_gen.hpp"
#include "layout/layout_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf::serve {
namespace {

namespace fs = std::filesystem;

Forest test_forest(std::uint64_t seed = 33) {
  RandomForestSpec spec;
  spec.num_trees = 5;
  spec.max_depth = 7;
  spec.num_features = 7;
  spec.seed = seed;
  return make_random_forest(spec);
}

HierarchicalForest hier_layout(const Forest& forest) {
  HierConfig cfg;
  cfg.subtree_depth = 4;
  return HierarchicalForest::build(forest, cfg);
}

void corrupt_file(const std::string& path, std::size_t offset = 64) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= '\x5A';  // guaranteed different from the original
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

void overwrite_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
}

class ModelStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disarm_all();
    dir_ = testing::TempDir() + "/hrf_store_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::global().disarm_all();
    fs::remove_all(dir_);
  }

  std::string dir_;
  Forest forest_ = test_forest();
};

TEST_F(ModelStoreTest, EmptyStoreHasNoCurrentGeneration) {
  ModelStore store = ModelStore::open(dir_);
  EXPECT_FALSE(store.current().has_value());
  EXPECT_TRUE(store.generations().empty());
  EXPECT_TRUE(store.report().quarantined.empty());
}

TEST_F(ModelStoreTest, PublishCsrRoundTrips) {
  ModelStore store = ModelStore::open(dir_);
  const std::uint64_t id = store.publish(forest_, CsrForest::build(forest_), "first");
  EXPECT_EQ(id, 1u);
  ASSERT_TRUE(store.current().has_value());
  EXPECT_EQ(*store.current(), 1u);

  const Generation gen = store.info(1);
  EXPECT_EQ(gen.layout_kind, "csr");
  EXPECT_EQ(gen.note, "first");
  EXPECT_EQ(gen.files.size(), 2u);  // forest.hrff + layout.hrfl
  EXPECT_GT(gen.total_bytes(), 0u);

  const LoadedModel m = store.load(1);
  EXPECT_EQ(m.generation, 1u);
  EXPECT_EQ(m.layout_kind, "csr");
  ASSERT_TRUE(m.csr.has_value());
  EXPECT_FALSE(m.hier.has_value());
  EXPECT_EQ(m.forest->num_features(), forest_.num_features());
}

TEST_F(ModelStoreTest, PublishHierarchicalRoundTrips) {
  ModelStore store = ModelStore::open(dir_);
  store.publish(forest_, hier_layout(forest_), "hier");
  const LoadedModel m = store.load(1);
  EXPECT_EQ(m.layout_kind, "hierarchical");
  ASSERT_TRUE(m.hier.has_value());
  EXPECT_FALSE(m.csr.has_value());
}

TEST_F(ModelStoreTest, PublishFilesCopiesArtifactsByteForByte) {
  ModelStore store = ModelStore::open(dir_);
  const std::string model_path = dir_ + "/external_model.hrff";
  const std::string blob_path = dir_ + "/external_layout.hrfl";
  forest_.save(model_path);
  save_hierarchical(hier_layout(forest_), blob_path);

  const std::uint64_t id = store.publish_files(model_path, blob_path, "copied");
  const LoadedModel m = store.load(id);
  EXPECT_EQ(m.layout_kind, "hierarchical");
  ASSERT_TRUE(m.hier.has_value());
}

TEST_F(ModelStoreTest, GenerationIdsAreMonotonic) {
  ModelStore store = ModelStore::open(dir_);
  EXPECT_EQ(store.publish(forest_, CsrForest::build(forest_)), 1u);
  EXPECT_EQ(store.publish(forest_, CsrForest::build(forest_)), 2u);
  EXPECT_EQ(store.publish(forest_, hier_layout(forest_)), 3u);
  EXPECT_EQ(*store.current(), 3u);
  EXPECT_EQ(store.generations().size(), 3u);
}

TEST_F(ModelStoreTest, TornManifestIsRebuiltFromScan) {
  {
    ModelStore store = ModelStore::open(dir_);
    store.publish(forest_, CsrForest::build(forest_));
    store.publish(forest_, CsrForest::build(forest_));
  }
  overwrite_text(dir_ + "/MANIFEST.json", "{\"schema\": 1, \"curr");  // torn mid-write

  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_TRUE(reopened.report().manifest_recovered);
  ASSERT_TRUE(reopened.current().has_value());
  EXPECT_EQ(*reopened.current(), 2u);
  EXPECT_TRUE(reopened.report().quarantined.empty());  // generations intact
}

TEST_F(ModelStoreTest, StaleManifestNewestCompleteGenerationWins) {
  {
    ModelStore store = ModelStore::open(dir_);
    store.publish(forest_, CsrForest::build(forest_));
    store.publish(forest_, CsrForest::build(forest_));
  }
  // Publisher died between gen.json and the MANIFEST update (the
  // crash:manifest site): the pointer still names generation 1.
  overwrite_text(dir_ + "/MANIFEST.json", "{\"schema\": 1, \"current\": 1}");

  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_TRUE(reopened.report().manifest_recovered);
  EXPECT_EQ(*reopened.current(), 2u);
}

TEST_F(ModelStoreTest, PartialGenerationIsQuarantinedNotDeleted) {
  {
    ModelStore store = ModelStore::open(dir_);
    store.publish(forest_, CsrForest::build(forest_));
    store.publish(forest_, CsrForest::build(forest_));
  }
  // The crash:publish shape: blobs on disk, no gen.json yet.
  fs::remove(dir_ + "/gen-000002/gen.json");

  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_EQ(*reopened.current(), 1u);
  ASSERT_EQ(reopened.report().quarantined.size(), 1u);
  EXPECT_NE(reopened.report().quarantined[0].reason.find("manifest missing"), std::string::npos);
  // Renamed aside with the data intact — recoverable forensics, not rm -rf.
  EXPECT_TRUE(fs::exists(dir_ + "/gen-000002.quarantined/forest.hrff"));
  EXPECT_FALSE(fs::exists(dir_ + "/gen-000002"));
}

TEST_F(ModelStoreTest, CorruptedBlobQuarantinedWithChecksumReason) {
  {
    ModelStore store = ModelStore::open(dir_);
    store.publish(forest_, CsrForest::build(forest_));
    store.publish(forest_, CsrForest::build(forest_));
  }
  corrupt_file(dir_ + "/gen-000002/layout.hrfl");

  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_EQ(*reopened.current(), 1u);
  ASSERT_EQ(reopened.report().quarantined.size(), 1u);
  EXPECT_NE(reopened.report().quarantined[0].reason.find("checksum mismatch"),
            std::string::npos);
}

TEST_F(ModelStoreTest, LoadDetectsDamageAfterOpen) {
  ModelStore store = ModelStore::open(dir_);
  store.publish(forest_, CsrForest::build(forest_));
  corrupt_file(dir_ + "/gen-000001/layout.hrfl");  // bit rot after recovery ran
  EXPECT_THROW(store.load(1), FormatError);
}

TEST_F(ModelStoreTest, CurrentQuarantinesDamageDetectedAfterOpen) {
  ModelStore store = ModelStore::open(dir_);
  store.publish(forest_, CsrForest::build(forest_));
  store.publish(forest_, CsrForest::build(forest_));
  corrupt_file(dir_ + "/gen-000002/layout.hrfl");

  // The polling path re-verifies the pointed-at generation on every read:
  // rot that lands after open() is quarantined on the spot (renamed
  // aside, recorded in read_quarantined()) and the poll falls back to the
  // newest complete generation instead of handing the damage to a reload
  // that would re-validate, reject, and poll into the same rot forever.
  EXPECT_EQ(*store.current(), 1u);
  EXPECT_FALSE(fs::exists(dir_ + "/gen-000002"));
  EXPECT_TRUE(fs::exists(dir_ + "/gen-000002.quarantined"));
  ASSERT_EQ(store.read_quarantined().size(), 1u);
  EXPECT_NE(store.read_quarantined()[0].reason.find("checksum mismatch"),
            std::string::npos);

  // The manifest was repointed at the survivor, so the next poll takes
  // the fast path and nothing is quarantined twice.
  EXPECT_EQ(*store.current(), 1u);
  EXPECT_EQ(store.read_quarantined().size(), 1u);
}

TEST_F(ModelStoreTest, QuarantinedIdIsNeverReused) {
  {
    ModelStore store = ModelStore::open(dir_);
    store.publish(forest_, CsrForest::build(forest_));
    store.publish(forest_, CsrForest::build(forest_));
  }
  fs::remove(dir_ + "/gen-000002/gen.json");
  ModelStore reopened = ModelStore::open(dir_);  // quarantines generation 2
  EXPECT_EQ(reopened.publish(forest_, CsrForest::build(forest_)), 3u);
  EXPECT_EQ(*reopened.current(), 3u);
}

TEST_F(ModelStoreTest, InfoThrowsConfigErrorForUnknownGeneration) {
  ModelStore store = ModelStore::open(dir_);
  EXPECT_THROW(store.info(7), ConfigError);
  EXPECT_THROW(store.load(7), ConfigError);
}

using ModelStoreDeathTest = ModelStoreTest;

TEST_F(ModelStoreDeathTest, CrashBeforeGenManifestLeavesRecoverableStore) {
  ModelStore store = ModelStore::open(dir_);
  store.publish(forest_, CsrForest::build(forest_), "survivor");
  EXPECT_EXIT(
      {
        FaultInjector::global().arm("crash:publish", 1);
        store.publish(forest_, CsrForest::build(forest_), "doomed");
      },
      testing::ExitedWithCode(137), "");

  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_EQ(*reopened.current(), 1u);
  ASSERT_EQ(reopened.report().quarantined.size(), 1u);
  EXPECT_EQ(reopened.load(1).generation, 1u);  // survivor still fully loadable
}

TEST_F(ModelStoreDeathTest, CrashBeforeStoreManifestIsReconciledForward) {
  ModelStore store = ModelStore::open(dir_);
  store.publish(forest_, CsrForest::build(forest_), "old");
  EXPECT_EXIT(
      {
        FaultInjector::global().arm("crash:manifest", 1);
        store.publish(forest_, CsrForest::build(forest_), "new");
      },
      testing::ExitedWithCode(137), "");

  // Generation 2 committed (gen.json landed) before the death, so the
  // newest-complete-wins rule rolls the pointer forward, not back.
  ModelStore reopened = ModelStore::open(dir_);
  EXPECT_TRUE(reopened.report().manifest_recovered);
  EXPECT_EQ(*reopened.current(), 2u);
  EXPECT_TRUE(reopened.report().quarantined.empty());
}

}  // namespace
}  // namespace hrf::serve
