#pragma once

// Versioned on-disk model store for zero-downtime serving
// (docs/model-lifecycle.md).
//
// A store is a directory of immutable, numbered *generations*, each a
// subdirectory holding the forest model, the compiled inference layout
// blob, and a checksummed generation manifest (`gen.json`) written last —
// a generation exists only once its manifest commits, so readers never
// observe a half-published model:
//
//   store/
//     MANIFEST.json            # store pointer: schema + current generation
//     gen-000001/
//       forest.hrff            # Forest::save (crash-safe atomic write)
//       layout.hrfl            # save_csr / save_hierarchical (v2, CRC'd)
//       gen.json               # id, layout kind, per-file byte count + CRC-32
//     gen-000002.quarantined/  # damaged generation set aside, never deleted
//
// Every file is written via util/atomic_file (temp + fsync + rename), and
// `gen.json` commits after the blobs while `MANIFEST.json` commits after
// `gen.json` — so a publisher killed at any instant (fault sites
// crash:publish / crash:manifest) leaves either a recoverable partial
// generation or a stale pointer, never a corrupt store. open() runs
// recovery: damaged or partial generations are *quarantined* (renamed
// aside with the reason reported, never silently deleted), and the
// newest complete generation wins as current.
//
// Concurrency model: one publisher at a time; any number of readers.
// current() is a cheap poll (one small JSON read + completeness check) on
// the happy path; when the pointed-at generation is found damaged it
// quarantines the rot and repoints the manifest, so a reload never
// receives a generation that decayed after open().

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "forest/forest.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::serve {

/// One file of a generation as recorded in gen.json.
struct StoredFile {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
};

/// A complete (validated-manifest) generation.
struct Generation {
  std::uint64_t id = 0;
  std::string dir;          // absolute path of the generation directory
  std::string layout_kind;  // "csr" | "hierarchical"
  std::string note;
  std::vector<StoredFile> files;

  std::uint64_t total_bytes() const;
};

/// A generation recovery set aside: partial publish, failed checksum,
/// unparseable manifest. The directory is renamed `<dir>.quarantined`
/// (data kept for forensics), and `reason` carries the validation error —
/// including FormatError's section/byte-offset detail when available.
struct QuarantinedGeneration {
  std::string dir;     // post-rename path
  std::string reason;
};

/// What open()/recover() found and did.
struct StoreReport {
  std::optional<std::uint64_t> current;      // newest complete generation
  std::vector<Generation> generations;       // complete, ascending id
  std::vector<QuarantinedGeneration> quarantined;
  /// True when MANIFEST.json was missing, torn, or stale (pointing at a
  /// damaged or non-newest generation) and was rebuilt from the scan.
  bool manifest_recovered = false;
};

/// A generation fully loaded and validated, ready to build classifier
/// replicas from. Exactly one of csr/hier is set, per layout_kind. The
/// forest is immutable and shared by every replica built from it.
struct LoadedModel {
  std::uint64_t generation = 0;
  std::shared_ptr<const Forest> forest;
  std::string layout_kind;
  std::optional<CsrForest> csr;
  std::optional<HierarchicalForest> hier;
};

class ModelStore {
 public:
  /// Opens (creating if needed) the store at `dir` and runs recovery:
  /// quarantines damaged generations and reconciles MANIFEST.json to the
  /// newest complete generation. Throws hrf::Error when the directory is
  /// unusable.
  static ModelStore open(const std::string& dir);

  const std::string& dir() const { return dir_; }
  /// The recovery outcome of open() / the last explicit recover() call.
  const StoreReport& report() const { return report_; }

  /// Re-runs the open()-time recovery scan against current disk state.
  StoreReport recover();

  /// Poll of the current generation: the manifest pointer when it names a
  /// still-complete generation (one small JSON read + CRC manifest check,
  /// the happy path). When the pointed-at generation was damaged *after*
  /// open() — silent on-disk corruption — the rot is quarantined on the
  /// spot (renamed aside, recorded in read_quarantined()) and the
  /// manifest is repointed at the newest surviving complete generation,
  /// so the watcher never hands a decayed generation to a reload.
  /// nullopt for an empty store.
  std::optional<std::uint64_t> current() const;

  /// Generations quarantined by current() polls (damage detected after
  /// open), oldest first. open()/recover()-time quarantines are in
  /// report().quarantined instead.
  std::vector<QuarantinedGeneration> read_quarantined() const;

  /// Complete generations on disk, ascending id (fresh scan).
  std::vector<Generation> generations() const;
  Generation info(std::uint64_t id) const;  // ConfigError when absent

  /// Publishes a new generation from an in-memory model + layout. Writes
  /// blobs, then gen.json, then the MANIFEST pointer, each atomically;
  /// returns the new generation id.
  std::uint64_t publish(const Forest& forest, const CsrForest& layout,
                        const std::string& note = "");
  std::uint64_t publish(const Forest& forest, const HierarchicalForest& layout,
                        const std::string& note = "");

  /// Publishes by copying existing artifact files byte-for-byte (the CLI
  /// `publish` path). The layout blob is fingerprinted (peek_layout_kind)
  /// but deliberately NOT semantically validated — structural and shadow
  /// validation happen at reload time, which is what lets tests publish
  /// behaviorally-wrong generations to exercise rejection.
  std::uint64_t publish_files(const std::string& forest_path, const std::string& layout_path,
                              const std::string& note = "");

  /// Loads and fully validates a generation: per-file size + CRC against
  /// gen.json, then format-level parse (Forest::load, load_csr /
  /// load_hierarchical, each with its own framing checks). Throws
  /// FormatError (with section/offset detail) on any damage, ConfigError
  /// when the generation does not exist.
  LoadedModel load(std::uint64_t id) const;

 private:
  explicit ModelStore(std::string dir) : dir_(std::move(dir)) {}

  /// Shared publish sequence: allocate id, `write_blobs(gen_dir)` (returns
  /// the layout kind), fingerprint, commit gen.json, then the MANIFEST.
  std::uint64_t publish_with(const std::function<std::string(const std::string&)>& write_blobs,
                             const std::string& note);

  /// current() is const but must record the quarantines it performs, and
  /// multiple watcher threads may poll; shared_ptr keeps ModelStore
  /// movable (open() returns by value) despite the mutex.
  struct ReadQuarantineLog {
    std::mutex mu;
    std::vector<QuarantinedGeneration> items;
  };

  std::string dir_;
  StoreReport report_;
  std::shared_ptr<ReadQuarantineLog> read_quarantine_log_ =
      std::make_shared<ReadQuarantineLog>();
};

}  // namespace hrf::serve
