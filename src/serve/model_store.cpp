#include "serve/model_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "layout/layout_io.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace hrf::serve {

namespace fs = std::filesystem;

namespace {

constexpr int kGenSchema = 1;
constexpr int kManifestSchema = 1;
constexpr const char* kManifestName = "MANIFEST.json";
constexpr const char* kGenManifestName = "gen.json";
constexpr const char* kForestName = "forest.hrff";
constexpr const char* kLayoutName = "layout.hrfl";
constexpr const char* kQuarantineSuffix = ".quarantined";

std::string gen_dir_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "gen-%06llu", static_cast<unsigned long long>(id));
  return buf;
}

/// Parses "gen-NNNNNN" exactly; nullopt for anything else (quarantined
/// dirs, staging temp files, unrelated entries).
std::optional<std::uint64_t> parse_gen_dir(const std::string& name) {
  if (name.rfind("gen-", 0) != 0 || name.size() <= 4) return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 4; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

std::vector<std::byte> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw Error("cannot open for reading: " + path);
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (!in) throw Error("read failed: " + path);
  return bytes;
}

StoredFile fingerprint(const std::string& dir, const std::string& name) {
  const std::vector<std::byte> bytes = read_file_bytes(dir + "/" + name);
  return StoredFile{name, bytes.size(), crc32(bytes)};
}

/// Publisher death sites (kill -9 semantics): std::_Exit skips every
/// destructor and buffer flush, exactly like the process being killed.
void maybe_crash(const char* site) {
  FaultInjector& inj = FaultInjector::global();
  if (inj.enabled() && inj.consume(site)) std::_Exit(137);
}

json::Value gen_manifest_json(const Generation& gen) {
  json::Value doc = json::Value::object();
  doc["schema"] = kGenSchema;
  doc["id"] = gen.id;
  doc["layout_kind"] = gen.layout_kind;
  doc["note"] = gen.note;
  json::Value files = json::Value::array();
  for (const StoredFile& f : gen.files) {
    json::Value entry = json::Value::object();
    entry["name"] = f.name;
    entry["bytes"] = f.bytes;
    entry["crc32"] = static_cast<std::uint64_t>(f.crc32);
    files.push_back(std::move(entry));
  }
  doc["files"] = std::move(files);
  return doc;
}

/// Reads + fully validates one generation directory: gen.json must parse,
/// match the directory's id, and every listed file must exist with the
/// recorded byte count and CRC-32. Throws FormatError/Error with an
/// actionable reason on any damage.
Generation validate_generation(const std::string& gdir, std::uint64_t id) {
  const std::string manifest_path = gdir + "/" + kGenManifestName;
  if (!fs::exists(manifest_path)) {
    throw FormatError("generation manifest missing (partial publish?): " + manifest_path);
  }
  const json::Value doc = json::Value::parse(read_file_text(manifest_path));
  if (static_cast<int>(doc.get("schema").as_number()) != kGenSchema) {
    throw FormatError("unsupported generation manifest schema in " + manifest_path);
  }
  Generation gen;
  gen.id = static_cast<std::uint64_t>(doc.get("id").as_number());
  if (gen.id != id) {
    throw FormatError("generation manifest id " + std::to_string(gen.id) +
                      " does not match directory " + gdir);
  }
  gen.dir = gdir;
  gen.layout_kind = doc.get("layout_kind").as_string();
  gen.note = doc.get("note").as_string();
  const json::Value& files = doc.get("files");
  for (std::size_t i = 0; i < files.size(); ++i) {
    StoredFile f;
    f.name = files.at(i).get("name").as_string();
    f.bytes = static_cast<std::uint64_t>(files.at(i).get("bytes").as_number());
    f.crc32 = static_cast<std::uint32_t>(files.at(i).get("crc32").as_number());
    const std::string path = gdir + "/" + f.name;
    if (!fs::exists(path)) throw FormatError("generation file missing: " + path);
    const std::vector<std::byte> bytes = read_file_bytes(path);
    if (bytes.size() != f.bytes) {
      throw FormatError("generation file size mismatch (" + std::to_string(bytes.size()) +
                        " vs recorded " + std::to_string(f.bytes) + "): " + path);
    }
    if (crc32(bytes) != f.crc32) {
      throw FormatError("generation file checksum mismatch (torn write or bit rot): " + path,
                        f.name, 0);
    }
    gen.files.push_back(std::move(f));
  }
  if (gen.files.empty()) throw FormatError("generation lists no files: " + manifest_path);
  return gen;
}

std::optional<std::uint64_t> read_manifest_current(const std::string& store_dir) {
  const std::string path = store_dir + "/" + kManifestName;
  if (!fs::exists(path)) return std::nullopt;
  const json::Value doc = json::Value::parse(read_file_text(path));  // may throw FormatError
  if (static_cast<int>(doc.get("schema").as_number()) != kManifestSchema) {
    throw FormatError("unsupported store manifest schema in " + path);
  }
  const json::Value* cur = doc.find("current");
  if (cur == nullptr || cur->is_null()) return std::nullopt;
  return static_cast<std::uint64_t>(cur->as_number());
}

void write_manifest(const std::string& store_dir, std::optional<std::uint64_t> current) {
  json::Value doc = json::Value::object();
  doc["schema"] = kManifestSchema;
  doc["current"] = current ? json::Value(*current) : json::Value();
  write_file_atomic(store_dir + "/" + kManifestName, doc.dump(2) + "\n");
}

/// Renames a damaged generation aside with a unique suffix (repeated
/// recoveries never collide). Returns the post-rename path, or the
/// original when the rename itself failed (data still never deleted).
std::string quarantine_dir(const std::string& gdir) {
  std::string target = gdir + kQuarantineSuffix;
  for (int n = 2; fs::exists(target); ++n) {
    target = gdir + kQuarantineSuffix + "." + std::to_string(n);
  }
  std::error_code ec;
  fs::rename(gdir, target, ec);
  return ec ? gdir : target;
}

/// All generation ids ever used in this store — complete, damaged, or
/// quarantined — so a fresh publish never reuses a quarantined id.
std::uint64_t max_seen_id(const std::string& store_dir) {
  std::uint64_t max_id = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(store_dir)) {
    if (!e.is_directory()) continue;
    std::string name = e.path().filename().string();
    // Strip quarantine decoration: "gen-000002.quarantined[.N]" still
    // reserves id 2.
    const std::size_t dot = name.find('.');
    if (dot != std::string::npos) name.resize(dot);
    if (const auto id = parse_gen_dir(name)) max_id = std::max(max_id, *id);
  }
  return max_id;
}

}  // namespace

std::uint64_t Generation::total_bytes() const {
  std::uint64_t sum = 0;
  for (const StoredFile& f : files) sum += f.bytes;
  return sum;
}

ModelStore ModelStore::open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir)) {
    throw Error("cannot open model store directory: " + dir + (ec ? " (" + ec.message() + ")" : ""));
  }
  ModelStore store(dir);
  store.recover();
  return store;
}

StoreReport ModelStore::recover() {
  StoreReport rep;
  std::vector<std::pair<std::uint64_t, std::string>> candidates;  // id, dir
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    const std::string name = e.path().filename().string();
    if (!e.is_directory()) continue;
    if (const auto id = parse_gen_dir(name)) {
      candidates.emplace_back(*id, e.path().string());
    } else if (name.find(kQuarantineSuffix) != std::string::npos) {
      rep.quarantined.push_back({e.path().string(), "(quarantined by an earlier recovery)"});
    }
  }
  std::sort(candidates.begin(), candidates.end());

  for (const auto& [id, gdir] : candidates) {
    try {
      rep.generations.push_back(validate_generation(gdir, id));
    } catch (const Error& e) {
      // Damaged: set aside with the reason, never delete.
      rep.quarantined.push_back({quarantine_dir(gdir), e.what()});
    }
  }
  if (!rep.generations.empty()) rep.current = rep.generations.back().id;

  // Reconcile the store pointer: the newest *complete* generation wins.
  // A torn/missing manifest, or one stale from a crash between gen.json
  // and the MANIFEST update, is rebuilt here.
  std::optional<std::uint64_t> on_disk;
  bool manifest_readable = true;
  try {
    on_disk = read_manifest_current(dir_);
  } catch (const Error&) {
    manifest_readable = false;  // torn or unparseable
  }
  if (!manifest_readable || on_disk != rep.current ||
      !fs::exists(dir_ + "/" + kManifestName)) {
    write_manifest(dir_, rep.current);
    rep.manifest_recovered = true;
  }
  report_ = rep;
  return rep;
}

std::optional<std::uint64_t> ModelStore::current() const {
  // Fast path: a valid manifest naming a complete generation. The
  // completeness re-check means a reader never acts on a pointer whose
  // generation rotted after publication.
  std::optional<std::uint64_t> pointed;
  try {
    pointed = read_manifest_current(dir_);
    if (!pointed) return std::nullopt;
    validate_generation(dir_ + "/" + gen_dir_name(*pointed), *pointed);
    return pointed;
  } catch (const Error& e) {
    // The pointed-at generation rotted after open() (or the manifest
    // tore). Quarantine the damage right here rather than leaving it for
    // a reload to trip over: the reload would re-validate, reject, and
    // keep polling into the same rot forever.
    if (pointed) {
      const std::string gdir = dir_ + "/" + gen_dir_name(*pointed);
      if (fs::is_directory(gdir)) {
        std::lock_guard<std::mutex> lock(read_quarantine_log_->mu);
        read_quarantine_log_->items.push_back({quarantine_dir(gdir), e.what()});
      }
    }
  }
  std::optional<std::uint64_t> newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    if (!e.is_directory()) continue;
    const auto id = parse_gen_dir(e.path().filename().string());
    if (!id || (newest && *newest >= *id)) continue;
    try {
      validate_generation(e.path().string(), *id);
      newest = *id;
    } catch (const Error&) {
      // incomplete — recover() will quarantine it; keep scanning
    }
  }
  // Repoint the store at what is actually servable so the next poll is
  // back on the fast path (best-effort: a read-only filesystem just
  // means the scan repeats next time).
  try {
    write_manifest(dir_, newest);
  } catch (const Error&) {
  }
  return newest;
}

std::vector<QuarantinedGeneration> ModelStore::read_quarantined() const {
  std::lock_guard<std::mutex> lock(read_quarantine_log_->mu);
  return read_quarantine_log_->items;
}

std::vector<Generation> ModelStore::generations() const {
  std::vector<Generation> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    if (!e.is_directory()) continue;
    if (const auto id = parse_gen_dir(e.path().filename().string())) {
      try {
        out.push_back(validate_generation(e.path().string(), *id));
      } catch (const Error&) {
        // damaged generations are report()/recover() business
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Generation& a, const Generation& b) { return a.id < b.id; });
  return out;
}

Generation ModelStore::info(std::uint64_t id) const {
  const std::string gdir = dir_ + "/" + gen_dir_name(id);
  if (!fs::is_directory(gdir)) {
    throw ConfigError("model store has no generation " + std::to_string(id) + " in " + dir_);
  }
  return validate_generation(gdir, id);
}

std::uint64_t ModelStore::publish(const Forest& forest, const CsrForest& layout,
                                  const std::string& note) {
  return publish_with(
      [&](const std::string& gdir) {
        forest.save(gdir + "/" + kForestName);
        save_csr(layout, gdir + "/" + kLayoutName);
        return std::string("csr");
      },
      note);
}

std::uint64_t ModelStore::publish(const Forest& forest, const HierarchicalForest& layout,
                                  const std::string& note) {
  return publish_with(
      [&](const std::string& gdir) {
        forest.save(gdir + "/" + kForestName);
        save_hierarchical(layout, gdir + "/" + kLayoutName);
        return std::string("hierarchical");
      },
      note);
}

std::uint64_t ModelStore::publish_files(const std::string& forest_path,
                                        const std::string& layout_path,
                                        const std::string& note) {
  const std::string kind = peek_layout_kind(layout_path);  // fingerprint only
  return publish_with(
      [&](const std::string& gdir) {
        write_file_atomic(gdir + "/" + kForestName, read_file_bytes(forest_path));
        write_file_atomic(gdir + "/" + kLayoutName, read_file_bytes(layout_path));
        return kind;
      },
      note);
}

std::uint64_t ModelStore::publish_with(
    const std::function<std::string(const std::string&)>& write_blobs,
    const std::string& note) {
  const std::uint64_t id = max_seen_id(dir_) + 1;
  const std::string gdir = dir_ + "/" + gen_dir_name(id);
  std::error_code ec;
  fs::create_directory(gdir, ec);
  if (ec) throw Error("cannot create generation directory " + gdir + ": " + ec.message());

  Generation gen;
  gen.id = id;
  gen.dir = gdir;
  gen.note = note;
  gen.layout_kind = write_blobs(gdir);
  gen.files.push_back(fingerprint(gdir, kForestName));
  gen.files.push_back(fingerprint(gdir, kLayoutName));

  // Death here leaves a partial generation (no gen.json): recovery
  // quarantines it and the previous generation stays current.
  maybe_crash("crash:publish");
  write_file_atomic(gdir + "/" + kGenManifestName, gen_manifest_json(gen).dump(2) + "\n");
  // Death here leaves a complete generation with a stale store pointer:
  // recovery reconciles the manifest (newest complete generation wins).
  maybe_crash("crash:manifest");
  write_manifest(dir_, id);
  return id;
}

LoadedModel ModelStore::load(std::uint64_t id) const {
  const Generation gen = info(id);  // CRC + manifest validation
  LoadedModel out;
  out.generation = id;
  out.layout_kind = gen.layout_kind;
  out.forest = std::make_shared<const Forest>(Forest::load(gen.dir + "/" + kForestName));
  const std::string layout_path = gen.dir + "/" + kLayoutName;
  const std::string blob_kind = peek_layout_kind(layout_path);
  if (blob_kind != gen.layout_kind) {
    throw FormatError("layout blob kind '" + blob_kind + "' does not match manifest kind '" +
                      gen.layout_kind + "' in " + gen.dir);
  }
  if (gen.layout_kind == "csr") {
    out.csr = load_csr(layout_path);
  } else if (gen.layout_kind == "hierarchical") {
    out.hier = load_hierarchical(layout_path);
  } else {
    throw FormatError("unknown layout kind '" + gen.layout_kind + "' in " + gen.dir);
  }
  return out;
}

}  // namespace hrf::serve
