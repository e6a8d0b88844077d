#include "layout/layout_io.hpp"

#include <cstring>
#include <fstream>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hrf {

namespace {

constexpr std::uint32_t kCsrMagic = 0x48524643;   // "HRFC"
constexpr std::uint32_t kHierMagic = 0x48524648;  // "HRFH"
constexpr std::uint64_t kMaxArrayElems = 1ull << 32;

// ---------------------------------------------------------------------------
// Writing. v2 frames each section as {u64 size, u32 crc, payload} so the
// loader can verify integrity before interpreting a single payload byte;
// v1 writes the same payloads unframed (kept for old blobs and tests).
// All saves are crash-safe: the blob is staged through AtomicFile, so a
// crash mid-save leaves the previous version of the file intact instead
// of a truncated blob (docs/model-lifecycle.md).

class SectionWriter {
 public:
  SectionWriter(std::ostream& os, std::uint32_t version) : os_(os), version_(version) {}

  template <typename T>
  SectionWriter& pod(const T& v) {
    buf_.insert(buf_.end(), reinterpret_cast<const std::byte*>(&v),
                reinterpret_cast<const std::byte*>(&v) + sizeof v);
    return *this;
  }

  template <typename T>
  SectionWriter& array(std::span<const T> xs) {
    pod(static_cast<std::uint64_t>(xs.size()));
    if (!xs.empty()) {
      const auto* p = reinterpret_cast<const std::byte*>(xs.data());
      buf_.insert(buf_.end(), p, p + xs.size_bytes());
    }
    return *this;
  }

  /// One field of every packed node, framed like array(): the blob keeps a
  /// hierarchical layout's node records as separate feature-id and value
  /// sections (FORMAT.md), while the layout holds them packed.
  template <typename T>
  SectionWriter& field(std::span<const PackedNode> nodes, T PackedNode::*member) {
    pod(static_cast<std::uint64_t>(nodes.size()));
    for (const PackedNode& n : nodes) pod(n.*member);
    return *this;
  }

  /// Flushes the buffered payload as one section.
  void commit() {
    if (version_ >= 2) {
      const auto size = static_cast<std::uint64_t>(buf_.size());
      const std::uint32_t crc = crc32(buf_);
      os_.write(reinterpret_cast<const char*>(&size), sizeof size);
      os_.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    }
    if (!buf_.empty()) {
      os_.write(reinterpret_cast<const char*>(buf_.data()),
                static_cast<std::streamsize>(buf_.size()));
    }
    buf_.clear();
  }

 private:
  std::ostream& os_;
  std::uint32_t version_;
  std::vector<std::byte> buf_;
};

// ---------------------------------------------------------------------------
// Reading. The whole blob is pulled into memory first: truncation becomes a
// bounds check, checksums can run before parsing, and the fault injector
// can corrupt the bytes exactly the way rotted storage would. Every reader
// carries the section name and the absolute byte offset of its window, so
// a FormatError pinpoints where in the file the failure was detected.

class ByteReader {
 public:
  ByteReader(std::span<const std::byte> data, const std::string& path,
             std::string section = "preamble", std::uint64_t base_offset = 0)
      : data_(data), path_(path), section_(std::move(section)), base_(base_offset) {}

  template <typename T>
  T pod() {
    T v{};
    std::memcpy(&v, take(sizeof v).data(), sizeof v);
    return v;
  }

  template <typename T>
  std::vector<T> array(std::uint64_t max_elems = kMaxArrayElems) {
    const std::uint64_t at = offset();
    const auto n = pod<std::uint64_t>();
    if (n > max_elems) {
      throw FormatError("layout array implausibly large in " + path_, section_, at);
    }
    const std::span<const std::byte> raw = take(n * sizeof(T));
    std::vector<T> xs(n);
    if (n != 0) std::memcpy(xs.data(), raw.data(), raw.size());
    return xs;
  }

  /// Verifies and opens the next v2 section; `name` labels the returned
  /// reader so downstream errors carry the section and byte offset.
  ByteReader section(const char* name) {
    const std::uint64_t frame_at = offset();
    const auto size = pod<std::uint64_t>();
    const auto crc = pod<std::uint32_t>();
    const std::uint64_t payload_at = offset();
    const std::span<const std::byte> payload = take(size, name, frame_at);
    if (crc32(payload) != crc) {
      throw FormatError("layout checksum mismatch in section '" + std::string(name) + "' of " +
                            path_ + " (blob corrupted?)",
                        name, payload_at);
    }
    return ByteReader(payload, path_, name, payload_at);
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Absolute byte offset of the read cursor within the file.
  std::uint64_t offset() const { return base_ + pos_; }
  const std::string& section_name() const { return section_; }

 private:
  std::span<const std::byte> take(std::uint64_t n) { return take(n, section_, offset()); }

  std::span<const std::byte> take(std::uint64_t n, const std::string& section,
                                  std::uint64_t at) {
    if (n > data_.size() - pos_) {
      throw FormatError("layout file truncated: " + path_, section, at);
    }
    const std::span<const std::byte> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  const std::string& path_;
  std::string section_;
  std::uint64_t base_ = 0;
};

std::vector<std::byte> read_blob(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw Error("cannot open for reading: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) throw Error("read failed: " + path);
  // Fault injection: model bit rot / torn writes between save and load.
  FaultInjector& inj = FaultInjector::global();
  if (inj.enabled() && inj.consume("bitflip:layout")) inj.flip_random_bits(bytes, 1);
  return bytes;
}

void write_preamble(std::ostream& os, std::uint32_t magic, std::uint32_t version) {
  require(version == 1 || version == 2, "unsupported layout format version requested");
  os.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
}

std::uint32_t read_preamble(ByteReader& r, std::uint32_t magic, const char* kind,
                            const std::string& path) {
  if (r.pod<std::uint32_t>() != magic) {
    throw FormatError("bad " + std::string(kind) + " magic in " + path, "preamble", 0);
  }
  const std::uint64_t at = r.offset();
  const auto version = r.pod<std::uint32_t>();
  if (version < 1 || version > 2) {
    throw FormatError("unsupported " + std::string(kind) + " version in " + path, "preamble",
                      at);
  }
  return version;
}

/// Post-parse fault injection: clobber a node field the way an in-memory
/// corruption would, *after* checksums passed — from_parts/validate() must
/// still catch it semantically.
void maybe_corrupt_node(std::vector<std::int32_t>& feature_id) {
  FaultInjector& inj = FaultInjector::global();
  if (inj.enabled() && inj.consume("corrupt:node") && !feature_id.empty()) {
    feature_id[feature_id.size() / 2] = 0x7f7f7f7f;
  }
}

}  // namespace

void save_csr(const CsrForest& csr, const std::string& path, std::uint32_t version) {
  AtomicFile out(path);
  std::ostream& f = out.stream();
  write_preamble(f, kCsrMagic, version);
  SectionWriter w(f, version);
  w.pod(static_cast<std::uint64_t>(csr.num_features()))
      .pod(static_cast<std::uint32_t>(csr.num_classes()));
  w.commit();
  w.array(csr.feature_id()).commit();
  w.array(csr.value()).commit();
  w.array(csr.children_arr()).commit();
  w.array(csr.children_arr_idx()).commit();
  w.array(csr.tree_root()).commit();
  if (!f) throw Error("write failed: " + path);
  out.commit();
}

CsrForest load_csr(const std::string& path) {
  const std::vector<std::byte> blob = read_blob(path);
  ByteReader r(blob, path);
  const std::uint32_t version = read_preamble(r, kCsrMagic, "CSR", path);

  std::uint64_t num_features = 0;
  std::uint32_t num_classes = 0;
  std::vector<std::int32_t> feature_id;
  std::vector<float> value;
  std::vector<std::int32_t> children, children_idx, roots;
  if (version == 1) {
    num_features = r.pod<std::uint64_t>();
    num_classes = r.pod<std::uint32_t>();
    feature_id = r.array<std::int32_t>();
    value = r.array<float>();
    children = r.array<std::int32_t>();
    children_idx = r.array<std::int32_t>();
    roots = r.array<std::int32_t>();
  } else {
    ByteReader header = r.section("csr-header");
    num_features = header.pod<std::uint64_t>();
    num_classes = header.pod<std::uint32_t>();
    feature_id = r.section("feature-id").array<std::int32_t>();
    value = r.section("value").array<float>();
    children = r.section("children").array<std::int32_t>();
    children_idx = r.section("children-idx").array<std::int32_t>();
    roots = r.section("tree-roots").array<std::int32_t>();
  }
  maybe_corrupt_node(feature_id);
  return CsrForest::from_parts(std::move(feature_id), std::move(value), std::move(children),
                               std::move(children_idx), std::move(roots), num_features,
                               static_cast<int>(num_classes));
}

void save_hierarchical(const HierarchicalForest& forest, const std::string& path,
                       std::uint32_t version) {
  AtomicFile out(path);
  std::ostream& f = out.stream();
  write_preamble(f, kHierMagic, version);
  SectionWriter w(f, version);
  w.pod(static_cast<std::uint64_t>(forest.num_features()))
      .pod(static_cast<std::uint32_t>(forest.num_classes()))
      .pod(static_cast<std::int32_t>(forest.config().subtree_depth))
      .pod(static_cast<std::int32_t>(forest.config().root_subtree_depth))
      .pod(static_cast<std::uint64_t>(forest.real_nodes()));
  w.commit();
  w.array(forest.subtree_node_offsets()).commit();
  w.array(forest.subtree_depths()).commit();
  w.array(forest.connection_offsets()).commit();
  w.array(forest.subtree_connection()).commit();
  w.field(forest.nodes(), &PackedNode::feature).commit();
  w.field(forest.nodes(), &PackedNode::value).commit();
  w.array(forest.tree_subtree_begin()).commit();
  if (!f) throw Error("write failed: " + path);
  out.commit();
}

HierarchicalForest load_hierarchical(const std::string& path) {
  const std::vector<std::byte> blob = read_blob(path);
  ByteReader r(blob, path);
  const std::uint32_t version = read_preamble(r, kHierMagic, "hierarchical", path);

  HierConfig config;
  std::uint64_t num_features = 0, real_nodes = 0;
  std::uint32_t num_classes = 0;
  std::vector<std::uint32_t> node_offset, conn_offset, begin;
  std::vector<std::uint8_t> depth;
  std::vector<std::int32_t> connection, feature_id;
  std::vector<float> value;
  if (version == 1) {
    num_features = r.pod<std::uint64_t>();
    num_classes = r.pod<std::uint32_t>();
    config.subtree_depth = r.pod<std::int32_t>();
    config.root_subtree_depth = r.pod<std::int32_t>();
    real_nodes = r.pod<std::uint64_t>();
    node_offset = r.array<std::uint32_t>();
    depth = r.array<std::uint8_t>();
    conn_offset = r.array<std::uint32_t>();
    connection = r.array<std::int32_t>();
    feature_id = r.array<std::int32_t>();
    value = r.array<float>();
    begin = r.array<std::uint32_t>();
  } else {
    ByteReader header = r.section("hier-header");
    num_features = header.pod<std::uint64_t>();
    num_classes = header.pod<std::uint32_t>();
    config.subtree_depth = header.pod<std::int32_t>();
    config.root_subtree_depth = header.pod<std::int32_t>();
    real_nodes = header.pod<std::uint64_t>();
    node_offset = r.section("node-offsets").array<std::uint32_t>();
    depth = r.section("depths").array<std::uint8_t>();
    conn_offset = r.section("connection-offsets").array<std::uint32_t>();
    connection = r.section("connections").array<std::int32_t>();
    feature_id = r.section("feature-id").array<std::int32_t>();
    value = r.section("value").array<float>();
    begin = r.section("tree-begin").array<std::uint32_t>();
  }
  if (config.subtree_depth < 1 || config.subtree_depth > 24) {
    throw FormatError("implausible subtree depth in " + path);
  }
  if (feature_id.size() != value.size()) {
    throw FormatError("hierarchical: attribute array sizes disagree in " + path);
  }
  maybe_corrupt_node(feature_id);
  std::vector<PackedNode> nodes(feature_id.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = {feature_id[i], value[i]};
  return HierarchicalForest::from_parts(config, num_features, static_cast<int>(num_classes),
                                        real_nodes, std::move(node_offset), std::move(depth),
                                        std::move(conn_offset), std::move(connection),
                                        std::move(nodes), std::move(begin));
}

std::string peek_layout_kind(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot open for reading: " + path);
  std::uint32_t magic = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!f) throw FormatError("layout file truncated: " + path, "preamble", 0);
  if (magic == kCsrMagic) return "csr";
  if (magic == kHierMagic) return "hierarchical";
  throw FormatError("not a layout blob (unknown magic): " + path, "preamble", 0);
}

}  // namespace hrf
