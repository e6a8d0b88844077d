#include "serve/integrity.hpp"

#include <span>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace hrf::serve {

namespace {

/// Accumulates bytes exactly the way layout_io's SectionWriter buffers a
/// v2 section payload: pods raw, arrays as u64 count + raw elements. The
/// incremental crc32() folds section payloads the same way folding the
/// blob's per-section CRCs does, so one running checksum suffices.
class CrcAccumulator {
 public:
  template <typename T>
  CrcAccumulator& pod(const T& v) {
    crc_ = crc32(&v, sizeof v, crc_);
    return *this;
  }

  template <typename T>
  CrcAccumulator& array(std::span<const T> xs) {
    pod(static_cast<std::uint64_t>(xs.size()));
    if (!xs.empty()) crc_ = crc32(xs.data(), xs.size_bytes(), crc_);
    return *this;
  }

  /// One field of every packed node, framed like array(): save_hierarchical
  /// writes the node records as separate feature-id and value sections.
  template <typename T>
  CrcAccumulator& field(std::span<const PackedNode> nodes, T PackedNode::*member) {
    pod(static_cast<std::uint64_t>(nodes.size()));
    for (const PackedNode& n : nodes) pod(n.*member);
    return *this;
  }

  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

/// Re-routes every internal node: feature_id == -1 marks leaves (and
/// hierarchical padding slots), whose class votes must stay intact so the
/// corrupted replica still emits valid labels — silent, not crashing.
void clobber_thresholds(std::span<const std::int32_t> feature_id, std::vector<float>& value) {
  bool touched = false;
  for (std::size_t i = 0; i < feature_id.size(); ++i) {
    if (feature_id[i] >= 0) {
      value[i] = -1e30f;
      touched = true;
    }
  }
  require(touched, "corrupt_replica_copy needs at least one internal node");
}

void clobber_thresholds(std::vector<PackedNode>& nodes) {
  bool touched = false;
  for (PackedNode& n : nodes) {
    if (n.feature >= 0) {
      n.value = -1e30f;
      touched = true;
    }
  }
  require(touched, "corrupt_replica_copy needs at least one internal node");
}

}  // namespace

std::uint32_t layout_crc32(const CsrForest& layout) {
  CrcAccumulator acc;
  acc.pod(static_cast<std::uint64_t>(layout.num_features()))
      .pod(static_cast<std::uint32_t>(layout.num_classes()))
      .array(layout.feature_id())
      .array(layout.value())
      .array(layout.children_arr())
      .array(layout.children_arr_idx())
      .array(layout.tree_root());
  return acc.value();
}

std::uint32_t layout_crc32(const HierarchicalForest& layout) {
  CrcAccumulator acc;
  acc.pod(static_cast<std::uint64_t>(layout.num_features()))
      .pod(static_cast<std::uint32_t>(layout.num_classes()))
      .pod(static_cast<std::int32_t>(layout.config().subtree_depth))
      .pod(static_cast<std::int32_t>(layout.config().root_subtree_depth))
      .pod(static_cast<std::uint64_t>(layout.real_nodes()))
      .array(layout.subtree_node_offsets())
      .array(layout.subtree_depths())
      .array(layout.connection_offsets())
      .array(layout.subtree_connection())
      .field(layout.nodes(), &PackedNode::feature)
      .field(layout.nodes(), &PackedNode::value)
      .array(layout.tree_subtree_begin());
  return acc.value();
}

std::uint32_t image_crc32(const gpukernels::DeviceImage& image) {
  CrcAccumulator acc;
  acc.array(image.fil_nodes()).array(image.fil_tree_offset());
  return acc.value();
}

std::uint32_t replica_crc32(const Classifier& clf) {
  switch (clf.options().variant) {
    case Variant::Csr: return layout_crc32(clf.csr());
    case Variant::FilBaseline: return image_crc32(*clf.device_image());
    default: return layout_crc32(clf.hierarchical());
  }
}

CsrForest corrupt_replica_copy(const CsrForest& layout) {
  std::vector<std::int32_t> feature_id(layout.feature_id().begin(), layout.feature_id().end());
  std::vector<float> value(layout.value().begin(), layout.value().end());
  std::vector<std::int32_t> children(layout.children_arr().begin(), layout.children_arr().end());
  std::vector<std::int32_t> children_idx(layout.children_arr_idx().begin(),
                                         layout.children_arr_idx().end());
  std::vector<std::int32_t> roots(layout.tree_root().begin(), layout.tree_root().end());
  clobber_thresholds(feature_id, value);
  return CsrForest::from_parts(std::move(feature_id), std::move(value), std::move(children),
                               std::move(children_idx), std::move(roots), layout.num_features(),
                               layout.num_classes());
}

HierarchicalForest corrupt_replica_copy(const HierarchicalForest& layout) {
  std::vector<std::uint32_t> node_offset(layout.subtree_node_offsets().begin(),
                                         layout.subtree_node_offsets().end());
  std::vector<std::uint8_t> depth(layout.subtree_depths().begin(), layout.subtree_depths().end());
  std::vector<std::uint32_t> conn_offset(layout.connection_offsets().begin(),
                                         layout.connection_offsets().end());
  std::vector<std::int32_t> connection(layout.subtree_connection().begin(),
                                       layout.subtree_connection().end());
  std::vector<PackedNode> nodes(layout.nodes().begin(), layout.nodes().end());
  std::vector<std::uint32_t> begin(layout.tree_subtree_begin().begin(),
                                   layout.tree_subtree_begin().end());
  clobber_thresholds(nodes);
  return HierarchicalForest::from_parts(layout.config(), layout.num_features(),
                                        layout.num_classes(), layout.real_nodes(),
                                        std::move(node_offset), std::move(depth),
                                        std::move(conn_offset), std::move(connection),
                                        std::move(nodes), std::move(begin));
}

}  // namespace hrf::serve
