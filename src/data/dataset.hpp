#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hrf {

/// A classification dataset held in row-major order.
///
/// The paper's setting is binary (class A = 0, B = 1), millions of
/// samples, tens of single-precision features; the library additionally
/// supports multi-class labels (e.g. the original 7-class Covertype the
/// paper binarized). Feature vectors double as inference *queries*: the
/// evaluation classifies the test half of each dataset against a trained
/// forest.
class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset with capacity for `num_samples` rows and
  /// labels in [0, num_classes).
  Dataset(std::size_t num_samples, std::size_t num_features, int num_classes = 2);

  std::size_t num_samples() const { return labels_.size(); }
  std::size_t num_features() const { return num_features_; }
  int num_classes() const { return num_classes_; }

  /// Feature vector of sample `i` (length num_features()).
  std::span<const float> sample(std::size_t i) const {
    return {features_.data() + i * num_features_, num_features_};
  }
  std::span<float> sample(std::size_t i) {
    return {features_.data() + i * num_features_, num_features_};
  }

  std::uint8_t label(std::size_t i) const { return labels_[i]; }
  void set_label(std::size_t i, std::uint8_t v) { labels_[i] = v; }

  /// Raw row-major feature matrix (num_samples x num_features).
  std::span<const float> features() const { return features_; }
  std::span<const std::uint8_t> labels() const { return labels_; }

  /// Appends one sample; `row` must have num_features() entries.
  void push_back(std::span<const float> row, std::uint8_t label);

  /// Name used in reports ("covertype-like", ...).
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Fraction of samples labelled class 1 (binary datasets).
  double positive_fraction() const;

  /// Per-class sample counts (size num_classes()).
  std::vector<std::size_t> class_histogram() const;

  /// Splits into (train, test) halves: the first `train_fraction` of samples
  /// train, the rest test — the paper slices 1:1. Order is preserved
  /// (generators already shuffle).
  std::pair<Dataset, Dataset> split(double train_fraction = 0.5) const;

  /// Binary (de)serialization for caching generated datasets across bench
  /// runs. Format: magic, version, dims, raw arrays. Throws FormatError on
  /// malformed input.
  void save(const std::string& path) const;
  static Dataset load(const std::string& path);

 private:
  std::size_t num_features_ = 0;
  int num_classes_ = 2;
  std::vector<float> features_;
  std::vector<std::uint8_t> labels_;
  std::string name_ = "unnamed";
};

/// A non-owning, read-only run of query rows: a row-major feature pointer,
/// a row count and a width. It is what inference reads, so a deadline
/// chunk or a gathered batch is a row range, not a copied Dataset. The
/// referenced features must outlive the view.
class QueryView {
 public:
  QueryView(const float* features, std::size_t num_samples, std::size_t num_features)
      : features_(features), num_samples_(num_samples), num_features_(num_features) {}
  /// Every row of `d` (implicit, so a Dataset goes wherever a view does).
  QueryView(const Dataset& d)
      : QueryView(d.features().data(), d.num_samples(), d.num_features()) {}

  std::size_t num_samples() const { return num_samples_; }
  std::size_t num_features() const { return num_features_; }
  std::span<const float> features() const { return {features_, num_samples_ * num_features_}; }
  std::span<const float> sample(std::size_t i) const {
    return {features_ + i * num_features_, num_features_};
  }
  /// Rows [lo, hi) of this view (lo <= hi <= num_samples()).
  QueryView rows(std::size_t lo, std::size_t hi) const {
    return {features_ + lo * num_features_, hi - lo, num_features_};
  }

 private:
  const float* features_ = nullptr;
  std::size_t num_samples_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace hrf
