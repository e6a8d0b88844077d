#include "util/metrics.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace hrf {

void CounterRegistry::add(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void CounterRegistry::add_batch(const std::map<std::string, std::uint64_t>& deltas) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, delta] : deltas) counters_[name] += delta;
}

std::uint64_t CounterRegistry::value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> CounterRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::string CounterRegistry::to_markdown() const {
  Table t({"counter", "value"});
  for (const auto& [name, value] : snapshot()) t.row().cell(name).cell(value);
  return t.markdown();
}

ConfusionMatrix::ConfusionMatrix(std::span<const std::uint8_t> predictions,
                                 std::span<const std::uint8_t> labels, int num_classes)
    : num_classes_(num_classes) {
  require(num_classes >= 2 && num_classes <= 256, "num_classes must be in [2, 256]");
  require(predictions.size() == labels.size(), "prediction/label count mismatch");
  cells_.assign(static_cast<std::size_t>(num_classes) * num_classes, 0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    require(labels[i] < num_classes && predictions[i] < num_classes,
            "class id out of range in confusion matrix input");
    ++cells_[static_cast<std::size_t>(labels[i]) * num_classes + predictions[i]];
    ++total_;
  }
}

std::size_t ConfusionMatrix::at(int truth, int predicted) const {
  require(truth >= 0 && truth < num_classes_ && predicted >= 0 && predicted < num_classes_,
          "class id out of range");
  return cells_[static_cast<std::size_t>(truth) * num_classes_ + predicted];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t diag = 0;
  for (int c = 0; c < num_classes_; ++c) diag += at(c, c);
  return static_cast<double>(diag) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(int cls) const {
  std::size_t predicted = 0;
  for (int t = 0; t < num_classes_; ++t) predicted += at(t, cls);
  return predicted ? static_cast<double>(at(cls, cls)) / static_cast<double>(predicted) : 0.0;
}

double ConfusionMatrix::recall(int cls) const {
  std::size_t actual = 0;
  for (int p = 0; p < num_classes_; ++p) actual += at(cls, p);
  return actual ? static_cast<double>(at(cls, cls)) / static_cast<double>(actual) : 0.0;
}

double ConfusionMatrix::f1(int cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  for (int c = 0; c < num_classes_; ++c) sum += f1(c);
  return sum / num_classes_;
}

namespace {

// Appended rather than `"c" + std::to_string(c)`, on which GCC 12 warns
// -Wrestrict (a false positive) at -O3.
std::string class_label(int c) {
  std::string label = "c";
  label += std::to_string(c);
  return label;
}

}  // namespace

std::string ConfusionMatrix::to_markdown() const {
  std::vector<std::string> headers{"true \\ pred"};
  for (int c = 0; c < num_classes_; ++c) headers.push_back(class_label(c));
  headers.insert(headers.end(), {"precision", "recall", "f1"});
  Table t(headers);
  for (int truth = 0; truth < num_classes_; ++truth) {
    t.row().cell(class_label(truth));
    for (int p = 0; p < num_classes_; ++p) t.cell(static_cast<std::uint64_t>(at(truth, p)));
    t.cell(precision(truth), 3).cell(recall(truth), 3).cell(f1(truth), 3);
  }
  std::ostringstream os;
  os << t.markdown();
  os << "accuracy " << accuracy() << ", macro-F1 " << macro_f1() << "\n";
  return os.str();
}

}  // namespace hrf
