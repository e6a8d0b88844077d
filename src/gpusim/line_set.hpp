#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hrf::gpusim {

/// Set of line ids that does no heap allocation per insert: open
/// addressing with linear probing over a power-of-two table, grown by
/// doubling at half load. Accepts every 64-bit id. Holds the lines that
/// LoadHint::kTemporal loads have touched.
class LineSet {
 public:
  /// Adds `line`; returns true when it was not in the set yet.
  bool insert(std::uint64_t line) {
    const std::uint64_t key = line + 1;  // +1: slot value 0 is the empty marker
    if (key == 0) return !std::exchange(has_max_line_, true);
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = slot_of(key);
    for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  /// Empties the set and keeps its table.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
    has_max_line_ = false;
  }

 private:
  // Fibonacci hashing: the top bits of key x 2^64/phi, so consecutive
  // line ids spread over the table.
  std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15u) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old(std::max<std::size_t>(1024, 2 * slots_.size()), 0);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = slot_of(key);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;  // power-of-two size; 0 = empty
  std::size_t size_ = 0;              // occupied slots
  int shift_ = 64;                    // 64 - log2(slots_.size())
  bool has_max_line_ = false;         // line 2^64 - 1, whose key wraps to 0
};

}  // namespace hrf::gpusim
