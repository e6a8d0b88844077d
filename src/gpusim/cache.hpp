#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hrf::gpusim {

/// Set-associative cache with LRU replacement, tracked at line granularity.
/// Used for the per-SM L1 caches and the device-wide L2. Only presence is
/// modeled (no data — the simulator is functionally exact elsewhere).
class Cache {
 public:
  /// `line_bytes` must be a power of two, at least 2; `ways` must divide
  /// the line count (capacity need not be a power of two — the TITAN Xp
  /// L2 is 3 MB).
  Cache(std::size_t capacity_bytes, int ways, std::size_t line_bytes);

  /// Touches the line containing byte address `addr`. Returns true on hit.
  /// On miss the line is installed, evicting the set's LRU line.
  bool access(std::uint64_t addr) { return access_line(addr >> line_shift_); }

  /// access() for a line id (byte address / line size).
  ///
  /// One pass: a hit in way 0 (the common case) returns at once; otherwise
  /// each way is shifted one step back as it is scanned, so the set ends
  /// in LRU order (front = most recent) at the hit, or with the LRU line
  /// shifted out on a miss.
  bool access_line(std::uint64_t line) {
    std::uint64_t* way = tags_.data() + set_of(line) * static_cast<std::size_t>(ways_);
    const std::uint64_t tag = line + 1;  // +1: tag 0 is the empty marker
    std::uint64_t prev = way[0];
    if (prev == tag) return true;
    way[0] = tag;
    for (int i = 1; i < ways_; ++i) {
      const std::uint64_t cur = way[i];
      way[i] = prev;
      if (cur == tag) return true;
      prev = cur;
    }
    return false;
  }

  void flush();

  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t line_bytes() const { return line_; }
  int ways() const { return ways_; }
  std::size_t num_sets() const { return sets_; }

 private:
  /// line % sets_. Set counts are rarely powers of two (96 for the TITAN
  /// Xp L1, 1536 for its L2), so 32-bit line ids, which cover a 512 GB
  /// address space, take an exact multiply-based remainder instead of a
  /// division (Lemire, Kaser & Kurz, "Faster remainder by direct
  /// computation", 2019).
  std::size_t set_of(std::uint64_t line) const {
    if (line > 0xffffffffu) return static_cast<std::size_t>(line % sets_);
    const std::uint64_t low = mod_magic_ * line;
    return static_cast<std::size_t>((static_cast<unsigned __int128>(low) * sets_) >> 64);
  }

  std::size_t capacity_;
  std::size_t line_;
  int line_shift_;
  int ways_;
  std::size_t sets_;
  std::uint64_t mod_magic_;  // 2^64 / sets_, rounded up
  // Per set: `ways_` tags in LRU order (front = most recent). Tag 0 means
  // empty.
  std::vector<std::uint64_t> tags_;
};

}  // namespace hrf::gpusim
