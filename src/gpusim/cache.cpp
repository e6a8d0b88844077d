#include "gpusim/cache.hpp"

#include <bit>
#include <limits>

#include "util/error.hpp"

namespace hrf::gpusim {

Cache::Cache(std::size_t capacity_bytes, int ways, std::size_t line_bytes)
    : capacity_(capacity_bytes),
      line_(line_bytes),
      line_shift_(std::countr_zero(line_bytes)),
      ways_(ways) {
  require(std::has_single_bit(line_bytes), "cache line size must be a power of two");
  // Tags are line + 1 with 0 marking an empty way; a 1-byte line would let
  // line 2^64 - 1 wrap onto that marker.
  require(line_bytes >= 2, "cache line size must be at least 2 bytes");
  require(ways >= 1, "cache needs at least one way");
  const std::size_t lines = capacity_bytes / line_bytes;
  require(lines >= static_cast<std::size_t>(ways), "cache smaller than one set");
  require(lines % static_cast<std::size_t>(ways) == 0, "ways must divide line count");
  sets_ = lines / static_cast<std::size_t>(ways);
  require(sets_ <= 0xffffffffu, "cache has more than 2^32 - 1 sets");
  mod_magic_ = std::numeric_limits<std::uint64_t>::max() / sets_ + 1;
  tags_.assign(lines, 0);
}

void Cache::flush() { tags_.assign(tags_.size(), 0); }

}  // namespace hrf::gpusim
