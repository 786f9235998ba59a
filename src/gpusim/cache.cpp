#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

namespace rdbs::gpusim {

SectoredCache::SectoredCache(std::size_t capacity_bytes, int line_bytes,
                             int ways) {
  RDBS_CHECK(ways >= 1);
  RDBS_CHECK(line_bytes >= kSectorBytes);
  RDBS_CHECK(line_bytes % kSectorBytes == 0);
  // The coalescing layer groups lane addresses into lines with shifts, so
  // the line size must be a power of two (every DeviceSpec uses 128).
  RDBS_CHECK(std::has_single_bit(static_cast<unsigned>(line_bytes)));
  sectors_per_line_ = line_bytes / kSectorBytes;
  RDBS_CHECK(sectors_per_line_ <= 32);
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  ways_per_set_ = static_cast<std::uint32_t>(ways);
  const std::size_t total_lines = std::max<std::size_t>(
      ways_per_set_, capacity_bytes / static_cast<std::size_t>(line_bytes));
  const std::size_t sets =
      std::max<std::size_t>(1, total_lines / ways_per_set_);
  RDBS_CHECK(sets <= kMaxLine);
  num_sets_ = static_cast<std::uint32_t>(sets);
  sets_pow2_ = std::has_single_bit(num_sets_);
  fastmod_magic_ = ~0ull / num_sets_ + 1;
  ways_.assign(sets * ways_per_set_, Way{kEmptyTag, 0});
}

void SectoredCache::reset() {
  std::fill(ways_.begin(), ways_.end(), Way{kEmptyTag, 0});
}

}  // namespace rdbs::gpusim
