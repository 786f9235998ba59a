// Set-associative, sectored L1/L2 cache model.
//
// Tags are kept at cache-line granularity (128B) with a per-sector valid
// mask (4 x 32B sectors per line), matching how Volta's unified L1 counts
// the nvprof `global_hit_rate` metric: a probe hits iff the 32B sector is
// present. Replacement is LRU within a set. Fully deterministic.
//
// Each set keeps its ways in recency order: slot 0 holds the most recently
// used line, a hit rotates its way to the front, and a miss drops the last
// slot and inserts at the front. Valid lines always form a prefix of the
// set (a hit only rotates valid ways; a miss pushes empties toward the
// back), so the last slot is an empty way while one exists and otherwise
// the least recently used line. That is the hit/miss sequence of a
// timestamp LRU (stamp = probe tick, victim = smallest stamp): valid lines
// carry distinct stamps, and only empty ways tie — which empty way a miss
// fills is unobservable.
//
// Two probe entry points:
//   access(address)          — one sector, the scalar probe.
//   access_line(line, mask)  — every requested sector of ONE line in a
//     single tag lookup. Equivalent to probing the sectors of `mask` in
//     ascending order through access(): the line's recency position after
//     the batch is the front either way, and the hit mask is computed
//     against the pre-probe sector mask. The charge path coalesces warp
//     accesses into (line, sector-mask) pairs, so this amortizes the set
//     scan over up to sectors-per-line probes.
//
// Line tags are 32-bit line indices: with 128B lines they cover addresses
// below 2^39, which MemorySim::allocate enforces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.hpp"

namespace rdbs::gpusim {

class SectoredCache {
 public:
  // capacity_bytes / line_bytes lines, organized into `ways`-way sets.
  SectoredCache(std::size_t capacity_bytes, int line_bytes, int ways);

  // Probes the sector containing `address`. On miss, fills the sector
  // (allocating / evicting a line as needed). Returns true on hit.
  bool access(std::uint64_t address) {
    const std::uint64_t line_addr = line_of(address);
    const auto sector = static_cast<std::uint32_t>(
        (address >> kSectorShift) &
        static_cast<std::uint64_t>(sectors_per_line_ - 1));
    return access_line(line_addr, 1u << sector) != 0;
  }

  // Probes the sectors of `mask` (bit i = sector i, non-empty) within the
  // line with index `line_addr` (= address / line_bytes, < 2^32). Returns
  // the mask of sectors that hit; misses are filled. Defined inline: this
  // is the innermost loop of the charge path (tens of millions of probes
  // per engine run).
  std::uint32_t access_line(std::uint64_t line_addr, std::uint32_t mask) {
    RDBS_DCHECK(mask != 0);
    RDBS_DCHECK(line_addr <= kMaxLine);
    const auto tag = static_cast<std::uint32_t>(line_addr);
    Way* set = ways_.data() + set_of_line(line_addr) * ways_per_set_;

    // A hit on the most recent line needs no rotation.
    if (set[0].tag == tag) {
      const std::uint32_t hits = set[0].mask & mask;
      set[0].mask |= mask;
      return hits;
    }
    std::uint32_t w = 1;
    while (w < ways_per_set_ && set[w].tag != tag) ++w;
    std::uint32_t hits = 0;
    if (w < ways_per_set_) {
      hits = set[w].mask & mask;
      mask |= set[w].mask;
    } else {
      --w;  // miss: the last slot (an empty way, or the LRU line) goes
    }
    for (; w > 0; --w) set[w] = set[w - 1];
    set[0] = {tag, mask};
    return hits;
  }

  void reset();

  std::uint64_t line_of(std::uint64_t address) const {
    return address >> line_shift_;
  }
  // The set a line maps to. A power-of-two set count masks; otherwise
  // (V100's L2 has 3,072 sets) the remainder comes from one multiply-shift
  // (Lemire's fastmod: exact for every 32-bit dividend and divisor) instead
  // of a 64-bit division on every probe.
  std::size_t set_of_line(std::uint64_t line_addr) const {
    const auto line = static_cast<std::uint32_t>(line_addr);
    if (sets_pow2_) return line & (num_sets_ - 1);
    const std::uint64_t low_bits = fastmod_magic_ * line;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(low_bits) * num_sets_) >> 64);
  }

  static constexpr int kSectorBytes = 32;
  static constexpr int kSectorShift = 5;
  // Largest line index a 32-bit tag holds.
  static constexpr std::uint64_t kMaxLine = 0xffffffffull;

 private:
  // One way: its line tag and the mask of sectors present. An empty way
  // has mask 0 (and tag kEmptyTag); a probe of line kEmptyTag that matches
  // an empty way sees no hits and lands in the same state a fill would.
  struct Way {
    std::uint32_t tag;
    std::uint32_t mask;
  };
  static constexpr std::uint32_t kEmptyTag = 0xffffffffu;

  int sectors_per_line_;
  int line_shift_;                 // log2(line_bytes); a power of 2
  std::uint32_t ways_per_set_;
  std::uint32_t num_sets_;
  bool sets_pow2_;                 // L1s and T4's L2 yes; V100's L2 no
  std::uint64_t fastmod_magic_;    // 2^64 / num_sets, rounded up
  // num_sets_ * ways_per_set_ ways, set-major, each set in recency order.
  // 8 bytes per way: a 16-way set is two host cache lines.
  std::vector<Way> ways_;
};

}  // namespace rdbs::gpusim
