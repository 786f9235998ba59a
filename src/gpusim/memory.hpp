// Global-memory model: a flat simulated address space plus one sectored L1
// cache per SM and the shared L2. Warp-level accesses are coalesced into
// 32-byte sector transactions exactly as the hardware's LSU would: lanes
// touching the same sector share one transaction.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"

namespace rdbs::gpusim {

// One cache line touched by a warp memory instruction: line index
// (= address / line_bytes) plus the mask of 32B sectors requested within
// it. The charge path probes these through SectoredCache::access_line,
// which amortizes the set's way scan over every sector of the line.
struct WarpLineRef {
  std::uint64_t line = 0;
  std::uint32_t mask = 0;
};

struct CoalesceResult {
  std::uint32_t distinct_addrs = 0;  // distinct lane addresses (conflicts)
  std::uint32_t sectors = 0;         // distinct 32B sectors (transactions)
  std::uint32_t lines = 0;           // entries written to line_out
};

namespace detail {

// Batcher's odd-even merge sort for P = 2^k inputs as a comparator list,
// built at compile time (P = 32: 191 compare-exchanges).
struct SortNetwork {
  std::uint32_t size = 0;
  std::array<std::uint8_t, 191> lo{};
  std::array<std::uint8_t, 191> hi{};
};

template <std::uint32_t P>
constexpr SortNetwork batcher_network() {
  SortNetwork net;
  for (std::uint32_t p = 1; p < P; p <<= 1) {
    for (std::uint32_t k = p; k >= 1; k >>= 1) {
      for (std::uint32_t j = k % p; j + k < P; j += 2 * k) {
        for (std::uint32_t i = 0; i < k && i + j + k < P; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            net.lo[net.size] = static_cast<std::uint8_t>(i + j);
            net.hi[net.size] = static_cast<std::uint8_t>(i + j + k);
            ++net.size;
          }
        }
      }
    }
  }
  return net;
}

template <std::uint32_t P>
inline constexpr SortNetwork kBatcherNetwork = batcher_network<P>();
static_assert(kBatcherNetwork<32>.size == 191);

// Runs the network fully unrolled: constant indices, one branch-free
// compare-exchange (two conditional moves) per comparator.
template <std::uint32_t P, std::size_t... C>
inline void run_network(std::uint64_t* v, std::index_sequence<C...>) {
  constexpr const SortNetwork& net = kBatcherNetwork<P>;
  (
      [&] {
        const std::uint64_t x = v[net.lo[C]];
        const std::uint64_t y = v[net.hi[C]];
        v[net.lo[C]] = x < y ? x : y;
        v[net.hi[C]] = x < y ? y : x;
      }(),
      ...);
}

// Sorts n <= P values through the P-input network; the padding (all ones,
// above every simulated address) sorts to the back.
template <std::uint32_t P>
inline void network_sort(std::uint64_t* a, std::uint32_t n) {
  std::array<std::uint64_t, P> v;
  std::copy_n(a, n, v.begin());
  std::fill(v.begin() + n, v.end(), ~0ull);
  run_network<P>(v.data(), std::make_index_sequence<kBatcherNetwork<P>.size>{});
  std::copy_n(v.begin(), n, a);
}

// Sorts n <= 32 lane addresses ascending, in place. Lanes already in order
// (CSR row scans, vertex strips, ring slots) cost one compare pass; any
// other list goes through a branch-free sorting network padded to the next
// power of two, whose cost does not depend on how the addresses are spread
// (docs/costmodel.md, "Charge path", has the measured alternatives).
inline void sort_lanes(std::uint64_t* a, std::uint32_t n) {
  bool ascending = true;
  for (std::uint32_t i = 1; i < n; ++i) ascending &= a[i - 1] <= a[i];
  if (ascending) return;
  if (n <= 2) {
    std::swap(a[0], a[1]);
  } else if (n <= 4) {
    network_sort<4>(a, n);
  } else if (n <= 8) {
    network_sort<8>(a, n);
  } else if (n <= 16) {
    network_sort<16>(a, n);
  } else {
    network_sort<32>(a, n);
  }
}

}  // namespace detail

// The coalescing primitive of GpuSim's charge path: sorts the lane
// addresses in place, then a single pass yields the distinct-address count
// (atomic-conflict serialization), the distinct-sector count (transactions)
// and the ascending (line, sector-mask) list. `spl_shift` = log2(sectors
// per line). `line_out` must hold 32 entries.
inline CoalesceResult coalesce_warp_lanes(std::uint64_t* lane_addrs,
                                          std::uint32_t lanes,
                                          std::uint32_t spl_shift,
                                          WarpLineRef* line_out) {
  constexpr std::uint32_t kSectorShift = 5;  // SectoredCache::kSectorBytes
  if (lanes == 1) {
    const std::uint64_t sector = lane_addrs[0] >> kSectorShift;
    line_out[0] = {sector >> spl_shift,
                   1u << (sector & ((1u << spl_shift) - 1))};
    return {1, 1, 1};
  }
  detail::sort_lanes(lane_addrs, lanes);
  CoalesceResult r;
  const std::uint32_t sector_in_line_mask = (1u << spl_shift) - 1;
  std::uint64_t prev_addr = ~0ull;
  std::uint64_t prev_sector = ~0ull;
  std::uint64_t prev_line = ~0ull;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint64_t addr = lane_addrs[l];
    if (addr == prev_addr) continue;
    prev_addr = addr;
    ++r.distinct_addrs;
    const std::uint64_t sector = addr >> kSectorShift;
    if (sector == prev_sector) continue;
    prev_sector = sector;
    ++r.sectors;
    const std::uint64_t line = sector >> spl_shift;
    const std::uint32_t bit =
        1u << (static_cast<std::uint32_t>(sector) & sector_in_line_mask);
    if (line == prev_line) {
      line_out[r.lines - 1].mask |= bit;
    } else {
      line_out[r.lines++] = {line, bit};
      prev_line = line;
    }
  }
  return r;
}

class MemorySim {
 public:
  explicit MemorySim(const DeviceSpec& spec);

  // One entry of the allocation table. The bump allocator never reuses
  // addresses, so a freed region keeps its entry with live = false — a
  // later access to its address range is an exact use-after-free.
  // Host-initialization marks (cudaMemcpy/cudaMemset modeling) are kept
  // here rather than in the sanitizer so that engines may mark buffers in
  // their constructors regardless of when (or whether) the sanitizer is
  // enabled on the owning GpuSim.
  struct Region {
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
    std::uint32_t elem_bytes = 1;
    std::string name;
    bool live = true;
    bool read_only = false;
    bool fully_host_init = false;
    // Set when an uncorrectable injected bit-flip hit this region (gfi);
    // recovery charges a re-upload for poisoned read-only data and clears
    // the mark (see core/recovery.hpp).
    bool poisoned = false;
    // Host-initialized byte ranges [begin, end), absolute addresses,
    // deduplicated on insert (engines re-mark the same seed slot per run).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> host_init;

    std::uint64_t end() const { return base + bytes; }
    std::uint64_t element_of(std::uint64_t addr) const {
      return (addr - base) / (elem_bytes ? elem_bytes : 1);
    }
    bool host_initialized(std::uint64_t begin_addr,
                          std::uint64_t end_addr) const;
  };

  // Reserves a 128-byte-aligned region of the simulated address space and
  // records it in the allocation table. Aborts, naming the buffer, when the
  // region would end at or beyond kAddressLimit.
  std::uint64_t allocate(std::uint64_t bytes, std::string name = {},
                         std::uint32_t elem_bytes = 1);
  // 2^39 bytes: the addresses whose 128-byte line index fits the caches'
  // 32-bit tags.
  static constexpr std::uint64_t kAddressLimit = 1ull << 39;

  // --- allocation-table maintenance (sanitizer support) --------------------
  // Marks the region at `base` dead (simulated cudaFree). Host storage and
  // the address range stay reserved, so stale accesses are detectable.
  void free_region(std::uint64_t base);
  // Marks the region at `base` immutable from device code (e.g. the CSR
  // arrays shared read-only across QueryBatch streams).
  void mark_read_only(std::uint64_t base, bool read_only = true);
  // Records [begin_addr, end_addr) as initialized by a host transfer.
  void mark_host_initialized(std::uint64_t begin_addr, std::uint64_t end_addr);
  // --- fault-injection poison tracking (gfi) -------------------------------
  // Marks the region containing `addr` as hit by an uncorrectable flip.
  void mark_poisoned(std::uint64_t addr);
  // Bytes of live read-only regions currently poisoned: the data a retry
  // must re-upload (mutable buffers are re-initialized by the attempt).
  std::uint64_t poisoned_read_only_bytes() const;
  // Clears every poison mark (after the re-upload has been charged).
  void clear_poison();
  // True when the region containing `addr` is flagged poisoned. Checkpoint
  // snapshots consult this (core/checkpoint.hpp) so a corrupt bound never
  // leaks into a resume.
  bool region_poisoned(std::uint64_t addr) const;
  // Clears one region's mark: a retry attempt re-initializes its mutable
  // buffers from scratch, so their stale poison (which the bulk
  // clear_poison() above only reaches when read-only data was also hit)
  // must not taint the fresh attempt's checkpoints.
  void clear_region_poison(std::uint64_t addr);
  // Region containing `addr`, or nullptr. Regions are base-sorted by
  // construction (bump allocation), so this is a binary search.
  const Region* find_region(std::uint64_t addr) const;
  // Index variant for shadow-state bookkeeping; returns npos when unmapped.
  static constexpr std::size_t kNoRegion = ~static_cast<std::size_t>(0);
  std::size_t find_region_index(std::uint64_t addr) const;
  const std::vector<Region>& regions() const { return regions_; }

  // Direct handles for GpuSim's charge path: each SM's L1 and the shared
  // L2, probed in canonical task order.
  SectoredCache& l1(int sm_id);
  SectoredCache& l2_cache() { return l2_; }

  // log2(sectors per cache line) of the device's caches — the grouping
  // shift coalesce_warp_lanes needs. L1s and the L2 share one line size.
  std::uint32_t spl_shift() const { return spl_shift_; }

  void reset_caches();

 private:
  std::uint64_t next_address_ = 4096;
  std::uint32_t spl_shift_ = 2;
  std::vector<SectoredCache> l1_;
  SectoredCache l2_;
  std::vector<Region> regions_;
};

}  // namespace rdbs::gpusim
