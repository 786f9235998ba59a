// Global-memory model: a flat simulated address space plus one sectored L1
// cache per SM. Warp-level accesses are coalesced into 32-byte sector
// transactions exactly as the hardware's LSU would: lanes touching the same
// sector share one transaction.
#pragma once

#include <cstdint>
#include <span>
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

// The shared coalescing primitive (GpuSim's charge path and
// MemorySim::access both charge through it): sorts the lane addresses in
// place, then a single pass yields the distinct-address count (atomic-
// conflict serialization), the distinct-sector count (transactions) and
// the ascending (line, sector-mask) list. `spl_shift` = log2(sectors per
// line). `line_out` must hold 32 entries.
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
  // Insertion sort: n <= 32 and warp patterns are mostly presorted
  // (consecutive lanes touch consecutive elements).
  for (std::uint32_t i = 1; i < lanes; ++i) {
    const std::uint64_t key = lane_addrs[i];
    std::uint32_t j = i;
    for (; j > 0 && lane_addrs[j - 1] > key; --j) {
      lane_addrs[j] = lane_addrs[j - 1];
    }
    lane_addrs[j] = key;
  }
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
  // records it in the allocation table.
  std::uint64_t allocate(std::uint64_t bytes, std::string name = {},
                         std::uint32_t elem_bytes = 1);

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

  struct AccessResult {
    std::uint32_t transactions = 0;  // distinct 32B sectors touched
    std::uint32_t hits = 0;          // sectors found in the SM's L1
    std::uint32_t l2_hits = 0;       // L1 misses served by the shared L2
    std::uint32_t dram_sectors = 0;  // sectors that went all the way out
  };

  // One warp memory instruction on `sm_id` touching the given lane
  // addresses (one per active lane, at most warp_size entries).
  // `cached` routes the probe through the SM's L1 (loads/stores); atomics
  // pass cached = false — they bypass L1 and resolve in the shared L2
  // (as on Volta/Turing), falling through to DRAM on an L2 miss.
  AccessResult access(int sm_id, std::span<const std::uint64_t> addresses,
                      bool cached);

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
