#include "gpusim/memory.hpp"

#include <algorithm>

#include "common/macros.hpp"

namespace rdbs::gpusim {

MemorySim::MemorySim(const DeviceSpec& spec)
    : l2_(static_cast<std::size_t>(spec.l2_kb) * 1024, spec.l1_line_bytes,
          spec.l2_ways) {
  l1_.reserve(static_cast<std::size_t>(spec.num_sms));
  for (int sm = 0; sm < spec.num_sms; ++sm) {
    l1_.emplace_back(static_cast<std::size_t>(spec.l1_kb_per_sm) * 1024,
                     spec.l1_line_bytes, spec.l1_ways);
  }
  // 32-bit line tags cover kAddressLimit only with lines of >= 128 bytes.
  RDBS_CHECK(static_cast<std::uint64_t>(spec.l1_line_bytes) << 32 >=
             kAddressLimit);
  std::uint32_t spl = static_cast<std::uint32_t>(spec.l1_line_bytes) /
                      SectoredCache::kSectorBytes;
  spl_shift_ = 0;
  while ((1u << spl_shift_) < spl) ++spl_shift_;
}

std::uint64_t MemorySim::allocate(std::uint64_t bytes, std::string name,
                                  std::uint32_t elem_bytes) {
  const std::uint64_t base = next_address_;
  RDBS_CHECK_MSG(bytes < kAddressLimit - base,
                 ("allocate: buffer '" + name +
                  "' would end at or beyond 2^39 bytes of simulated address "
                  "space").c_str());
  // Zero-byte allocations still advance by one line so region bases stay
  // unique (find_region_index binary-searches on them).
  next_address_ += std::max<std::uint64_t>((bytes + 127) / 128, 1) * 128;
  Region region;
  region.base = base;
  region.bytes = bytes;
  region.elem_bytes = elem_bytes == 0 ? 1 : elem_bytes;
  region.name = std::move(name);
  regions_.push_back(std::move(region));
  return base;
}

bool MemorySim::Region::host_initialized(std::uint64_t begin_addr,
                                         std::uint64_t end_addr) const {
  if (fully_host_init) return true;
  for (const auto& [lo, hi] : host_init) {
    if (begin_addr >= lo && end_addr <= hi) return true;
  }
  return false;
}

std::size_t MemorySim::find_region_index(std::uint64_t addr) const {
  // Bump allocation keeps regions_ sorted by base: binary-search the last
  // region whose base is <= addr, then range-check it.
  std::size_t lo = 0;
  std::size_t hi = regions_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (regions_[mid].base <= addr) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return kNoRegion;
  const Region& region = regions_[lo - 1];
  return addr < region.end() ? lo - 1 : kNoRegion;
}

const MemorySim::Region* MemorySim::find_region(std::uint64_t addr) const {
  const std::size_t index = find_region_index(addr);
  return index == kNoRegion ? nullptr : &regions_[index];
}

void MemorySim::free_region(std::uint64_t base) {
  const std::size_t index = find_region_index(base);
  RDBS_CHECK_MSG(index != kNoRegion && regions_[index].base == base,
                 "free_region: no allocation at this base address");
  RDBS_CHECK_MSG(regions_[index].live, "free_region: double free");
  regions_[index].live = false;
}

void MemorySim::mark_read_only(std::uint64_t base, bool read_only) {
  const std::size_t index = find_region_index(base);
  RDBS_CHECK_MSG(index != kNoRegion && regions_[index].base == base,
                 "mark_read_only: no allocation at this base address");
  regions_[index].read_only = read_only;
}

void MemorySim::mark_host_initialized(std::uint64_t begin_addr,
                                      std::uint64_t end_addr) {
  if (begin_addr >= end_addr) return;
  const std::size_t index = find_region_index(begin_addr);
  if (index == kNoRegion) return;
  Region& region = regions_[index];
  if (region.fully_host_init) return;
  if (begin_addr <= region.base && end_addr >= region.end()) {
    region.fully_host_init = true;
    region.host_init.clear();
    region.host_init.shrink_to_fit();
    return;
  }
  // Absorb into an overlapping/adjacent range if possible; engines mark the
  // same seed slot every run, so containment is the common case.
  for (auto& [lo, hi] : region.host_init) {
    if (begin_addr >= lo && end_addr <= hi) return;
    if (begin_addr <= hi && end_addr >= lo) {
      lo = std::min(lo, begin_addr);
      hi = std::max(hi, end_addr);
      return;
    }
  }
  region.host_init.emplace_back(begin_addr, end_addr);
}

void MemorySim::mark_poisoned(std::uint64_t addr) {
  const std::size_t index = find_region_index(addr);
  if (index != kNoRegion) regions_[index].poisoned = true;
}

std::uint64_t MemorySim::poisoned_read_only_bytes() const {
  std::uint64_t bytes = 0;
  for (const Region& region : regions_) {
    if (region.poisoned && region.read_only && region.live) {
      bytes += region.bytes;
    }
  }
  return bytes;
}

void MemorySim::clear_poison() {
  for (Region& region : regions_) region.poisoned = false;
}

bool MemorySim::region_poisoned(std::uint64_t addr) const {
  const Region* region = find_region(addr);
  return region != nullptr && region->poisoned;
}

void MemorySim::clear_region_poison(std::uint64_t addr) {
  const std::size_t index = find_region_index(addr);
  if (index != kNoRegion) regions_[index].poisoned = false;
}

SectoredCache& MemorySim::l1(int sm_id) {
  RDBS_DCHECK(sm_id >= 0 && static_cast<std::size_t>(sm_id) < l1_.size());
  return l1_[static_cast<std::size_t>(sm_id)];
}

void MemorySim::reset_caches() {
  for (auto& cache : l1_) cache.reset();
  l2_.reset();
}

}  // namespace rdbs::gpusim
