// Unit tests for the SIMT simulator: cache behaviour, coalescing, counter
// accounting, divergence, scheduling and the cost model's invariants —
// including the heap-based dynamic scheduler against a linear argmin, the
// sorted conflict scan against an O(n^2) count, and run-to-run identity of
// a persistent kernel whose task list grows mid-launch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/sim.hpp"

namespace rdbs::gpusim {
namespace {

TEST(Cache, RepeatAccessHits) {
  SectoredCache cache(4096, 128, 4);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(16));  // same 32B sector
}

TEST(Cache, SectorGranularity) {
  SectoredCache cache(4096, 128, 4);
  EXPECT_FALSE(cache.access(0));
  // Different sector of the same 128B line: still a (sector) miss.
  EXPECT_FALSE(cache.access(64));
  EXPECT_TRUE(cache.access(64));
}

TEST(Cache, LruEviction) {
  // 2 lines per set... capacity 2 lines total with 2 ways -> 1 set.
  SectoredCache cache(256, 128, 2);
  EXPECT_FALSE(cache.access(0));        // line A
  EXPECT_FALSE(cache.access(128));      // line B
  EXPECT_FALSE(cache.access(256));      // line C evicts A (LRU)
  EXPECT_FALSE(cache.access(0));        // A is gone
  EXPECT_TRUE(cache.access(256));       // C survived? (B was evicted by A)
}

TEST(Cache, ResetClears) {
  SectoredCache cache(4096, 128, 4);
  cache.access(0);
  EXPECT_TRUE(cache.access(0));
  cache.reset();
  EXPECT_FALSE(cache.access(0));
}

// --- cache vs. a timestamp-LRU reference ------------------------------------

// The cache model as it stood before recency-ordered sets: 64-bit tags,
// per-way LRU stamps from a probe tick, the victim the smallest stamp (the
// lowest way on ties, which only empty ways share), sets by `%`. Kept as
// the oracle the recency-ordered SectoredCache must match probe by probe.
class StampLruReference {
 public:
  StampLruReference(std::size_t capacity_bytes, int line_bytes, int ways)
      : ways_(ways) {
    const auto way_count = static_cast<std::size_t>(ways);
    const std::size_t total_lines = std::max<std::size_t>(
        way_count, capacity_bytes / static_cast<std::size_t>(line_bytes));
    num_sets_ = std::max<std::size_t>(1, total_lines / way_count);
    const std::size_t slots = num_sets_ * way_count;
    tags_.assign(slots, ~0ull);
    sector_masks_.assign(slots, 0);
    lru_stamps_.assign(slots, 0);
  }

  std::uint32_t access_line(std::uint64_t line_addr, std::uint32_t mask) {
    const std::size_t base =
        static_cast<std::size_t>(line_addr % num_sets_) *
        static_cast<std::size_t>(ways_);
    tick_ += static_cast<std::uint64_t>(std::popcount(mask));
    for (int w = 0; w < ways_; ++w) {
      const std::size_t slot = base + static_cast<std::size_t>(w);
      if (tags_[slot] == line_addr) {
        const std::uint32_t hits = sector_masks_[slot] & mask;
        sector_masks_[slot] |= mask;
        lru_stamps_[slot] = tick_;
        return hits;
      }
    }
    int victim = 0;
    for (int w = 1; w < ways_; ++w) {
      if (lru_stamps_[base + static_cast<std::size_t>(w)] <
          lru_stamps_[base + static_cast<std::size_t>(victim)]) {
        victim = w;
      }
    }
    const std::size_t slot = base + static_cast<std::size_t>(victim);
    tags_[slot] = line_addr;
    sector_masks_[slot] = mask;
    lru_stamps_[slot] = tick_;
    return 0;
  }

 private:
  int ways_;
  std::size_t num_sets_;
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> sector_masks_;
  std::vector<std::uint64_t> lru_stamps_;
};

// Feeds both caches one seeded access_line sequence and compares the hit
// masks probe by probe. Lines come from a hot set (re-touches, so hits at
// every recency depth), a cold range a few times the capacity (evictions),
// and the top of the 32-bit line range (the largest tags, and set indices
// far from the fastmod's small-dividend cases). Returns the probes that hit.
std::uint64_t expect_matches_stamp_lru(std::size_t capacity_bytes, int ways,
                                       std::uint64_t seed, int probes) {
  constexpr int kLineBytes = 128;
  SectoredCache cache(capacity_bytes, kLineBytes, ways);
  StampLruReference reference(capacity_bytes, kLineBytes, ways);
  Xoshiro256 rng(seed);
  const std::uint64_t lines =
      std::max<std::uint64_t>(capacity_bytes / kLineBytes,
                              static_cast<std::uint64_t>(ways));
  const std::uint64_t hot = std::max<std::uint64_t>(2, lines / 2);
  std::uint64_t hit_probes = 0;
  for (int i = 0; i < probes; ++i) {
    std::uint64_t line;
    switch (rng.next_below(3)) {
      case 0: line = rng.next_below(hot); break;
      case 1: line = rng.next_below(4 * lines); break;
      default:
        line = SectoredCache::kMaxLine - rng.next_below(4 * lines);
        break;
    }
    const auto mask = static_cast<std::uint32_t>(1 + rng.next_below(15));
    const std::uint32_t got = cache.access_line(line, mask);
    const std::uint32_t want = reference.access_line(line, mask);
    if (got != want) {
      ADD_FAILURE() << "capacity " << capacity_bytes << " ways " << ways
                    << " probe " << i << " line " << line << " mask " << mask
                    << ": hits " << got << ", reference " << want;
      return hit_probes;
    }
    hit_probes += got != 0;
  }
  return hit_probes;
}

void expect_device_caches_match_stamp_lru(const DeviceSpec& spec,
                                          std::uint64_t seed) {
  const std::uint64_t l1_hits = expect_matches_stamp_lru(
      static_cast<std::size_t>(spec.l1_kb_per_sm) * 1024, spec.l1_ways, seed,
      200000);
  const std::uint64_t l2_hits = expect_matches_stamp_lru(
      static_cast<std::size_t>(spec.l2_kb) * 1024, spec.l2_ways, seed + 1,
      400000);
  // The sequences must exercise both outcomes to mean anything.
  EXPECT_GT(l1_hits, 1000u);
  EXPECT_GT(l2_hits, 1000u);
}

TEST(CacheOracle, V100MatchesStampLru) {
  // The L2 has 3,072 sets: the multiply-shift set index path.
  ASSERT_EQ(v100().l2_kb * 1024 / 128 / v100().l2_ways, 3072);
  expect_device_caches_match_stamp_lru(v100(), 21);
}

TEST(CacheOracle, TeslaT4MatchesStampLru) {
  expect_device_caches_match_stamp_lru(tesla_t4(), 31);
}

TEST(CacheOracle, TestDeviceMatchesStampLru) {
  expect_device_caches_match_stamp_lru(test_device(), 41);
}

TEST(CacheOracle, OddSetCountsMatchStampLru) {
  // 1 set x 2 ways, and small non-power-of-two set counts (3, 5, 7 sets).
  EXPECT_GT(expect_matches_stamp_lru(256, 2, 51, 20000), 1000u);
  for (const int sets : {3, 5, 7}) {
    EXPECT_GT(expect_matches_stamp_lru(
                  static_cast<std::size_t>(sets) * 4 * 128, 4,
                  60 + static_cast<std::uint64_t>(sets), 20000),
              1000u);
  }
}

// --- coalescer vs. std::sort + unique ----------------------------------------

// Checks coalesce_warp_lanes on one lane list against a reference built
// with std::sort, std::unique and an ordered line map (128B lines).
void expect_coalesces_like_reference(const std::vector<std::uint64_t>& lanes,
                                     const char* pattern) {
  SCOPED_TRACE(::testing::Message() << pattern << ", " << lanes.size()
                                    << " lanes");
  std::vector<std::uint64_t> sorted = lanes;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> distinct = sorted;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::map<std::uint64_t, std::uint32_t> line_masks;
  std::set<std::uint64_t> sectors;
  for (const std::uint64_t addr : distinct) {
    sectors.insert(addr >> 5);
    line_masks[addr >> 7] |= 1u << ((addr >> 5) & 3);
  }

  std::array<std::uint64_t, 32> work{};
  std::copy(lanes.begin(), lanes.end(), work.begin());
  std::array<WarpLineRef, 32> out{};
  const CoalesceResult r = coalesce_warp_lanes(
      work.data(), static_cast<std::uint32_t>(lanes.size()), 2, out.data());
  EXPECT_EQ(r.distinct_addrs, distinct.size());
  EXPECT_EQ(r.sectors, sectors.size());
  ASSERT_EQ(r.lines, line_masks.size());
  std::uint32_t i = 0;
  for (const auto& [line, mask] : line_masks) {
    EXPECT_EQ(out[i].line, line) << "line entry " << i;
    EXPECT_EQ(out[i].mask, mask) << "line entry " << i;
    ++i;
  }
  // Multi-lane lists come back sorted in place.
  if (lanes.size() > 1) {
    EXPECT_TRUE(std::equal(sorted.begin(), sorted.end(), work.begin()));
  }
}

TEST(CoalesceOracle, MatchesSortUniqueReference) {
  Xoshiro256 rng(71);
  const std::uint64_t base = 4096 * 37;
  for (std::uint32_t n = 1; n <= 32; ++n) {
    std::vector<std::uint64_t> lanes(n);
    for (std::uint32_t i = 0; i < n; ++i) lanes[i] = base + 4 * i;
    expect_coalesces_like_reference(lanes, "contiguous");
    for (const std::uint64_t stride : {8ull, 12ull, 64ull, 136ull, 4096ull}) {
      for (std::uint32_t i = 0; i < n; ++i) lanes[i] = base + stride * i;
      expect_coalesces_like_reference(lanes, "strided");
    }
    for (std::uint32_t i = 0; i < n; ++i) lanes[i] = base + 8 * (n - 1 - i);
    expect_coalesces_like_reference(lanes, "reversed");
    for (int rep = 0; rep < 8; ++rep) {
      for (std::uint32_t i = 0; i < n; ++i) lanes[i] = base + 8 * i;
      for (int swaps = 0; swaps < 1 + rep % 3 && n > 1; ++swaps) {
        std::swap(lanes[rng.next_below(n)], lanes[rng.next_below(n)]);
      }
      expect_coalesces_like_reference(lanes, "nearly sorted");
      for (std::uint32_t i = 0; i < n; ++i) {
        lanes[i] = base + 8 * rng.next_below(1 + rep % 4);
      }
      expect_coalesces_like_reference(lanes, "duplicate-heavy");
      for (std::uint32_t i = 0; i < n; ++i) {
        lanes[i] = base + rng.next_below(96);
      }
      expect_coalesces_like_reference(lanes, "1-byte elements");
      for (std::uint32_t i = 0; i < n; ++i) {
        lanes[i] = base + 8 * rng.next_below(1u << (4 + 3 * (rep % 6)));
      }
      expect_coalesces_like_reference(lanes, "scattered");
      for (std::uint32_t i = 0; i < n; ++i) {
        lanes[i] = rng.next_below(MemorySim::kAddressLimit);
      }
      expect_coalesces_like_reference(lanes, "scattered, full range");
    }
  }
}

// --- the charge path's memory accounting ------------------------------------

TEST(Memory, CoalescedAccessIsOneTransactionPerSector) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<std::uint32_t>("x", 64);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    // 8 consecutive 4-byte elements = 32 bytes = 1 sector.
    const std::array<std::uint64_t, 8> idx{0, 1, 2, 3, 4, 5, 6, 7};
    std::array<std::uint32_t, 8> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx),
             std::span<std::uint32_t>(out));
  });
  EXPECT_EQ(sim.counters().memory_transactions, 1u);
  EXPECT_EQ(sim.counters().l1_sector_accesses, 1u);
}

TEST(Memory, ScatteredAccessIsOneTransactionPerLane) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<std::uint32_t>("x", 8 * 1024);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    std::array<std::uint64_t, 8> idx{};
    for (int i = 0; i < 8; ++i) idx[i] = i * 1024;  // 4096 bytes apart
    std::array<std::uint32_t, 8> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx),
             std::span<std::uint32_t>(out));
  });
  EXPECT_EQ(sim.counters().memory_transactions, 8u);
  EXPECT_EQ(sim.counters().l1_sector_accesses, 8u);
}

TEST(Memory, PerSmCachesAreIndependent) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<double>("x", 8);
  // Static schedule, one warp per block: task 0 runs on SM 0, task 1 on SM 1.
  sim.run_kernel(Schedule::kStatic, 2, 1, [&](WarpCtx& ctx, std::uint64_t t) {
    EXPECT_EQ(ctx.sm_id(), static_cast<int>(t));
    ctx.load_one(buf, 0);
    if (t == 0) ctx.load_one(buf, 0);
  });
  const Counters& c = sim.counters();
  EXPECT_EQ(c.l1_sector_accesses, 3u);
  // Only SM 0's repeat hits; SM 1's L1 never saw the sector (its miss is
  // served by the shared L2).
  EXPECT_EQ(c.l1_sector_hits, 1u);
  EXPECT_EQ(c.l2_sector_hits, 1u);
}

TEST(Memory, UncachedAccessNeverHits) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<double>("x", 8);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.load_one(buf, 0);  // warm L1
    ctx.atomic_min_one(buf, 0, -1.0);
  });
  const Counters& c = sim.counters();
  // The atomic bypasses the warm L1: one transaction, no L1 probe or hit.
  EXPECT_EQ(c.memory_transactions, 2u);
  EXPECT_EQ(c.l1_sector_accesses, 1u);
  EXPECT_EQ(c.l1_sector_hits, 0u);
  EXPECT_EQ(c.l2_sector_accesses, 2u);
}

TEST(Memory, AllocationsAreAlignedAndDisjoint) {
  MemorySim memory(test_device());
  const std::uint64_t a = memory.allocate(100);
  const std::uint64_t b = memory.allocate(100);
  EXPECT_EQ(a % 128, 0u);
  EXPECT_EQ(b % 128, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(MemoryDeathTest, AllocationPastTagRangeNamesTheBuffer) {
  // Ending exactly at 2^39 is already out of range.
  EXPECT_DEATH(
      {
        MemorySim memory(test_device());
        memory.allocate(MemorySim::kAddressLimit - 4096, "edge_buffer");
      },
      "edge_buffer");
  // The last byte below 2^39 fits; the next buffer does not.
  EXPECT_DEATH(
      {
        MemorySim memory(test_device());
        memory.allocate(MemorySim::kAddressLimit - 4096 - 1, "last_fit");
        memory.allocate(1, "one_too_many");
      },
      "one_too_many");
  EXPECT_DEATH(
      {
        MemorySim memory(test_device());
        memory.allocate(~0ull, "overflowing");
      },
      "overflowing");
}

class SimTest : public ::testing::Test {
 protected:
  GpuSim sim_{test_device()};
};

TEST_F(SimTest, LoadStoreRoundTrip) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.store_one(buf, 7, 3.5);
    EXPECT_DOUBLE_EQ(ctx.load_one(buf, 7), 3.5);
  });
  EXPECT_DOUBLE_EQ(buf[7], 3.5);
}

TEST_F(SimTest, CountersTrackInstructionKinds) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.store_one(buf, 0, 1.0);
    ctx.load_one(buf, 0);
    ctx.load_one(buf, 1);
    ctx.atomic_min_one(buf, 0, 0.5);
    ctx.alu(3);
  });
  const Counters& c = sim_.counters();
  EXPECT_EQ(c.inst_executed_global_stores, 1u);
  EXPECT_EQ(c.inst_executed_global_loads, 2u);
  EXPECT_EQ(c.inst_executed_atomics, 1u);
  EXPECT_EQ(c.alu_instructions, 3u);
  EXPECT_EQ(c.kernel_launches, 1u);
}

TEST_F(SimTest, HitRateReflectsLocality) {
  auto buf = sim_.alloc<double>("x", 8);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    for (int rep = 0; rep < 10; ++rep) ctx.load_one(buf, 0);
  });
  // 1 cold miss, 9 hits.
  EXPECT_NEAR(sim_.counters().global_hit_rate(), 0.9, 1e-9);
}

TEST_F(SimTest, AtomicMinSemantics) {
  auto buf = sim_.alloc<double>("x", 4);
  buf[2] = 10.0;
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    EXPECT_TRUE(ctx.atomic_min_one(buf, 2, 5.0));
    EXPECT_FALSE(ctx.atomic_min_one(buf, 2, 7.0));
    EXPECT_TRUE(ctx.atomic_min_one(buf, 2, 1.0));
  });
  EXPECT_DOUBLE_EQ(buf[2], 1.0);
}

TEST_F(SimTest, WarpAtomicConflictDetection) {
  auto buf = sim_.alloc<double>("x", 4);
  buf[0] = 100.0;
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    // 4 lanes all hammer element 0: 3 conflicts, min wins.
    const std::array<std::uint64_t, 4> idx{0, 0, 0, 0};
    const std::array<double, 4> val{9, 7, 8, 7.5};
    std::array<std::uint8_t, 4> improved{};
    ctx.atomic_min(buf, idx, std::span<const double>(val),
                   std::span<std::uint8_t>(improved));
    EXPECT_EQ(improved[0], 1);  // 9 < 100
    EXPECT_EQ(improved[1], 1);  // 7 < 9
    EXPECT_EQ(improved[2], 0);  // 8 >= 7
    EXPECT_EQ(improved[3], 0);  // 7.5 >= 7
  });
  EXPECT_DOUBLE_EQ(buf[0], 7.0);
  EXPECT_EQ(sim_.counters().atomic_conflicts, 3u);
}

TEST_F(SimTest, DivergenceLowersLaneEfficiency) {
  GpuSim full(test_device());
  GpuSim divergent(test_device());
  full.run_kernel(Schedule::kStatic, 4, 1,
                  [&](WarpCtx& ctx, std::uint64_t) { ctx.alu(10, 32); });
  divergent.run_kernel(Schedule::kStatic, 4, 1,
                       [&](WarpCtx& ctx, std::uint64_t) { ctx.alu(10, 4); });
  EXPECT_DOUBLE_EQ(full.counters().lane_efficiency(), 1.0);
  EXPECT_NEAR(divergent.counters().lane_efficiency(), 4.0 / 32, 1e-12);
}

TEST_F(SimTest, KernelTimeIncludesLaunchOverhead) {
  const auto result = sim_.run_kernel(Schedule::kStatic, 1, 1,
                                      [](WarpCtx&, std::uint64_t) {});
  EXPECT_GE(result.ms, sim_.spec().kernel_launch_us * 1e-3);
}

TEST_F(SimTest, ChildLaunchIsCheaperThanHostLaunch) {
  GpuSim a(test_device());
  GpuSim b(test_device());
  // a: one host kernel whose warp spawns a child; b: two host kernels.
  a.run_kernel(Schedule::kStatic, 1, 1,
               [](WarpCtx& ctx, std::uint64_t) { ctx.child_launch(); });
  b.run_kernel(Schedule::kStatic, 1, 1, [](WarpCtx&, std::uint64_t) {});
  b.run_kernel(Schedule::kStatic, 1, 1, [](WarpCtx&, std::uint64_t) {});
  EXPECT_LT(a.elapsed_ms(), b.elapsed_ms());
  EXPECT_EQ(a.counters().child_launches, 1u);
  EXPECT_EQ(a.counters().kernel_launches, 1u);
}

TEST_F(SimTest, StaticImbalanceCostsMoreThanDynamic) {
  // 4-SM device; 16 blocks where every 4th is 100x heavier. Static
  // round-robin pins all four heavy blocks onto SM 0 (4 x 10000 cycles,
  // beyond what its 2 schedulers can hide); dynamic spreads them out.
  auto heavy_task = [](WarpCtx& ctx, std::uint64_t t) {
    ctx.alu(t % 4 == 0 ? 10000 : 100, 32);
  };
  GpuSim stat(test_device());
  GpuSim dyn(test_device());
  const auto rs = stat.run_kernel(Schedule::kStatic, 16, 1, heavy_task);
  const auto rd = dyn.run_kernel(Schedule::kDynamic, 16, 1, heavy_task);
  EXPECT_GT(rs.ms, rd.ms);
  EXPECT_DOUBLE_EQ(rs.busy_cycles, rd.busy_cycles);  // same total work
}

TEST_F(SimTest, SingleLongWarpBoundsKernelTime) {
  // One warp with N cycles cannot finish faster than N cycles even with
  // idle SMs (no intra-warp parallelism).
  const auto result = sim_.run_kernel(
      Schedule::kDynamic, 1, 1,
      [](WarpCtx& ctx, std::uint64_t) { ctx.alu(100000, 32); });
  const double min_ms = sim_.spec().cycles_to_ms(100000);
  EXPECT_GE(result.ms, min_ms);
}

TEST_F(SimTest, BandwidthFloorKicksIn) {
  // Stream a large buffer once: time must be at least bytes / bandwidth.
  auto buf = sim_.alloc<double>("big", 1 << 18, 4);
  const std::uint64_t n = 1 << 18;
  const auto result = sim_.run_kernel(
      Schedule::kStatic, (n + 31) / 32, 8, [&](WarpCtx& ctx, std::uint64_t w) {
        std::array<std::uint64_t, 32> idx{};
        for (int i = 0; i < 32; ++i) idx[i] = w * 32 + i;
        std::array<double, 32> out{};
        ctx.load(buf, std::span<const std::uint64_t>(idx),
                 std::span<double>(out));
      });
  const double bytes = static_cast<double>(n) * 4;
  EXPECT_GE(result.ms + 1e-12, sim_.spec().bytes_to_ms(bytes));
}

TEST_F(SimTest, HitPlusMissEqualsAccesses) {
  auto buf = sim_.alloc<double>("x", 4096, 4);
  sim_.run_kernel(Schedule::kStatic, 64, 8, [&](WarpCtx& ctx, std::uint64_t w) {
    std::array<std::uint64_t, 32> idx{};
    for (int i = 0; i < 32; ++i) idx[i] = (w * 37 + i * 13) % 4096;
    std::array<double, 32> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx),
             std::span<double>(out));
  });
  const Counters& c = sim_.counters();
  EXPECT_LE(c.l1_sector_hits, c.l1_sector_accesses);
  EXPECT_GE(c.l1_sector_accesses, 64u);
}

TEST_F(SimTest, ResetAllClearsState) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.load_one(buf, 0);
  });
  EXPECT_GT(sim_.elapsed_ms(), 0.0);
  sim_.reset_all();
  EXPECT_DOUBLE_EQ(sim_.elapsed_ms(), 0.0);
  EXPECT_EQ(sim_.counters().inst_executed_global_loads, 0u);
}

TEST_F(SimTest, RunPersistentConsumesGrowingQueue) {
  std::vector<int> tasks{0, 0, 0};
  int executed = 0;
  sim_.run_persistent(tasks, [&](WarpCtx& ctx, std::size_t i) {
    ctx.alu(1);
    ++executed;
    if (i == 0) tasks.push_back(0);  // grow while running
  });
  EXPECT_EQ(executed, 4);
}

TEST(DeviceSpecs, PaperPlatformRatios) {
  const DeviceSpec v = v100();
  const DeviceSpec t = tesla_t4();
  EXPECT_EQ(v.num_sms, 80);
  EXPECT_EQ(t.num_sms, 40);
  EXPECT_NEAR(v.mem_bandwidth_gbps / t.mem_bandwidth_gbps, 900.0 / 320.0,
              1e-9);
}

TEST(KernelScopeTest, ManualLifecycleMatchesRunKernel) {
  GpuSim a(test_device());
  GpuSim b(test_device());
  a.run_kernel(Schedule::kDynamic, 3, 1,
               [](WarpCtx& ctx, std::uint64_t) { ctx.alu(10); });
  {
    KernelScope scope(b, Schedule::kDynamic);
    for (int i = 0; i < 3; ++i) {
      WarpCtx ctx = scope.make_warp();
      ctx.alu(10);
      scope.commit(ctx);
    }
    scope.finish();
  }
  EXPECT_DOUBLE_EQ(a.elapsed_ms(), b.elapsed_ms());
  EXPECT_EQ(a.counters().alu_instructions, b.counters().alu_instructions);
}

// --- run_persistent with a growing task list -------------------------------

struct PersistentObservation {
  LaunchResult launch;
  Counters counters;
  std::vector<std::uint32_t> cells;
};

// A persistent kernel whose workers push new tasks mid-launch (the BASYN
// phase-1 shape): every task atomically touches a strided cell and, while
// the frontier lasts, appends two children.
PersistentObservation run_persistent_workload() {
  GpuSim sim(test_device());
  Buffer<std::uint32_t> cells = sim.alloc<std::uint32_t>("cells", 4096);
  std::vector<std::uint64_t> tasks{0, 1, 2, 3};
  const LaunchResult launch = sim.run_persistent(tasks, [&](WarpCtx& ctx,
                                                            std::uint64_t i) {
    const std::uint64_t id = tasks[i];
    ctx.alu(1 + static_cast<std::uint32_t>(id % 7));
    std::array<std::uint64_t, 32> idx;
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      idx[lane] = (id * 97 + lane * (1 + id % 3)) % cells.size();
      cells[idx[lane]] += 1;  // host-maintained side effect
    }
    ctx.atomic_touch(cells, std::span<const std::uint64_t>(idx));
    if (tasks.size() < 300) {
      ctx.child_launch();
      tasks.push_back(id * 2 + 5);
      tasks.push_back(id * 3 + 1);
    }
  });
  return {launch, sim.counters(), cells.data()};
}

TEST(SimInvariants, PersistentGrowingTaskListDeterministic) {
  const PersistentObservation first = run_persistent_workload();
  EXPECT_GT(first.launch.tasks, 4u);  // the list actually grew
  const PersistentObservation second = run_persistent_workload();
  EXPECT_TRUE(second.counters == first.counters);
  EXPECT_EQ(second.launch.ms, first.launch.ms);
  EXPECT_EQ(second.launch.busy_cycles, first.launch.busy_cycles);
  EXPECT_EQ(second.launch.tasks, first.launch.tasks);
  EXPECT_EQ(second.cells, first.cells);
}

// --- heap-based dynamic scheduler vs. linear argmin ------------------------

// Reference model of kDynamic placement: least-loaded SM under the
// scheduling weight metric, strict-< argmin so ties break toward the lowest
// SM index — exactly what the pre-heap linear scan computed.
void check_dynamic_placement(const DeviceSpec& spec, std::uint64_t seed) {
  GpuSim sim(spec);
  Xoshiro256 rng(seed);
  constexpr int kTasks = 2000;
  std::vector<std::uint32_t> weights(kTasks);
  for (auto& w : weights) {
    w = 1 + static_cast<std::uint32_t>(rng.next_below(50));
  }

  std::vector<int> assigned;
  assigned.reserve(kTasks);
  KernelScope scope(sim, Schedule::kDynamic);
  for (int t = 0; t < kTasks; ++t) {
    WarpCtx ctx = scope.make_warp();
    assigned.push_back(ctx.sm_id());
    ctx.alu(weights[t]);  // task weight == alu instruction count
    scope.commit(ctx);
  }
  scope.finish();

  std::vector<std::uint64_t> load(static_cast<std::size_t>(spec.num_sms), 0);
  for (int t = 0; t < kTasks; ++t) {
    int argmin = 0;
    for (int sm = 1; sm < spec.num_sms; ++sm) {
      if (load[sm] < load[argmin]) argmin = sm;
    }
    ASSERT_EQ(assigned[t], argmin) << "task " << t;
    load[argmin] += weights[t];
  }
}

TEST(SimInvariants, DynamicSchedulerMatchesLinearArgminTestDevice) {
  check_dynamic_placement(test_device(), /*seed=*/7);
}

TEST(SimInvariants, DynamicSchedulerMatchesLinearArgminV100) {
  check_dynamic_placement(v100(), /*seed=*/11);
}

// --- sorted conflict scan vs. O(n^2) reference -----------------------------

TEST(SimInvariants, AtomicConflictCountMatchesQuadraticReference) {
  GpuSim sim(test_device());
  Buffer<std::uint32_t> buf = sim.alloc<std::uint32_t>("buf", 512);
  Xoshiro256 rng(13);
  std::uint64_t expected_conflicts = 0;
  sim.run_kernel(
      Schedule::kDynamic, /*num_tasks=*/200, /*warps_per_block=*/1,
      [&](WarpCtx& ctx, std::uint64_t) {
        const std::uint32_t lanes =
            1 + static_cast<std::uint32_t>(rng.next_below(32));
        std::array<std::uint64_t, 32> idx;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          // Small modulus: heavy duplication, the worst case for the scan.
          idx[i] = rng.next_below(1 + rng.next_below(40));
        }
        // Reference: conflicts = lanes - distinct element addresses.
        std::uint32_t distinct = 0;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          bool seen = false;
          for (std::uint32_t j = 0; j < i; ++j) {
            if (idx[j] == idx[i]) {
              seen = true;
              break;
            }
          }
          if (!seen) ++distinct;
        }
        expected_conflicts += lanes - distinct;
        ctx.atomic_touch(buf,
                         std::span<const std::uint64_t>(idx.data(), lanes));
      });
  EXPECT_EQ(sim.counters().atomic_conflicts, expected_conflicts);
}

}  // namespace
}  // namespace rdbs::gpusim
