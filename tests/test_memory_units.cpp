#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fpga/memory_bank.hpp"
#include "fpga/prefetch.hpp"
#include "fpga/sort_unit.hpp"

namespace sd {
namespace {

TEST(MemoryBank, LatencyPlusStreamingModel) {
  MemoryBank hbm("HBM", 1 << 20, 64, 8);
  // 64 bytes = 8 words, streamed 8/cycle -> 64 + 1 cycles.
  EXPECT_EQ(hbm.read(64), 65u);
  // 1 byte still needs one beat.
  EXPECT_EQ(hbm.read(1), 65u);
  // 128 words at 8/cycle -> 64 + 16.
  EXPECT_EQ(hbm.read(1024), 80u);
}

TEST(MemoryBank, SingleCycleBramModel) {
  MemoryBank bram("BRAM", 1 << 16, 1, 1);
  EXPECT_EQ(bram.read(8), 2u);  // 1 latency + 1 word
  EXPECT_EQ(bram.write(16), 3u);
}

TEST(MemoryBank, CountersTrackTraffic) {
  MemoryBank bank("b", 1024, 1, 1);
  bank.read(100);
  bank.write(50);
  bank.read(10);
  EXPECT_EQ(bank.reads(), 2u);
  EXPECT_EQ(bank.writes(), 1u);
  EXPECT_EQ(bank.bytes_read(), 110u);
  EXPECT_EQ(bank.bytes_written(), 50u);
  bank.reset_counters();
  EXPECT_EQ(bank.reads(), 0u);
  EXPECT_EQ(bank.bytes_read(), 0u);
}

TEST(MemoryBank, ResidencyHighWaterAndOverflow) {
  MemoryBank bank("b", 100, 1, 1);
  bank.reserve_bytes(60);
  bank.reserve_bytes(60);
  EXPECT_EQ(bank.bytes_in_use(), 120u);
  EXPECT_EQ(bank.peak_bytes(), 120u);
  EXPECT_TRUE(bank.overflowed());
  bank.release_bytes(80);
  EXPECT_EQ(bank.bytes_in_use(), 40u);
  EXPECT_EQ(bank.peak_bytes(), 120u);  // peak sticks
  bank.release_bytes(1000);            // saturates at zero
  EXPECT_EQ(bank.bytes_in_use(), 0u);
}

TEST(Prefetch, DisabledExposesFullLatency) {
  MemoryBank hbm("HBM", 1 << 20, 64, 8);
  PrefetchUnit unit(/*enabled=*/false);
  const auto exposed = unit.stage(hbm, 64, /*overlap_budget=*/1000);
  EXPECT_EQ(exposed, 65u);
  EXPECT_EQ(unit.hidden_cycles(), 0u);
  EXPECT_EQ(unit.exposed_cycles(), 65u);
}

TEST(Prefetch, EnabledHidesBehindComputeBudget) {
  MemoryBank hbm("HBM", 1 << 20, 64, 8);
  PrefetchUnit unit(/*enabled=*/true);
  // Fetch costs 65 cycles; 100 cycles of compute fully hide it.
  EXPECT_EQ(unit.stage(hbm, 64, 100), 0u);
  EXPECT_EQ(unit.hidden_cycles(), 65u);
  // Only 40 cycles of compute: 25 exposed.
  EXPECT_EQ(unit.stage(hbm, 64, 40), 25u);
  EXPECT_EQ(unit.exposed_cycles(), 25u);
  EXPECT_EQ(unit.fetches(), 2u);
}

TEST(Prefetch, ZeroBudgetExposesEverything) {
  MemoryBank hbm("HBM", 1 << 20, 64, 8);
  PrefetchUnit unit(true);
  EXPECT_EQ(unit.stage(hbm, 64, 0), 65u);
}

TEST(SortUnit, BitonicStageCount) {
  EXPECT_EQ(SortUnit::stages(1), 0u);
  EXPECT_EQ(SortUnit::stages(2), 1u);
  EXPECT_EQ(SortUnit::stages(4), 3u);
  EXPECT_EQ(SortUnit::stages(16), 10u);
  EXPECT_EQ(SortUnit::stages(64), 21u);
  // Non-powers round up.
  EXPECT_EQ(SortUnit::stages(5), SortUnit::stages(8));
}

TEST(SortUnit, CyclesAndCounters) {
  SortUnit unit(2);
  // 16 elements: 10 stages x 2 + 16 streaming.
  EXPECT_EQ(unit.sort(16), 36u);
  EXPECT_EQ(unit.total_cycles(), 36u);
  EXPECT_EQ(unit.batches(), 1u);
  unit.sort(4);
  EXPECT_EQ(unit.batches(), 2u);
  unit.reset_counters();
  EXPECT_EQ(unit.total_cycles(), 0u);
}

TEST(SortUnit, CostGrowsPolylogarithmically) {
  // The paper's claim that the sort is dominated by the GEMM: cost grows as
  // P log^2 P, far below P^2.
  SortUnit unit(1);
  const auto c4 = unit.sort(4);
  const auto c64 = unit.sort(64);
  EXPECT_LT(c64, 16 * c4);  // quadratic would be 256x
}

}  // namespace
}  // namespace sd
