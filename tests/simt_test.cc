// SIMT simulator tests: coalescing model, warp primitives, divergence
// accounting, makespan scheduling.
#include <gtest/gtest.h>

#include "simt/cost_model.h"
#include "simt/machine.h"
#include "simt/warp.h"

namespace gcgt::simt {
namespace {

/// Transactions one warp-wide MemAccess charges on a fresh 128B-line warp.
uint64_t CoalescedTxns(std::span<const uint64_t> addrs, uint32_t width) {
  WarpContext ctx(kWarpSize, 128);
  ctx.MemAccess(addrs, width);
  return ctx.stats().mem_txns;
}

TEST(Coalescing, ConsecutiveAddressesShareLines) {
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(i * 4);  // 128 bytes total
  EXPECT_EQ(CoalescedTxns(addrs, 4), 1u);
}

TEST(Coalescing, ScatteredAddressesUseOneLineEach) {
  std::vector<uint64_t> addrs;
  for (int i = 0; i < 32; ++i) addrs.push_back(i * 4096);
  EXPECT_EQ(CoalescedTxns(addrs, 4), 32u);
}

TEST(Coalescing, StraddlingAccessTouchesTwoLines) {
  std::vector<uint64_t> addrs = {126};  // 4-byte access at line boundary
  EXPECT_EQ(CoalescedTxns(addrs, 4), 2u);
}

TEST(Coalescing, DuplicateAddressesCountOnce) {
  std::vector<uint64_t> addrs(32, 512);
  EXPECT_EQ(CoalescedTxns(addrs, 4), 1u);
}

TEST(Coalescing, EmptyAndZeroWidth) {
  EXPECT_EQ(CoalescedTxns({}, 4), 0u);
  std::vector<uint64_t> addrs = {0};
  EXPECT_EQ(CoalescedTxns(addrs, 0), 0u);
}

TEST(WarpContext, StepAccountsIdleLanes) {
  WarpContext ctx(32);
  ctx.Step(8);
  EXPECT_EQ(ctx.stats().steps, 1u);
  EXPECT_EQ(ctx.stats().active_lane_steps, 8u);
  EXPECT_EQ(ctx.stats().idle_lane_steps, 24u);
  EXPECT_DOUBLE_EQ(ctx.stats().LaneEfficiency(), 0.25);
}

TEST(WarpContext, MemAccessRangeCountsDistinctLines) {
  WarpContext ctx(32, 128);
  ctx.MemAccessRange(0, 256);
  EXPECT_EQ(ctx.stats().mem_txns, 2u);
  // Lines 0 and 1 were already fetched by this warp: L1 reuse, free.
  ctx.MemAccessRange(100, 56);
  EXPECT_EQ(ctx.stats().mem_txns, 2u);
  ctx.MemAccessRange(512, 4);  // a new line
  EXPECT_EQ(ctx.stats().mem_txns, 3u);
  ctx.MemAccessRange(0, 0);  // empty: free
  EXPECT_EQ(ctx.stats().mem_txns, 3u);
}

TEST(WarpContext, TakeStatsResetsLineCache) {
  WarpContext ctx(32, 128);
  ctx.MemAccessRange(0, 4);
  EXPECT_EQ(ctx.stats().mem_txns, 1u);
  ctx.TakeStats();
  ctx.MemAccessRange(0, 4);  // new warp: the line must be re-fetched
  EXPECT_EQ(ctx.stats().mem_txns, 1u);
}

TEST(WarpContext, DecodeStepsTrackedAndPriced) {
  WarpContext ctx(32, 128);
  ctx.Step(32);
  ctx.DecodeStep(16);
  EXPECT_EQ(ctx.stats().steps, 2u);
  EXPECT_EQ(ctx.stats().decode_steps, 1u);
  CostModel m;
  m.cycles_per_step = 1;
  m.cycles_per_decode_step = 20;
  m.cycles_per_mem_txn = 0;
  m.cycles_per_shared_op = 0;
  EXPECT_DOUBLE_EQ(ctx.stats().Cycles(m), 1 + 20);
}

TEST(WarpContext, MemAccessRangesMergesAcrossLanes) {
  WarpContext ctx(4, 128);
  std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 3}, {4, 7}, {130, 140}, {135, 150}};
  ctx.MemAccessRanges(ranges);
  EXPECT_EQ(ctx.stats().mem_txns, 2u);  // line 0 and line 1
}

TEST(WarpContext, ExclusiveScanMatchesPaperSemantics) {
  WarpContext ctx(8);
  std::vector<int> vals = {4, 0, 3, 0, 0, 7, 0, 0};
  std::vector<int> scatter(8);
  int total = ctx.ExclusiveScan<int>(vals, scatter);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(scatter, (std::vector<int>{0, 4, 4, 7, 7, 7, 14, 14}));
  EXPECT_EQ(ctx.stats().shared_ops, 1u);
}

TEST(WarpContext, AnyAllShfl) {
  WarpContext ctx(4);
  std::vector<uint8_t> pred = {0, 0, 1, 0};
  EXPECT_TRUE(ctx.Any(pred));
  EXPECT_FALSE(ctx.All(pred));
  std::vector<uint8_t> all_set = {1, 1, 1, 1};
  EXPECT_TRUE(ctx.All(all_set));
  std::vector<int> vals = {10, 20, 30, 40};
  EXPECT_EQ(ctx.Shfl<int>(vals, 2), 30);
  EXPECT_EQ(ctx.stats().shared_ops, 4u);
}

TEST(CostModel, CyclesCombineCharges) {
  CostModel m;
  m.cycles_per_step = 1;
  m.cycles_per_mem_txn = 10;
  m.cycles_per_shared_op = 2;
  m.cycles_per_atomic = 5;
  WarpStats s;
  s.steps = 3;
  s.mem_txns = 2;
  s.shared_ops = 4;
  s.atomics = 1;
  EXPECT_DOUBLE_EQ(s.Cycles(m), 3 + 20 + 8 + 5);
}

TEST(Makespan, PerfectlyParallelWork) {
  std::vector<double> warps(64, 10.0);
  EXPECT_DOUBLE_EQ(Makespan(warps, 64), 10.0);
  EXPECT_DOUBLE_EQ(Makespan(warps, 32), 20.0);
  EXPECT_DOUBLE_EQ(Makespan(warps, 1), 640.0);
}

TEST(Makespan, StragglersDominate) {
  std::vector<double> warps(31, 1.0);
  warps.push_back(100.0);  // one heavy warp
  EXPECT_GE(Makespan(warps, 32), 100.0);
  EXPECT_LE(Makespan(warps, 32), 101.0);
}

TEST(Makespan, EmptyIsZero) { EXPECT_DOUBLE_EQ(Makespan({}, 8), 0.0); }

TEST(KernelTimeline, AccumulatesLaunchOverheadAndAggregates) {
  CostModel m;
  m.kernel_launch_cycles = 1000;
  m.cycles_per_step = 1;
  m.cycles_per_mem_txn = 0;
  KernelTimeline tl(m);
  WarpStats w;
  w.steps = 50;
  tl.AddKernel({w, w});
  tl.AddKernel({w});
  EXPECT_EQ(tl.num_kernels(), 2);
  EXPECT_EQ(tl.aggregate().steps, 150u);
  // Two launches + two makespans of 50 each (plenty of slots).
  EXPECT_DOUBLE_EQ(tl.total_cycles(), 2 * 1000 + 50 + 50);
  EXPECT_GT(tl.TotalMs(), 0.0);
}

TEST(WarpStats, AdditionOperator) {
  WarpStats a, b;
  a.steps = 1;
  a.mem_txns = 2;
  b.steps = 3;
  b.atomics = 4;
  a += b;
  EXPECT_EQ(a.steps, 4u);
  EXPECT_EQ(a.mem_txns, 2u);
  EXPECT_EQ(a.atomics, 4u);
}

}  // namespace
}  // namespace gcgt::simt
