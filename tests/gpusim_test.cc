#include <gtest/gtest.h>

#include "gpusim/cpu_model.h"
#include "gpusim/device.h"
#include "gpusim/kernel.h"
#include "gpusim/texture_cache.h"

namespace hd::gpusim {
namespace {

using minic::MemObject;
using minic::MemSpace;
using minic::OpClass;
using minic::Scalar;

DeviceConfig SmallDevice() {
  DeviceConfig c = DeviceConfig::TeslaK40();
  c.num_sms = 2;
  c.launch_overhead_sec = 0.0;
  return c;
}

TEST(Device, AllocAndFreeTracksUsage) {
  GpuDevice dev(SmallDevice());
  const std::int64_t total = dev.config().global_mem_bytes;
  EXPECT_EQ(dev.free_bytes(), total);
  auto a = dev.Malloc(1 << 20, "input");
  auto b = dev.Malloc(2 << 20, "kvstore");
  EXPECT_EQ(dev.used_bytes(), 3 << 20);
  dev.Free(a);
  EXPECT_EQ(dev.used_bytes(), 2 << 20);
  dev.Free(b);
  EXPECT_EQ(dev.free_bytes(), total);
}

TEST(Device, OomThrows) {
  DeviceConfig c = SmallDevice();
  c.global_mem_bytes = 1024;
  GpuDevice dev(c);
  dev.Malloc(1000, "a");
  EXPECT_THROW(dev.Malloc(100, "b"), DeviceOomError);
}

TEST(Device, DoubleFreeThrows) {
  GpuDevice dev(SmallDevice());
  auto a = dev.Malloc(16, "x");
  dev.Free(a);
  EXPECT_THROW(dev.Free(a), CheckError);
}

TEST(Device, FreeAllResets) {
  GpuDevice dev(SmallDevice());
  dev.Malloc(16, "x");
  dev.Malloc(32, "y");
  dev.FreeAll();
  EXPECT_EQ(dev.used_bytes(), 0);
}

TEST(Device, TransferTimeScalesWithBytes) {
  GpuDevice dev(SmallDevice());
  EXPECT_DOUBLE_EQ(dev.TransferSeconds(0), 0.0);
  EXPECT_GT(dev.TransferSeconds(1 << 20), 0.0);
  EXPECT_NEAR(dev.TransferSeconds(2 << 20) / dev.TransferSeconds(1 << 20), 2.0,
              1e-9);
}

TEST(TextureCache, HitsAfterFirstTouch) {
  TextureCacheSim cache(4, 128);
  int x = 0;
  EXPECT_EQ(cache.Access(&x, 0, 64), 1);   // miss
  EXPECT_EQ(cache.Access(&x, 0, 64), 0);   // hit
  EXPECT_EQ(cache.Access(&x, 64, 64), 0);  // same line, hit
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(TextureCache, SpanningAccessTouchesMultipleLines) {
  TextureCacheSim cache(8, 128);
  int x = 0;
  EXPECT_EQ(cache.Access(&x, 100, 100), 2);  // crosses a line boundary
}

TEST(TextureCache, LruEvicts) {
  TextureCacheSim cache(2, 128);
  int x = 0;
  cache.Access(&x, 0, 1);    // line 0
  cache.Access(&x, 128, 1);  // line 1
  cache.Access(&x, 256, 1);  // line 2 evicts line 0
  EXPECT_EQ(cache.Access(&x, 0, 1), 1);  // line 0 misses again
}

TEST(TextureCache, DistinctObjectsDoNotAlias) {
  TextureCacheSim cache(8, 128);
  int x = 0, y = 0;
  cache.Access(&x, 0, 1);
  EXPECT_EQ(cache.Access(&y, 0, 1), 1);  // different object: miss
}

TEST(Kernel, ComputeCostUsesOpTable) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "t");
  k.ChargeOp(0, 0, OpClass::kIntAlu, 10);
  k.ChargeOp(0, 0, OpClass::kSpecial, 2);
  auto r = k.Finish();
  EXPECT_DOUBLE_EQ(r.compute_cycles,
                   10 * c.cycles_int_alu + 2 * c.cycles_special);
}

TEST(Kernel, WarpTimeIsMaxOverLanes) {
  DeviceConfig c = SmallDevice();
  KernelSim balanced(c, 1, 32, "balanced");
  for (int t = 0; t < 32; ++t) balanced.ChargeOp(0, t, OpClass::kIntAlu, 100);
  KernelSim skewed(c, 1, 32, "skewed");
  skewed.ChargeOp(0, 0, OpClass::kIntAlu, 3200);  // all work on one lane
  // Same total work; the skewed warp is 32x slower per the SIMD model.
  EXPECT_DOUBLE_EQ(balanced.Finish().compute_cycles, 100.0);
  EXPECT_DOUBLE_EQ(skewed.Finish().compute_cycles, 3200.0);
}

TEST(Kernel, LatencyHidingDividesMemoryTime) {
  DeviceConfig c = SmallDevice();
  c.max_resident_warps = 4;
  // One warp: no hiding beyond itself.
  KernelSim one(c, 1, 32, "one");
  one.ChargeGlobalBytes(0, 0, 400, /*vectorized=*/true);
  // Four warps with the same per-warp traffic: 4x the memory cycles but 4x
  // the hiding, so the block time stays flat.
  KernelSim four(c, 1, 128, "four");
  for (int w = 0; w < 4; ++w) {
    four.ChargeGlobalBytes(0, w * 32, 400, /*vectorized=*/true);
  }
  EXPECT_NEAR(one.Finish().elapsed_sec, four.Finish().elapsed_sec, 1e-12);
}

TEST(Kernel, VectorizedAccessCheaperThanScalar) {
  DeviceConfig c = SmallDevice();
  KernelSim vec(c, 1, 32, "vec");
  vec.ChargeGlobalBytes(0, 0, 1024, /*vectorized=*/true);
  KernelSim scl(c, 1, 32, "scl");
  scl.ChargeGlobalBytes(0, 0, 1024, /*vectorized=*/false);
  auto rv = vec.Finish(), rs = scl.Finish();
  // Same lines move from DRAM either way; the win is issuing one vector
  // instruction per 4 bytes instead of one scalar access per byte.
  EXPECT_EQ(rv.transactions, rs.transactions);
  EXPECT_LT(rv.mem_cycles, rs.mem_cycles);
  EXPECT_LT(rv.elapsed_sec, rs.elapsed_sec);
}

TEST(Kernel, SequentialAccessHitsLineCache) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "seq");
  int buf;
  // 128 sequential single-byte accesses: one DRAM miss, 127 L1 hits.
  for (int i = 0; i < 128; ++i) {
    k.ChargeGlobalAccess(0, 0, &buf, i, 1, /*vectorizable=*/false);
  }
  auto r = k.Finish();
  EXPECT_EQ(r.transactions, 1);
  EXPECT_NEAR(r.mem_cycles,
              128 * c.l1_latency + (c.global_latency - c.l1_latency), 1e-9);
}

TEST(Kernel, StridedAccessMissesEveryLine) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "stride");
  int buf;
  for (int i = 0; i < 16; ++i) {
    k.ChargeGlobalAccess(0, 0, &buf, i * 1024, 1, /*vectorizable=*/false);
  }
  EXPECT_EQ(k.Finish().transactions, 16);
}

TEST(Kernel, InterleavedStreamsDoNotThrash) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "interleave");
  int a, b;
  // Alternating sequential writes to two buffers (KV slots + index array).
  for (int i = 0; i < 32; ++i) {
    k.ChargeGlobalAccess(0, 0, &a, i * 4, 4, true);
    k.ChargeGlobalAccess(0, 0, &b, i * 4, 4, true);
  }
  // One miss per buffer line, not one per access.
  EXPECT_EQ(k.Finish().transactions, 2);
}

TEST(Kernel, DistributeUnitsCoversExactly) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 2, 32, "dist");
  std::int64_t total = 0;
  int lanes_used = 0;
  k.DistributeUnits(10, [&](int, int, std::int64_t units) {
    total += units;
    ++lanes_used;
  });
  EXPECT_EQ(total, 10);
  EXPECT_EQ(lanes_used, 10);  // 64 lanes available, only 10 have work
}

TEST(Kernel, BandwidthRoofApplies) {
  DeviceConfig c = SmallDevice();
  c.dram_bytes_per_cycle = 1.0;  // throttle DRAM
  KernelSim k(c, 1, 32, "bw");
  k.ChargeGlobalBytes(0, 0, 1 << 20, /*vectorized=*/true);
  auto r = k.Finish();
  // 1 MiB at 1 B/cycle = ~1M cycles, far above the latency term / hiding.
  EXPECT_GE(r.elapsed_sec, (1 << 20) / (c.core_clock_ghz * 1e9) * 0.99);
}

TEST(Kernel, BlocksSpreadOverSms) {
  DeviceConfig c = SmallDevice();  // 2 SMs
  // Two equal blocks land on different SMs: time of one block.
  KernelSim two(c, 2, 32, "two");
  two.ChargeOp(0, 0, OpClass::kIntAlu, 1000);
  two.ChargeOp(1, 0, OpClass::kIntAlu, 1000);
  // Three blocks: one SM runs two of them.
  KernelSim three(c, 3, 32, "three");
  for (int b = 0; b < 3; ++b) three.ChargeOp(b, 0, OpClass::kIntAlu, 1000);
  EXPECT_NEAR(three.Finish().elapsed_sec / two.Finish().elapsed_sec, 2.0,
              1e-9);
}

TEST(Kernel, SharedAtomicCheaperThanGlobal) {
  DeviceConfig c = SmallDevice();
  KernelSim sh(c, 1, 32, "sh");
  for (int i = 0; i < 100; ++i) sh.ChargeSharedAtomic(0, 0);
  KernelSim gl(c, 1, 32, "gl");
  for (int i = 0; i < 100; ++i) gl.ChargeGlobalAtomic(0, 0);
  EXPECT_LT(sh.Finish().elapsed_sec, gl.Finish().elapsed_sec);
  EXPECT_EQ(sh.Finish().shared_atomics, 100);
  EXPECT_EQ(gl.Finish().global_atomics, 100);
}

TEST(Kernel, WarpDivergenceRatioCountsLockstepPadding) {
  DeviceConfig c = SmallDevice();
  KernelSim balanced(c, 1, 32, "balanced");
  for (int t = 0; t < 32; ++t) balanced.ChargeOp(0, t, OpClass::kIntAlu, 100);
  const KernelReport rb = balanced.Finish();
  EXPECT_DOUBLE_EQ(rb.WarpDivergenceRatio(), 0.0);

  KernelSim skewed(c, 1, 32, "skewed");
  skewed.ChargeOp(0, 0, OpClass::kIntAlu, 3200);
  const KernelReport rs = skewed.Finish();
  // One busy lane in a 32-wide warp wastes 31/32 of the issue slots.
  EXPECT_DOUBLE_EQ(rs.WarpDivergenceRatio(), 1.0 - 1.0 / 32.0);
  // The counters never feed the timing model: same totals as before.
  EXPECT_DOUBLE_EQ(rs.compute_cycles, 3200.0 * c.cycles_int_alu);
}

TEST(Kernel, SharedBankConflictsCountWarpSerialization) {
  DeviceConfig c = SmallDevice();
  KernelSim solo(c, 1, 32, "solo");
  for (int i = 0; i < 100; ++i) solo.ChargeSharedAtomic(0, 0);
  // A single lane never waits on a warp-mate.
  EXPECT_EQ(solo.Finish().shared_bank_conflicts, 0);

  KernelSim contended(c, 1, 32, "contended");
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 25; ++i) contended.ChargeSharedAtomic(0, t);
  }
  // 100 atomics with the busiest lane holding 25: 75 serialized.
  const KernelReport r = contended.Finish();
  EXPECT_EQ(r.shared_atomics, 100);
  EXPECT_EQ(r.shared_bank_conflicts, 75);
}

TEST(Kernel, AtomicConflictsCountDeviceWideContention) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 2, 32, "atomics");  // contention spans blocks and warps
  for (int i = 0; i < 30; ++i) k.ChargeGlobalAtomic(0, 0);
  for (int i = 0; i < 20; ++i) k.ChargeGlobalAtomic(1, 5);
  const KernelReport r = k.Finish();
  EXPECT_EQ(r.global_atomics, 50);
  EXPECT_EQ(r.atomic_conflicts, 20);  // total 50 minus the busiest lane's 30
}

TEST(Kernel, CoalescingEfficiencyTracksLineUtilization) {
  DeviceConfig c = SmallDevice();
  const std::int64_t line = c.mem_line_bytes;
  int dummy = 0;
  KernelSim seq(c, 1, 32, "seq");
  seq.ChargeGlobalAccess(0, 0, &dummy, 0, line, /*vectorizable=*/true);
  const KernelReport rs = seq.Finish();
  EXPECT_EQ(rs.bytes_requested, line);
  EXPECT_EQ(rs.bytes_moved, line);  // one fully-used transaction
  EXPECT_DOUBLE_EQ(rs.CoalescingEfficiency(), 1.0);
  EXPECT_GT(rs.mem_requests, 0);

  KernelSim strided(c, 1, 32, "strided");
  for (int i = 0; i < 8; ++i) {
    // 4 useful bytes per otherwise-untouched line, strides far apart so
    // the per-lane line cache cannot help.
    strided.ChargeGlobalAccess(0, 0, &dummy, i * 16 * line, 4,
                               /*vectorizable=*/true);
  }
  const KernelReport rt = strided.Finish();
  EXPECT_EQ(rt.bytes_requested, 32);
  EXPECT_EQ(rt.bytes_moved, 8 * line);
  EXPECT_LT(rt.CoalescingEfficiency(), rs.CoalescingEfficiency());
  EXPECT_DOUBLE_EQ(rt.TransactionsPerRequest(),
                   static_cast<double>(rt.transactions) /
                       static_cast<double>(rt.mem_requests));
}

TEST(Kernel, HooksRouteBySpace) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "route");
  MemObject global("g", Scalar::kChar, 1024, MemSpace::kDeviceGlobal);
  MemObject local("l", Scalar::kChar, 64, MemSpace::kDeviceLocal);
  MemObject tex("t", Scalar::kFloat, 256, MemSpace::kDeviceTexture);
  auto& hooks = k.Hooks(0, 0);
  hooks.OnMemAccess(global, 0, 100, false, true);
  hooks.OnMemAccess(local, 0, 10, true, false);
  hooks.OnMemAccess(tex, 0, 4, false, false);
  auto r = k.Finish();
  EXPECT_GT(r.transactions, 0);
  EXPECT_EQ(r.texture_misses, 1);  // 16 bytes in one line
}

TEST(Kernel, TextureRereadHitsCache) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "tex");
  MemObject tex("centroids", Scalar::kDouble, 64, MemSpace::kDeviceTexture);
  auto& hooks = k.Hooks(0, 0);
  for (int rep = 0; rep < 10; ++rep) {
    hooks.OnMemAccess(tex, 0, 64, false, false);
  }
  auto r = k.Finish();
  EXPECT_EQ(r.texture_misses, 4);  // 512 bytes = 4 lines, first pass only
  EXPECT_EQ(r.texture_hits, 36);
}

TEST(Kernel, TextureWriteForbidden) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "texw");
  MemObject tex("t", Scalar::kInt, 8, MemSpace::kDeviceTexture);
  EXPECT_THROW(k.Hooks(0, 0).OnMemAccess(tex, 0, 1, true, false), CheckError);
}

TEST(Kernel, HostObjectAccessIsABug) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 1, 32, "host");
  MemObject host("h", Scalar::kInt, 8, MemSpace::kHost);
  EXPECT_THROW(k.Hooks(0, 0).OnMemAccess(host, 0, 1, false, false),
               CheckError);
}

TEST(Kernel, LaneIndexValidated) {
  DeviceConfig c = SmallDevice();
  KernelSim k(c, 2, 32, "bounds");
  EXPECT_THROW(k.ChargeOp(2, 0, OpClass::kIntAlu, 1), CheckError);
  EXPECT_THROW(k.ChargeOp(0, 32, OpClass::kIntAlu, 1), CheckError);
}

TEST(CpuModel, AccumulatesSeconds) {
  CpuConfig c = CpuConfig::XeonE5_2680();
  CpuTimingHooks hooks(c);
  hooks.OnOp(OpClass::kIntAlu, 1000);
  MemObject obj("a", Scalar::kInt, 64, MemSpace::kHost);
  hooks.OnMemAccess(obj, 0, 64, false, false);
  EXPECT_GT(hooks.seconds(), 0.0);
  const double before = hooks.seconds();
  hooks.OnOp(OpClass::kSpecial, 10);
  EXPECT_GT(hooks.seconds(), before);
  hooks.Reset();
  EXPECT_DOUBLE_EQ(hooks.seconds(), 0.0);
}

TEST(CpuModel, SpecialOpsCostMoreThanAlu) {
  CpuConfig c = CpuConfig::XeonE5_2680();
  CpuTimingHooks a(c), b(c);
  a.OnOp(OpClass::kIntAlu, 100);
  b.OnOp(OpClass::kSpecial, 100);
  EXPECT_LT(a.seconds(), b.seconds());
}

}  // namespace
}  // namespace hd::gpusim
