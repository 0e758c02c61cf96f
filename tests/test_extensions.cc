/**
 * @file
 * Tests for the extension features: the MSHR (bounded-MLP) model and
 * the Dynamic Warp Subdivision comparator mode.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "isa/builder.hh"
#include "rt/apps.hh"
#include "rt/compute.hh"
#include "rt/microbench.hh"

using namespace si;

namespace {

/** Kernel: every thread issues 4 independent missing loads, then uses. */
Program
mlpKernel()
{
    KernelBuilder kb("mlp");
    kb.s2r(0, SReg::TID);
    kb.shli(1, 0, 10);
    kb.iaddi(1, 1, 0x100000);
    for (int j = 0; j < 4; ++j)
        kb.ldg(RegIndex(4 + j), 1, j * 256).wr(0);
    kb.fadd(8, 4, 5).req(0);
    kb.exit();
    return kb.build(32);
}

} // namespace

TEST(Mshr, UnlimitedByDefaultMatchesLegacyTiming)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory m1;
    const Cycle unlimited = simulate(cfg, m1, mlpKernel(), {1, 1}).cycles;

    GpuConfig wide = cfg;
    wide.maxOutstandingMisses = 64; // more than the kernel ever needs
    Memory m2;
    EXPECT_EQ(simulate(wide, m2, mlpKernel(), {1, 1}).cycles, unlimited);
}

TEST(Mshr, TightBudgetSerializesMisses)
{
    // 4 concurrent line misses with only 1 MSHR: latency roughly
    // quadruples. (Each lane set hits distinct lines per warp.)
    GpuConfig one;
    one.numSms = 1;
    one.maxOutstandingMisses = 1;
    Memory m1;
    const Cycle serialized =
        simulate(one, m1, mlpKernel(), {1, 1}).cycles;

    GpuConfig four = one;
    four.maxOutstandingMisses = 4;
    Memory m2;
    const Cycle parallel = simulate(four, m2, mlpKernel(), {1, 1}).cycles;

    // One warp -> one writeback event per LDG (4 events). With one
    // MSHR they complete 600 apart; with four they overlap.
    EXPECT_GT(serialized, parallel + 3 * 500);
}

TEST(Mshr, FunctionalResultsUnaffected)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 8;
    mc.iterations = 2;
    mc.numWarps = 2;
    const Workload wl = buildMicrobench(mc);

    auto out = [&](unsigned mshrs) {
        GpuConfig cfg = withSi(baselineConfig(), bestSiConfigPoint());
        cfg.maxOutstandingMisses = mshrs;
        Memory mem = *wl.memory;
        GpuConfig c = cfg;
        c.rtc = wl.rtc;
        simulate(c, mem, wl.program, wl.launch, wl.bvh());
        std::vector<std::uint32_t> o;
        for (unsigned t = 0; t < 2 * warpSize; ++t)
            o.push_back(mem.read(layout::outBufBase + t * 4));
        return o;
    };
    EXPECT_EQ(out(0), out(2));
    EXPECT_EQ(out(0), out(16));
}

TEST(Dws, ConfigHelperSetsApproximationKnobs)
{
    const GpuConfig cfg = withDws(baselineConfig());
    EXPECT_TRUE(cfg.siEnabled);
    EXPECT_TRUE(cfg.dwsEnabled);
    EXPECT_FALSE(cfg.yieldEnabled);
    EXPECT_EQ(cfg.switchLatency, 0u);
    EXPECT_EQ(cfg.trigger, SelectTrigger::AnyStalled);
}

TEST(Dws, StarvedWithoutFreeSlots)
{
    // One warp per PB slot (slots saturated by launch): DWS cannot
    // split, so it degenerates to the baseline.
    MicrobenchConfig mc;
    mc.subwarpSize = 8;
    mc.numWarps = 8; // 1 per PB
    const Workload wl = buildMicrobench(mc);

    GpuConfig base = baselineConfig();
    base.warpSlotsPerPb = 1; // the single resident warp fills the PB
    const GpuResult rb = runWorkload(wl, base);
    const GpuResult rd = runWorkload(wl, withDws(base));
    EXPECT_EQ(rd.total.subwarpStalls, 0u);
    // withDws() zeroes the subwarp switch latency, which also applies
    // to baseline reconvergence selects; compare against a baseline
    // with the same switch cost for exact equality.
    GpuConfig base0 = base;
    base0.switchLatency = 0;
    EXPECT_EQ(rd.cycles, runWorkload(wl, base0).cycles);

    // SI with its TST does not need the free slot.
    const GpuResult rs =
        runWorkload(wl, withSi(base, bestSiConfigPoint()));
    EXPECT_GT(rs.total.subwarpStalls, 0u);
    EXPECT_LT(rs.cycles, rb.cycles);
}

TEST(Dws, SplitsWhenSlotsAreFree)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 8;
    mc.numWarps = 8; // 1 resident per PB, 7 slots spare
    const Workload wl = buildMicrobench(mc);

    GpuConfig base = baselineConfig(); // 8 slots per PB
    const GpuResult rb = runWorkload(wl, base);
    const GpuResult rd = runWorkload(wl, withDws(base));
    EXPECT_GT(rd.total.subwarpStalls, 0u);
    EXPECT_LT(rd.cycles, rb.cycles);
}

TEST(Dws, FunctionalResultsUnaffected)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 4;
    mc.iterations = 2;
    mc.numWarps = 4;
    const Workload wl = buildMicrobench(mc);

    auto out = [&](const GpuConfig &cfg) {
        GpuConfig c = cfg;
        c.rtc = wl.rtc;
        Memory mem = *wl.memory;
        simulate(c, mem, wl.program, wl.launch, wl.bvh());
        std::vector<std::uint32_t> o;
        for (unsigned t = 0; t < 4 * warpSize; ++t)
            o.push_back(mem.read(layout::outBufBase + t * 4));
        return o;
    };
    EXPECT_EQ(out(baselineConfig()), out(withDws(baselineConfig())));
}

TEST(CoScheduling, TwoKernelsShareTheMachineAndBothFinish)
{
    const Workload a = buildComputeKernel(ComputeKernel::Saxpy, 8);
    const Workload b = buildComputeKernel(ComputeKernel::Reduction, 8);
    GpuConfig cfg = baselineConfig();
    Memory mem = *a.memory;
    Gpu gpu(cfg, mem);
    const GpuResult r =
        gpu.runMulti({{&a.program, a.launch}, {&b.program, b.launch}});
    EXPECT_TRUE(r.ok()) << r.status.summary();
    EXPECT_EQ(r.total.warpsRetired, 16u);
}

TEST(CoScheduling, LogicalIdsGivePerKernelThreadSpaces)
{
    // Two copies of the same kernel co-scheduled: each writes
    // out[tid]; with per-kernel thread ids they collide on the same
    // addresses and the total footprint equals one kernel's.
    const Workload a = buildComputeKernel(ComputeKernel::Saxpy, 4);
    GpuConfig cfg = baselineConfig();
    Memory mem = *a.memory;
    Gpu gpu(cfg, mem);
    gpu.runMulti({{&a.program, a.launch}, {&a.program, a.launch}});
    // out[0..127] written; out[128..255] untouched (same id space).
    unsigned high = 0;
    for (unsigned t = 4 * warpSize; t < 8 * warpSize; ++t)
        high += mem.read(layout::outBufBase + t * 4) != 0;
    EXPECT_EQ(high, 0u);
}

TEST(CoScheduling, RegisterFileAccountingMixesKernels)
{
    // A fat kernel (160 regs: 3/PB alone) co-scheduled with a lean one
    // (24 regs): the lean warps fill the register-file gaps, so more
    // than 3 warps become resident per PB.
    KernelBuilder fat_kb("fat");
    fat_kb.s2r(0, SReg::TID);
    fat_kb.shli(1, 0, 8);
    fat_kb.iaddi(1, 1, 0x100000);
    fat_kb.ldg(2, 1, 0).wr(0);
    fat_kb.fadd(3, 2, 2).req(0);
    fat_kb.exit();
    const Program fat = fat_kb.build(160);
    const Workload lean = buildComputeKernel(ComputeKernel::Saxpy, 16);

    GpuConfig cfg = baselineConfig();
    cfg.numSms = 1;
    Memory mem = *lean.memory;
    Gpu gpu(cfg, mem);
    const GpuResult r = gpu.runMulti(
        {{&fat, LaunchParams{16, 4}}, {&lean.program, lean.launch}});
    EXPECT_TRUE(r.ok()) << r.status.summary();
    EXPECT_EQ(r.total.warpsRetired, 32u);
    // 3 fat (3*5120=15360) + 1 lean (768) = 16128 <= 16384 fits; a
    // 4th fat (20480) would not. The exact mix depends on admission
    // order; the invariant is that everything completed.
}

TEST(CoScheduling, SiStillWorksOnTheRtKernelOfAMixedLaunch)
{
    const Workload rt = buildApp(AppId::BFV1, 16);
    const Workload comp =
        buildComputeKernel(ComputeKernel::MatMulTile, 16);

    auto run = [&](const GpuConfig &base) {
        GpuConfig cfg = base;
        cfg.rtc = rt.rtc;
        Memory mem = *rt.memory;
        Memory other = *comp.memory;
        for (unsigned i = 0; i < 16 * warpSize; ++i) {
            const Addr a = layout::dataBufBase + Addr(i) * 4;
            mem.write(a, other.read(a));
        }
        mem.writeConst(std::uint32_t(layout::cDataBuf),
                       std::uint32_t(layout::dataBufBase));
        Gpu gpu(cfg, mem, rt.bvh());
        return gpu.runMulti(
            {{&rt.program, rt.launch}, {&comp.program, comp.launch}});
    };

    const GpuResult rb = run(baselineConfig());
    const GpuResult rs =
        run(withSi(baselineConfig(), bestSiConfigPoint()));
    EXPECT_GT(rs.total.subwarpStalls, 0u);
    EXPECT_LE(rs.cycles, rb.cycles);
}
