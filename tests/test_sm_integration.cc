/**
 * @file
 * SM-level integration tests: occupancy, scheduling policies, stall
 * accounting, instruction fetch, watchdog, and multi-SM distribution.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"

using namespace si;

namespace {

/** Kernel with one long load-to-use stall per thread. */
Program
stallKernel(unsigned num_regs = 32)
{
    KernelBuilder kb("stall");
    kb.s2r(0, SReg::TID);
    kb.shli(1, 0, 8);
    kb.iaddi(1, 1, 0x100000);
    kb.ldg(2, 1, 0).wr(0);
    kb.fadd(3, 2, 2).req(0);
    kb.exit();
    return kb.build(num_regs);
}

} // namespace

TEST(SmIntegration, OccupancyLimitedByRegisters)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    Gpu gpu(cfg, mem);
    // 160 regs/thread -> 16384 / (32*160) = 3 warps per PB.
    const Program p = stallKernel(160);
    gpu.run(p, {32, 4});
    EXPECT_EQ(gpu.sm(0).maxResidentPerPb(), 3u);
}

TEST(SmIntegration, OccupancyCappedByWarpSlots)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.warpSlotsPerPb = 4;
    Memory mem;
    Gpu gpu(cfg, mem);
    const Program p = stallKernel(32); // register file would allow 16
    gpu.run(p, {32, 4});
    EXPECT_EQ(gpu.sm(0).maxResidentPerPb(), 4u);
}

TEST(SmIntegration, AllWarpsRetireAcrossWaves)
{
    GpuConfig cfg;
    cfg.numSms = 2;
    Memory mem;
    const Program p = stallKernel(64);
    // Far more warps than slots: several admission waves.
    const GpuResult r = simulate(cfg, mem, p, {96, 4});
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.total.warpsRetired, 96u);
}

TEST(SmIntegration, GtoAndLrrBothComplete)
{
    Memory mem;
    const Program p = stallKernel(64);
    for (SchedPolicy pol : {SchedPolicy::GTO, SchedPolicy::LRR}) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.sched = pol;
        Memory m = mem;
        const GpuResult r = simulate(cfg, m, p, {16, 4});
        EXPECT_FALSE(r.timedOut);
        EXPECT_EQ(r.total.warpsRetired, 16u);
    }
}

TEST(SmIntegration, ExposedStallAccountingBounds)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, stallKernel(), {4, 4});
    EXPECT_GT(r.total.exposedLoadStallCycles, 0u);
    EXPECT_LE(r.total.exposedLoadStallCycles, r.cycles);
    EXPECT_LE(r.total.exposedLoadStallCyclesDivergent,
              double(r.total.exposedLoadStallCycles));
    EXPECT_GE(r.exposedStallFraction(), 0.0);
    EXPECT_LE(r.exposedStallFraction(), 1.0);
}

TEST(SmIntegration, ConvergentStallNotAttributedDivergent)
{
    // stallKernel never diverges: divergent attribution must be zero.
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, stallKernel(), {4, 4});
    EXPECT_EQ(r.total.exposedLoadStallCyclesDivergent, 0.0);
}

TEST(SmIntegration, MissLatencyChangesRuntime)
{
    const Program p = stallKernel();
    GpuConfig slow;
    slow.numSms = 1;
    slow.lat.l1Miss = 900;
    GpuConfig fast = slow;
    fast.lat.l1Miss = 300;
    Memory m1, m2;
    const Cycle c_slow = simulate(slow, m1, p, {4, 4}).cycles;
    const Cycle c_fast = simulate(fast, m2, p, {4, 4}).cycles;
    EXPECT_GT(c_slow, c_fast + 500);
}

TEST(SmIntegration, L1HitsAreCheaperThanMisses)
{
    // All threads load the same line: one miss, then hits.
    const char *src = R"(
MOV R1, 0x100000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
LDG R4, [R1+0] &wr=sb1
FADD R5, R4, R4 &req=sb1
EXIT
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {1, 1});
    EXPECT_EQ(r.total.l1dMisses, 1u);
    EXPECT_GT(r.total.l1dHits, 0u);
    // Runtime: one miss (600) + one hit (32) + overheads, well under
    // two misses.
    EXPECT_LT(r.cycles, 2 * 600u);
}

TEST(SmIntegration, InstructionFetchStallsWithTinyL0i)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.l0i.sizeBytes = 512; // 4 lines: any loop thrashes
    cfg.l1i.sizeBytes = 2048;
    Memory mem;
    // A loop longer than the L0I.
    KernelBuilder kb("bigloop");
    Label top = kb.newLabel("top");
    kb.movi(1, 0);
    kb.bind(top);
    for (int i = 0; i < 64; ++i)
        kb.iaddi(2, 2, 1);
    kb.iaddi(1, 1, 1);
    kb.isetpi(0, CmpOp::LT, 1, 4);
    kb.bra(top).pred(0);
    kb.exit();
    const GpuResult r = simulate(cfg, mem, kb.build(16), {1, 1});
    EXPECT_GT(r.total.warpFetchStallCycles(), 0u);
    EXPECT_GT(r.total.l0iMisses, 30u); // ~9 lines x 4 iterations
}

TEST(SmIntegration, WatchdogCatchesRunaway)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.maxCycles = 2000;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(R"(
top:
BRA top
EXIT
)"), {1, 1});
    EXPECT_TRUE(r.timedOut);
}

TEST(SmIntegration, MultiSmSplitsWarps)
{
    GpuConfig cfg;
    cfg.numSms = 2;
    Memory mem;
    Gpu gpu(cfg, mem);
    const Program p = stallKernel();
    const GpuResult r = gpu.run(p, {10, 2});
    EXPECT_EQ(gpu.sm(0).numWarps(), 5u);
    EXPECT_EQ(gpu.sm(1).numWarps(), 5u);
    EXPECT_EQ(r.perSm.size(), 2u);
    EXPECT_EQ(r.total.warpsRetired, 10u);
}

TEST(SmIntegration, PartialGuardLdgDoesNotTouchMemoryForOffLanes)
{
    // Only lane 0 loads; others skip. One L1D access expected.
    const char *src = R"(
S2R R0, LANEID
ISETP.EQ P0, R0, 0
MOV R1, 0x200000
@P0 LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
EXIT
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {1, 1});
    EXPECT_EQ(r.total.l1dMisses + r.total.l1dHits, 1u);
    EXPECT_FALSE(r.timedOut);
}

TEST(SmIntegrationDeath, BarrierDeadlockFailsTheRun)
{
    // Two subwarps block on *different* barriers that can never
    // complete: B0 waits for lanes that wait on B1 and vice versa.
    const char *src = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, j0
BSSY B1, j1
@P0 BRA waitB1
BSYNC B0
j0:
EXIT
waitB1:
BSYNC B1
j1:
EXIT
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.maxCycles = 100000;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {1, 1});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::BarrierDeadlock);
    EXPECT_THAT(r.status.message, ::testing::HasSubstr("deadlock"));
    // The diagnostic dumps the stuck warp: both barriers and their
    // cross-blocked participants must be visible.
    EXPECT_THAT(r.status.diagnostic, ::testing::HasSubstr("BLOCKED"));
    EXPECT_THAT(r.status.diagnostic, ::testing::HasSubstr("barrier B0"));
    EXPECT_THAT(r.status.diagnostic, ::testing::HasSubstr("barrier B1"));
}
