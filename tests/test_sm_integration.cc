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
#include "trace/sinks.hh"

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

/**
 * Scheduler-pick kernel for one PB of four warps. Warp 1 parks on an
 * L1-miss LDG whose &req consumer follows at once; the others spin
 * through @p iters loop iterations of ALU work whose dependent
 * instructions sit more than the ALU latency apart, so once the loop
 * is in L0I a spinning warp is issuable every cycle. With
 * @p early_exit warp 2 exits at once, retiring from the middle of the
 * PB's resident list.
 */
Program
pickKernel(unsigned iters, bool early_exit)
{
    return assembleOrDie(std::string(R"(
.kernel pick
.regs 16
    S2R R0, WARPID
    MOV R7, 0
    ISETP.EQ P2, R0, 2
    ISETP.NE P0, R0, 1
)") + (early_exit ? "    @P2 EXIT\n" : "    NOP\n") +
                         R"(
    @P0 BRA spin
    SHL R1, R0, 12
    IADD R1, R1, 0x100000
    LDG R2, [R1+0] &wr=sb0
    FADD R3, R2, R2 &req=sb0
    EXIT
spin:
    IADD R7, R7, 1
    IADD R8, R0, 1
    IADD R9, R0, 2
    IADD R10, R0, 3
    IADD R11, R0, 4
    ISETP.LT P1, R7, )" + std::to_string(iters) + R"(
    IADD R12, R0, 5
    IADD R13, R0, 6
    IADD R14, R0, 7
    IADD R15, R0, 8
    @P1 BRA spin
    EXIT
)");
}

constexpr std::uint32_t pickLdgPc = 8;   ///< warp 1's LDG
constexpr std::uint32_t pickBackPc = 21; ///< loop back-edge BRA

/** Issue and writeback events of one single-PB pickKernel run. */
std::vector<TraceEvent>
runPick(SchedPolicy policy, unsigned iters, bool early_exit,
        Cycle miss_latency)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.pbsPerSm = 1;
    cfg.warpSlotsPerPb = 4;
    cfg.sched = policy;
    cfg.lat.l1Miss = miss_latency;
    cfg.lat.l0iMiss = 4; // short fetch stalls: the warps overlap early
    cfg.lat.l1iMiss = 8;
    VectorSink sink;
    cfg.traceSink = &sink;
    Memory mem;
    const GpuResult r =
        simulate(cfg, mem, pickKernel(iters, early_exit), {4, 4});
    EXPECT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.total.warpsRetired, 4u);
    std::vector<TraceEvent> out;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.kind == TraceEventKind::Issue ||
            ev.kind == TraceEventKind::Writeback)
            out.push_back(ev);
    }
    return out;
}

/** Warp 1's writeback cycle; checks it issues nothing while parked. */
Cycle
parkedWindow(const std::vector<TraceEvent> &events)
{
    Cycle ldg = invalidCycle, wb = invalidCycle;
    for (const TraceEvent &ev : events) {
        if (ev.warpId != 1)
            continue;
        if (ev.kind == TraceEventKind::Issue && ev.pc == pickLdgPc) {
            ldg = ev.cycle;
        } else if (ev.kind == TraceEventKind::Writeback) {
            wb = ev.cycle;
        } else if (ev.kind == TraceEventKind::Issue && ldg != invalidCycle) {
            EXPECT_NE(wb, invalidCycle)
                << "warp 1 issued pc " << ev.pc
                << " with its scoreboard outstanding";
        }
    }
    EXPECT_NE(ldg, invalidCycle);
    EXPECT_GT(wb, ldg);
    return wb;
}

/** Run-length string of the issuing warps ("2x3 0" = 2, 2, 2, 0). */
std::string
issueOrder(const std::vector<TraceEvent> &events)
{
    std::vector<unsigned> warps;
    for (const TraceEvent &ev : events) {
        if (ev.kind == TraceEventKind::Issue)
            warps.push_back(ev.warpId);
    }
    std::string out;
    for (std::size_t i = 0, j = 0; i < warps.size(); i = j) {
        while (j < warps.size() && warps[j] == warps[i])
            ++j;
        out += (i ? " " : "") + std::to_string(warps[i]);
        if (j - i > 1)
            out += "x" + std::to_string(j - i);
    }
    return out;
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
    EXPECT_TRUE(r.ok()) << r.status.summary();
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
        EXPECT_TRUE(r.ok()) << r.status.summary();
        EXPECT_EQ(r.total.warpsRetired, 16u);
    }
}

TEST(SmIntegration, LrrRotatesPastAParkedWarp)
{
    const std::vector<TraceEvent> events =
        runPick(SchedPolicy::LRR, 24, false, 600);
    const Cycle wb = parkedWindow(events);

    // Once every spinning warp has looped (the loop is in L0I) and
    // until warp 1 wakes, the slot rotates 0 -> 2 -> 3 -> 0 in
    // resident order, one issue per cycle, skipping the parked warp.
    std::vector<unsigned> looped(4, 0);
    const TraceEvent *prev = nullptr;
    unsigned checked = 0;
    for (const TraceEvent &ev : events) {
        if (ev.kind != TraceEventKind::Issue || ev.cycle >= wb)
            continue;
        if (prev && looped[0] && looped[2] && looped[3]) {
            EXPECT_EQ(ev.cycle, prev->cycle + 1);
            EXPECT_EQ(ev.warpId, prev->warpId == 0 ? 2u
                                 : prev->warpId == 2 ? 3u
                                                     : 0u)
                << "cycle " << ev.cycle;
            ++checked;
        }
        if (ev.pc == pickBackPc)
            ++looped[ev.warpId];
        prev = &ev;
    }
    EXPECT_GT(checked, 300u);
}

TEST(SmIntegration, GtoRidesItsCurrentWarp)
{
    const std::vector<TraceEvent> events =
        runPick(SchedPolicy::GTO, 24, false, 600);
    parkedWindow(events);

    // After warp 0's first pass warms L0I, the greedy scheduler keeps
    // issuing the warp it rides until that warp exits or parks on its
    // load; it never switches to another issuable warp, the woken
    // warp 1 included.
    bool warm = false;
    const TraceEvent *prev = nullptr;
    unsigned switches = 0;
    for (const TraceEvent &ev : events) {
        if (ev.kind != TraceEventKind::Issue)
            continue;
        if (warm && prev && ev.warpId != prev->warpId) {
            EXPECT_TRUE(prev->arg == std::uint32_t(Opcode::EXIT) ||
                        prev->pc == pickLdgPc)
                << "switched from warp " << prev->warpId << " to "
                << ev.warpId << " at cycle " << ev.cycle;
            ++switches;
        }
        warm |= ev.warpId == 0 && ev.pc == pickBackPc;
        prev = &ev;
    }
    EXPECT_EQ(switches, 4u) << issueOrder(events);
}

TEST(SmIntegration, MidBlockRetirementKeepsTheIssueOrder)
{
    // Warp 2 exits at once: compaction shifts warp 3 down a resident
    // position while warp 1 is parked. The expected sequences were
    // recorded from the scheduler that scanned every resident warp
    // each cycle; the position masks must reproduce them.
    const std::vector<TraceEvent> lrr =
        runPick(SchedPolicy::LRR, 3, true, 60);
    parkedWindow(lrr);
    EXPECT_EQ(issueOrder(lrr),
              "1 2 3 1 2 3 1 2 3 0 1 2 3 0 1 2 0 1 3 0 1 3 0x2 1 0x3 1 0 3 "
              "0 3x8 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 "
              "0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 3 0 1 3 1 0x4");
    const std::vector<TraceEvent> gto =
        runPick(SchedPolicy::GTO, 3, true, 60);
    parkedWindow(gto);
    EXPECT_EQ(issueOrder(gto),
              "1x2 2x2 1x2 2x2 0x2 1x3 0x2 2 1 0x7 3x2 1 3x38 0x29 1x2");
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
    EXPECT_EQ(r.status.kind, ErrorKind::CycleLimit);
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
    EXPECT_TRUE(r.ok()) << r.status.summary();
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
