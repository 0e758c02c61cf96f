/**
 * @file
 * Forward-progress watchdog tests: barrier deadlocks and livelocks are
 * classified with full diagnostics, runaway kernels fail via the cycle
 * cap, and legitimate long stalls do not trip anything.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"

namespace si {
namespace {

using ::testing::HasSubstr;

// Two subwarps block on *different* barriers that can never complete:
// B0 waits for lanes that wait on B1 and vice versa.
const char *kCrossBarrierDeadlock = R"(
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

// One long-latency load feeding a dependent consumer.
const char *kLoadUse = R"(
MOV R1, 0x200000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
EXIT
)";

TEST(Watchdog, BarrierDeadlockClassifiedWithDiagnostic)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r =
        simulate(cfg, mem, assembleOrDie(kCrossBarrierDeadlock), {1, 1});

    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::BarrierDeadlock);
    EXPECT_THAT(r.status.message, HasSubstr("deadlock"));
    // The dump must show the stuck machine: per-subwarp PCs and masks,
    // and both barriers' participation masks.
    EXPECT_THAT(r.status.diagnostic, HasSubstr("BLOCKED"));
    EXPECT_THAT(r.status.diagnostic, HasSubstr("pc="));
    EXPECT_THAT(r.status.diagnostic, HasSubstr("mask=0x"));
    EXPECT_THAT(r.status.diagnostic, HasSubstr("barrier B0"));
    EXPECT_THAT(r.status.diagnostic, HasSubstr("barrier B1"));
}

TEST(Watchdog, DeadlockFoundMidTickKeepsTheWarpCyclePartition)
{
    // Warp 3 deadlocks while the other warps still wait on a load. The
    // failure unwinds from the middle of a tick's warp scan; the
    // statistics charge that cycle only to the warps the scan had
    // reached, so the partition
    //   liveWarpCycles == instrsIssued + arbLossCycles + sum(stalls)
    // still closes.
    const char *src = R"(
S2R R0, LANEID
S2R R5, WARPID
ISETP.LT P0, R0, 16
ISETP.NE P1, R5, 3
MOV R1, 0x200000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
@P1 EXIT
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
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {16, 4});
    ASSERT_EQ(r.status.kind, ErrorKind::BarrierDeadlock);
    const SmStats &s = r.total;
    std::uint64_t stalls = 0;
    for (std::uint64_t c : s.stallCyclesByReason)
        stalls += c;
    EXPECT_GT(s.liveWarpCycles, 0u);
    EXPECT_EQ(s.liveWarpCycles, s.instrsIssued + s.arbLossCycles + stalls);
    EXPECT_EQ(s.liveWarpCycles, s.warpCyclesSubwarpFull +
                                    s.warpCyclesSubwarpPartial +
                                    s.warpCyclesSubwarpNone);
}

TEST(Watchdog, LivelockDetectedAndDumped)
{
    // A phantom scoreboard increment (no writeback will ever drain it)
    // wedges the consumer forever. Once the real load's writeback
    // drains, nothing is in flight and nothing can issue: livelock.
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.livelockCycles = 500;
    bool corrupted = false;
    cfg.faultHook = [&corrupted](Gpu &gpu, Cycle now) {
        if (!corrupted && now >= 20) {
            ThreadMask lane0;
            lane0.set(0);
            gpu.sm(0).warpAt(0).scoreboards().incr(lane0, SbIndex(0));
            corrupted = true;
        }
        return Cycle(20); // no leap may skip cycle 20
    };

    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(kLoadUse), {1, 1});

    EXPECT_TRUE(corrupted);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::Livelock);
    EXPECT_THAT(r.status.message, HasSubstr("no instruction issued"));
    // The dump names the poisoned scoreboard.
    EXPECT_THAT(r.status.diagnostic, HasSubstr("scoreboard sb0"));
}

TEST(Watchdog, LongLegalStallDoesNotTrip)
{
    // A memory latency far above the livelock threshold: the pending
    // writeback marks the stall as legitimate, so the run completes.
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.lat.l1Miss = 2000;
    cfg.livelockCycles = 300;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(kLoadUse), {1, 1});

    EXPECT_TRUE(r.ok()) << r.status.summary();
    EXPECT_GT(r.cycles, 2000u);
}

TEST(Watchdog, CycleLimitMarksRunFailed)
{
    // An infinite loop keeps issuing, so it is not a livelock — the
    // cycle cap catches it and must *fail* the result, not just warn.
    const char *src = R"(
top:
BRA top
EXIT
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.maxCycles = 5000;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {1, 1});

    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::CycleLimit);
    EXPECT_THAT(r.status.message, HasSubstr("cycle"));
}

TEST(Watchdog, InvariantCheckerCleanOnHealthyRun)
{
    // Divergence, barriers, SI demotions, and memory traffic under a
    // tight audit interval: a healthy run must produce no violations.
    const char *src = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
MOV R1, 0x200000
BSSY B0, join
@P0 BRA fast
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
BSYNC B0
join:
EXIT
fast:
BSYNC B0
BRA join
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = true;
    cfg.checkInvariants = true;
    cfg.invariantCheckInterval = 64;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {4, 4});

    EXPECT_TRUE(r.ok()) << r.status.summary() << "\n"
                        << r.status.diagnostic;
}

TEST(Watchdog, AssemblerErrorsThrowStructuredParse)
{
    try {
        assembleOrDie("BOGUS R0, R1\nEXIT\n");
        FAIL() << "bogus opcode assembled";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Parse);
        EXPECT_THAT(e.what(), HasSubstr("assembly failed"));
    }
}

} // namespace
} // namespace si
