/**
 * @file
 * Control-flow pattern tests: nested divergence with multiple
 * convergence barriers, multi-way switches, divergent loop trip
 * counts, and scheduler-policy behavior — all verified functionally
 * (every lane's results) on baseline and SI machines.
 */

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "trace/sinks.hh"

using namespace si;

namespace {

constexpr Addr out = 0x1000;

Memory
runBoth(const std::string &src, bool si_on)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    if (si_on) {
        cfg.siEnabled = true;
        cfg.yieldEnabled = true;
        cfg.trigger = SelectTrigger::AnyStalled;
    }
    Memory mem;
    const Program p = assembleOrDie(src);
    const GpuResult r = simulate(cfg, mem, p, {1, 1});
    EXPECT_TRUE(r.ok()) << r.status.summary();
    return mem;
}

void
expectLaneValues(const std::string &src,
                 const std::function<std::uint32_t(unsigned)> &expect)
{
    for (bool si_on : {false, true}) {
        Memory mem = runBoth(src, si_on);
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            EXPECT_EQ(mem.read(out + 4 * lane), expect(lane))
                << "lane " << lane << " si=" << si_on;
        }
    }
}

} // namespace

TEST(DivergencePatterns, NestedIfElseWithTwoBarriers)
{
    // outer: lane < 16 ? (inner: lane < 8 ? 1 : 2) : 3, plus 10 after
    // full reconvergence.
    const char *src = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, outerJoin
@!P0 BRA elseOuter
ISETP.LT P1, R0, 8
BSSY B1, innerJoin
@!P1 BRA elseInner
MOV R2, 1
BRA innerJoin
elseInner:
MOV R2, 2
BRA innerJoin
innerJoin:
BSYNC B1
BRA outerJoin
elseOuter:
MOV R2, 3
BRA outerJoin
outerJoin:
BSYNC B0
IADD R2, R2, 10
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)";
    expectLaneValues(src, [](unsigned lane) -> std::uint32_t {
        if (lane < 8)
            return 11;
        if (lane < 16)
            return 12;
        return 13;
    });
}

TEST(DivergencePatterns, FourWaySwitch)
{
    // switch (lane / 8): four distinct case bodies, one barrier.
    const char *src = R"(
S2R R0, LANEID
SHR R3, R0, 3
BSSY B0, join
ISETP.GT P0, R3, 1
@P0 BRA hi
ISETP.EQ P1, R3, 0
@P1 BRA case0
MOV R2, 200
BRA join
case0:
MOV R2, 100
BRA join
hi:
ISETP.EQ P1, R3, 2
@P1 BRA case2
MOV R2, 400
BRA join
case2:
MOV R2, 300
BRA join
join:
BSYNC B0
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)";
    expectLaneValues(src, [](unsigned lane) -> std::uint32_t {
        return 100 * (lane / 8) + 100;
    });
}

TEST(DivergencePatterns, DivergentLoopTripCounts)
{
    // Each lane loops (lane % 4) + 1 times, no barrier: subwarps drift
    // apart across the back edge and exit at different times.
    const char *src = R"(
S2R R0, LANEID
AND R3, R0, 3
IADD R3, R3, 1
MOV R2, 0
loop:
IADD R2, R2, 5
IADD R3, R3, -1
ISETP.GT P0, R3, 0
@P0 BRA loop
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)";
    expectLaneValues(src, [](unsigned lane) -> std::uint32_t {
        return 5 * ((lane % 4) + 1);
    });
}

TEST(DivergencePatterns, DivergenceWithStallsInsideLoop)
{
    // Two subwarps per iteration, each with a compulsory-miss load, for
    // three iterations. Checks barrier reuse across iterations.
    const char *src = R"(
S2R R0, LANEID
S2R R4, TID
SHL R5, R4, 8
MOV R6, 0x100000
IADD R5, R5, R6
MOV R3, 3
MOV R2, 0
loop:
ISETP.LT P0, R0, 16
BSSY B0, join
@P0 BRA sideB
LDG R7, [R5+0] &wr=sb0
IADD R2, R2, 1 &req=sb0
BRA join
sideB:
LDG R7, [R5+64] &wr=sb1
IADD R2, R2, 2 &req=sb1
BRA join
join:
BSYNC B0
IADD R5, R5, 128
IADD R3, R3, -1
ISETP.GT P1, R3, 0
@P1 BRA loop
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)";
    expectLaneValues(src, [](unsigned lane) -> std::uint32_t {
        return lane < 16 ? 6 : 3;
    });
}

TEST(DivergencePatterns, SchedulerPoliciesAgreeFunctionally)
{
    const char *src = R"(
S2R R0, LANEID
S2R R4, TID
SHL R5, R4, 8
MOV R6, 0x200000
IADD R5, R5, R6
LDG R2, [R5+0] &wr=sb0
IADD R2, R2, R0 &req=sb0
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)";
    const Program p = assembleOrDie(src);
    Memory m_gto, m_lrr;
    GpuConfig gto;
    gto.numSms = 1;
    gto.sched = SchedPolicy::GTO;
    GpuConfig lrr = gto;
    lrr.sched = SchedPolicy::LRR;
    simulate(gto, m_gto, p, {8, 4});
    simulate(lrr, m_lrr, p, {8, 4});
    for (unsigned t = 0; t < 8 * warpSize; ++t)
        EXPECT_EQ(m_gto.read(out + 4 * t), m_lrr.read(out + 4 * t));
}

TEST(DivergencePatterns, TraceSinkSeesEveryIssue)
{
    const char *src = R"(
MOV R1, 1
MOV R2, 2
IADD R3, R1, R2
EXIT
)";
    GpuConfig cfg;
    cfg.numSms = 1;
    VectorSink sink;
    cfg.traceSink = &sink;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(src), {1, 1});
    std::vector<TraceEvent> events;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.kind == TraceEventKind::Issue)
            events.push_back(ev);
    }
    ASSERT_EQ(events.size(), r.total.instrsIssued);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].pc, 0u);
    EXPECT_EQ(events[3].pc, 3u);
    EXPECT_EQ(ThreadMask(events[0].mask).count(), 32u);
    EXPECT_EQ(events[0].warpId, 0u);
    // Cycles are monotonically nondecreasing.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].cycle, events[i - 1].cycle);
}

TEST(DivergencePatterns, FrcpOfZeroAndF2iOfHugeAreSafe)
{
    const char *src = R"(
MOV R2, 0.0
FRCP R3, R2
MOV R1, 4096
STG [R1+0], R3
MOV R4, 1e30
F2I R5, R4
STG [R1+4], R5
EXIT
)";
    Memory mem = runBoth(src, false);
    EXPECT_EQ(mem.readF(out), 0.0f); // guarded reciprocal
    // F2I saturates out-of-range values (CUDA cvt semantics).
    EXPECT_EQ(std::int32_t(mem.read(out + 4)), INT32_MAX);
}
