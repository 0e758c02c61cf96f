/**
 * @file
 * Functional execution tests: each opcode's semantics verified through
 * complete kernel runs on a single-SM configuration.
 */

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"

using namespace si;

namespace {

/** Run @p source on one warp; return final memory. */
Memory
runKernel(const std::string &source, Memory mem = Memory())
{
    GpuConfig cfg;
    cfg.numSms = 1;
    const Program prog = assembleOrDie(source);
    const GpuResult r = simulate(cfg, mem, prog, {1, 1});
    EXPECT_TRUE(r.ok()) << r.status.summary();
    return mem;
}

constexpr Addr out = 0x1000;

} // namespace

TEST(Exec, MovAndStore)
{
    Memory m = runKernel(R"(
MOV R1, 4096
MOV R2, 77
STG [R1+0], R2
EXIT
)");
    EXPECT_EQ(m.read(out), 77u);
}

TEST(Exec, S2RLaneAndTid)
{
    // Store lane id of every thread: out[lane*4] = lane.
    Memory m = runKernel(R"(
S2R R0, LANEID
S2R R3, TID
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R3
EXIT
)");
    for (unsigned lane = 0; lane < 32; ++lane)
        EXPECT_EQ(m.read(out + lane * 4), lane); // warp 0: tid == lane
}

TEST(Exec, IntegerAluSemantics)
{
    Memory m = runKernel(R"(
MOV R1, 4096
MOV R2, 10
MOV R3, 3
IADD R4, R2, R3
STG [R1+0], R4
ISUB R4, R2, R3
STG [R1+4], R4
IMUL R4, R2, R3
STG [R1+8], R4
IMAD R4, R2, 4, R3
STG [R1+12], R4
AND R4, R2, 6
STG [R1+16], R4
OR R4, R2, 5
STG [R1+20], R4
XOR R4, R2, R3
STG [R1+24], R4
SHL R4, R2, 2
STG [R1+28], R4
SHR R4, R2, 1
STG [R1+32], R4
IMIN R4, R2, R3
STG [R1+36], R4
IMAX R4, R2, R3
STG [R1+40], R4
MOV R5, -4
IMIN R4, R5, R3
STG [R1+44], R4
EXIT
)");
    EXPECT_EQ(m.read(out + 0), 13u);
    EXPECT_EQ(m.read(out + 4), 7u);
    EXPECT_EQ(m.read(out + 8), 30u);
    EXPECT_EQ(m.read(out + 12), 43u);
    EXPECT_EQ(m.read(out + 16), 2u);
    EXPECT_EQ(m.read(out + 20), 15u);
    EXPECT_EQ(m.read(out + 24), 9u);
    EXPECT_EQ(m.read(out + 28), 40u);
    EXPECT_EQ(m.read(out + 32), 5u);
    EXPECT_EQ(m.read(out + 36), 3u);
    EXPECT_EQ(m.read(out + 40), 10u);
    EXPECT_EQ(std::int32_t(m.read(out + 44)), -4);
}

TEST(Exec, FloatAluSemantics)
{
    Memory m = runKernel(R"(
MOV R1, 4096
MOV R2, 2.5
MOV R3, 4.0
FADD R4, R2, R3
STG [R1+0], R4
FMUL R4, R2, R3
STG [R1+4], R4
FFMA R4, R2, R3, R2
STG [R1+8], R4
FMIN R4, R2, R3
STG [R1+12], R4
FMAX R4, R2, R3
STG [R1+16], R4
FRCP R4, R3
STG [R1+20], R4
FSQRT R4, R3
STG [R1+24], R4
MOV R5, 9
I2F R4, R5
STG [R1+28], R4
F2I R4, R3
STG [R1+32], R4
EXIT
)");
    EXPECT_FLOAT_EQ(m.readF(out + 0), 6.5f);
    EXPECT_FLOAT_EQ(m.readF(out + 4), 10.0f);
    EXPECT_FLOAT_EQ(m.readF(out + 8), 12.5f);
    EXPECT_FLOAT_EQ(m.readF(out + 12), 2.5f);
    EXPECT_FLOAT_EQ(m.readF(out + 16), 4.0f);
    EXPECT_FLOAT_EQ(m.readF(out + 20), 0.25f);
    EXPECT_FLOAT_EQ(m.readF(out + 24), 2.0f);
    EXPECT_FLOAT_EQ(m.readF(out + 28), 9.0f);
    EXPECT_EQ(m.read(out + 32), 4u);
}

TEST(Exec, PredicatesAndSel)
{
    Memory m = runKernel(R"(
MOV R1, 4096
MOV R2, 5
ISETP.LT P0, R2, 10
SEL R4, R2, 99, P0
STG [R1+0], R4
ISETP.GT P1, R2, 10
SEL R4, R2, 99, P1
STG [R1+4], R4
MOV R3, 5.5
FSETP.GE P2, R3, 5.5
SEL R4, R2, 0, P2
STG [R1+8], R4
EXIT
)");
    EXPECT_EQ(m.read(out + 0), 5u);
    EXPECT_EQ(m.read(out + 4), 99u);
    EXPECT_EQ(m.read(out + 8), 5u);
}

TEST(Exec, GuardedExecutionOnlyWritesPassingLanes)
{
    // Even lanes write 1, odd lanes keep 0.
    Memory m = runKernel(R"(
S2R R0, LANEID
AND R2, R0, 1
ISETP.EQ P0, R2, 0
MOV R3, 0
@P0 MOV R3, 1
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R3
EXIT
)");
    for (unsigned lane = 0; lane < 32; ++lane)
        EXPECT_EQ(m.read(out + 4 * lane), lane % 2 == 0 ? 1u : 0u);
}

TEST(Exec, LoadStoreRoundTripWithScoreboard)
{
    Memory init;
    init.write(0x2000, 123);
    Memory m = runKernel(R"(
MOV R1, 8192
LDG R2, [R1+0] &wr=sb0
IADD R3, R2, 1 &req=sb0
MOV R4, 4096
STG [R4+0], R3
EXIT
)", init);
    EXPECT_EQ(m.read(out), 124u);
}

TEST(Exec, LdcReadsConstantBank)
{
    Memory init;
    init.writeConst(8, 4242);
    Memory m = runKernel(R"(
LDC R2, c[8]
MOV R1, 4096
STG [R1+0], R2
EXIT
)", init);
    EXPECT_EQ(m.read(out), 4242u);
}

TEST(Exec, DivergentIfElseReconverges)
{
    // Lanes < 16 compute 100, others 200; all store after BSYNC.
    Memory m = runKernel(R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, join
@P0 BRA thenSide
MOV R2, 200
BRA join
thenSide:
MOV R2, 100
BRA join
join:
BSYNC B0
SHL R1, R0, 2
IADD R1, R1, 4096
STG [R1+0], R2
EXIT
)");
    for (unsigned lane = 0; lane < 32; ++lane)
        EXPECT_EQ(m.read(out + 4 * lane), lane < 16 ? 100u : 200u);
}

TEST(Exec, LoopWithBackwardBranch)
{
    // Sum 1..10 per thread.
    Memory m = runKernel(R"(
MOV R2, 0
MOV R3, 1
loop:
IADD R2, R2, R3
IADD R3, R3, 1
ISETP.LE P0, R3, 10
@P0 BRA loop
MOV R1, 4096
STG [R1+0], R2
EXIT
)");
    EXPECT_EQ(m.read(out), 55u);
}

TEST(Exec, PartialExitLeavesSurvivorsRunning)
{
    // Odd lanes exit early; even lanes write.
    Memory m = runKernel(R"(
S2R R0, LANEID
AND R2, R0, 1
ISETP.EQ P0, R2, 1
@P0 EXIT
SHL R1, R0, 2
IADD R1, R1, 4096
MOV R3, 7
STG [R1+0], R3
EXIT
)");
    for (unsigned lane = 0; lane < 32; ++lane)
        EXPECT_EQ(m.read(out + 4 * lane), lane % 2 == 0 ? 7u : 0u);
}

TEST(Exec, TexReturnsMemoryValueViaScoreboard)
{
    // TEX address hash for (u=0, v=0) lands at the texture segment
    // base; preload a value there.
    Memory init;
    init.write(0x40000000ull, 555);
    Memory m = runKernel(R"(
MOV R2, 0
MOV R3, 0
TEX R4, R2, R3 &wr=sb1
MOV R1, 4096
IADD R5, R4, 0 &req=sb1
STG [R1+0], R5
EXIT
)", init);
    EXPECT_EQ(m.read(out), 555u);
}

TEST(Exec, YieldIsNoopOnBaseline)
{
    Memory m = runKernel(R"(
MOV R1, 4096
MOV R2, 3
YIELD
STG [R1+0], R2
EXIT
)");
    EXPECT_EQ(m.read(out), 3u);
}

TEST(Exec, InstructionCountsMatchExpectations)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const Program prog = assembleOrDie(R"(
MOV R1, 1
MOV R2, 2
IADD R3, R1, R2
EXIT
)");
    const GpuResult r = simulate(cfg, mem, prog, {1, 1});
    EXPECT_EQ(r.total.instrsIssued, 4u);
    EXPECT_EQ(r.total.warpsRetired, 1u);
}
