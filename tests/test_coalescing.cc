/** @file Global-memory coalescing: one transaction per unique line. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "mem/coalesce.hh"

using namespace si;

namespace {

GpuResult
run(const char *src)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    return simulate(cfg, mem, assembleOrDie(src), {1, 1});
}

} // namespace

TEST(Coalescing, FullyCoalescedWarpIsOneTransaction)
{
    // All 32 lanes load consecutive words of one 128B line.
    const GpuResult r = run(R"(
S2R R0, LANEID
SHL R1, R0, 2
MOV R2, 0x100000
IADD R1, R1, R2
LDG R3, [R1+0] &wr=sb0
FADD R4, R3, R3 &req=sb0
EXIT
)");
    EXPECT_EQ(r.total.gmemTransactions, 1u);
    EXPECT_EQ(r.total.l1dMisses, 1u);
}

TEST(Coalescing, FullyScatteredWarpIs32Transactions)
{
    // Each lane strides 256B: 32 distinct lines.
    const GpuResult r = run(R"(
S2R R0, LANEID
SHL R1, R0, 8
MOV R2, 0x100000
IADD R1, R1, R2
LDG R3, [R1+0] &wr=sb0
FADD R4, R3, R3 &req=sb0
EXIT
)");
    EXPECT_EQ(r.total.gmemTransactions, 32u);
    EXPECT_EQ(r.total.l1dMisses, 32u);
}

TEST(Coalescing, TwoLineStraddleIsTwoTransactions)
{
    // 8-byte stride: 32 lanes cover 256B = exactly 2 lines.
    const GpuResult r = run(R"(
S2R R0, LANEID
SHL R1, R0, 3
MOV R2, 0x100000
IADD R1, R1, R2
LDG R3, [R1+0] &wr=sb0
FADD R4, R3, R3 &req=sb0
EXIT
)");
    EXPECT_EQ(r.total.gmemTransactions, 2u);
}

TEST(Coalescing, GuardedLanesDoNotGenerateTraffic)
{
    const GpuResult r = run(R"(
S2R R0, LANEID
SHL R1, R0, 8
MOV R2, 0x100000
IADD R1, R1, R2
ISETP.LT P0, R0, 4
@P0 LDG R3, [R1+0] &wr=sb0
FADD R4, R3, R3 &req=sb0
EXIT
)");
    EXPECT_EQ(r.total.gmemTransactions, 4u);
}

TEST(Coalescing, RepeatedAccessHitsWithoutNewMisses)
{
    const GpuResult r = run(R"(
S2R R0, LANEID
SHL R1, R0, 2
MOV R2, 0x100000
IADD R1, R1, R2
LDG R3, [R1+0] &wr=sb0
FADD R4, R3, R3 &req=sb0
LDG R5, [R1+0] &wr=sb1
FADD R6, R5, R5 &req=sb1
EXIT
)");
    EXPECT_EQ(r.total.gmemTransactions, 2u);
    EXPECT_EQ(r.total.l1dMisses, 1u);
    EXPECT_EQ(r.total.l1dHits, 1u);
}

// ---- coalesceLines: unique lines in first-appearance lane order ----

namespace {

std::vector<Addr>
lineList(const std::array<Addr, warpSize> &addrs, ThreadMask lanes,
         unsigned line_bytes = 128)
{
    std::array<Addr, warpSize> lines{};
    const unsigned n = coalesceLines(addrs, lanes, line_bytes, lines);
    return {lines.begin(), lines.begin() + n};
}

} // namespace

TEST(CoalesceLines, AllLanesOnOneLine)
{
    std::array<Addr, warpSize> addrs{};
    for (unsigned lane = 0; lane < warpSize; ++lane)
        addrs[lane] = 0x1000 + 4 * lane;
    EXPECT_EQ(lineList(addrs, ThreadMask::full()),
              std::vector<Addr>{0x1000});
}

TEST(CoalesceLines, ThirtyTwoDistinctLinesKeepLaneOrder)
{
    // A permutation of 32 lines: the output follows the lanes, not the
    // addresses.
    std::array<Addr, warpSize> addrs{};
    std::vector<Addr> expect;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        addrs[lane] = 0x200000 + Addr((lane * 7) % warpSize) * 128 + lane;
        expect.push_back(0x200000 + Addr((lane * 7) % warpSize) * 128);
    }
    EXPECT_EQ(lineList(addrs, ThreadMask::full()), expect);
}

TEST(CoalesceLines, NonAdjacentRepeatsAreDeduplicated)
{
    // A B C A B C ...: no repeat is on the previous lane's line.
    std::array<Addr, warpSize> addrs{};
    for (unsigned lane = 0; lane < warpSize; ++lane)
        addrs[lane] = 0x9000 - Addr(lane % 3) * 0x1000;
    EXPECT_EQ(lineList(addrs, ThreadMask::full()),
              (std::vector<Addr>{0x9000, 0x8000, 0x7000}));
}

TEST(CoalesceLines, PartialMaskSkipsOtherLanes)
{
    std::array<Addr, warpSize> addrs{};
    for (unsigned lane = 0; lane < warpSize; ++lane)
        addrs[lane] = 0x40000 + Addr(lane) * 0x100;
    addrs[20] = addrs[5] + 8; // same line as lane 5
    ThreadMask lanes;
    for (unsigned lane : {5u, 9u, 20u, 31u})
        lanes.set(lane);
    EXPECT_EQ(lineList(addrs, lanes),
              (std::vector<Addr>{0x40500, 0x40900, 0x41f00}));
    EXPECT_TRUE(lineList(addrs, ThreadMask()).empty());
}

TEST(CoalesceLines, MatchesQuadraticScanOnRandomWarps)
{
    // Addresses drawn from a small pool (so lines repeat in any
    // pattern), including the top of the address space and lines that
    // differ only in their high bits; 32- and 64-byte lines too.
    Rng rng(7);
    const Addr pool[] = {0,          0x80,       0x100,
                         0x1000,     0x1080,     Addr(1) << 40,
                         Addr(1) << 63, ~Addr(0) - 0x7f, ~Addr(0)};
    for (unsigned trial = 0; trial < 2000; ++trial) {
        const unsigned line_bytes = 32u << rng.below(3);
        std::array<Addr, warpSize> addrs{};
        for (Addr &a : addrs)
            a = pool[rng.below(std::size(pool))] + rng.below(256);
        const ThreadMask lanes(std::uint32_t(rng.next()));
        std::vector<Addr> expect;
        for (unsigned lane : lanesOf(lanes)) {
            const Addr line = addrs[lane] & ~Addr(line_bytes - 1);
            if (std::find(expect.begin(), expect.end(), line) ==
                expect.end())
                expect.push_back(line);
        }
        ASSERT_EQ(lineList(addrs, lanes, line_bytes), expect) << trial;
    }
}
