/** @file Count-based scoreboard file semantics. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hh"
#include "core/gpu.hh"
#include "core/scoreboard.hh"
#include "isa/assembler.hh"

using namespace si;

TEST(Scoreboard, InitiallyReady)
{
    ScoreboardFile sb;
    EXPECT_TRUE(sb.ready(ThreadMask::full(), 0xff));
    EXPECT_EQ(sb.count(0, 0), 0);
}

TEST(Scoreboard, IncrBlocksOnlyMaskedLanes)
{
    ScoreboardFile sb;
    ThreadMask half = ThreadMask::firstN(16);
    sb.incr(half, 3);
    EXPECT_FALSE(sb.ready(half, 1u << 3));
    EXPECT_FALSE(sb.ready(ThreadMask::full(), 1u << 3));
    // The other half is unaffected.
    EXPECT_TRUE(sb.ready(ThreadMask::full() - half, 1u << 3));
    // Other scoreboards unaffected.
    EXPECT_TRUE(sb.ready(half, 1u << 2));
}

TEST(Scoreboard, CountsNest)
{
    ScoreboardFile sb;
    const ThreadMask m = ThreadMask::lane(5);
    sb.incr(m, 0);
    sb.incr(m, 0);
    EXPECT_EQ(sb.count(5, 0), 2);
    sb.decr(m, 0);
    EXPECT_FALSE(sb.ready(m, 1u));
    sb.decr(m, 0);
    EXPECT_TRUE(sb.ready(m, 1u));
}

TEST(Scoreboard, DecrSaturatesAtZero)
{
    ScoreboardFile sb;
    sb.decr(ThreadMask::full(), 1);
    EXPECT_EQ(sb.count(0, 1), 0);
}

TEST(Scoreboard, FirstBlockingFindsLowestOutstanding)
{
    ScoreboardFile sb;
    const ThreadMask m = ThreadMask::firstN(4);
    EXPECT_EQ(sb.firstBlocking(m, 0xff), sbNone);
    sb.incr(m, 5);
    sb.incr(m, 2);
    EXPECT_EQ(sb.firstBlocking(m, 0xff), 2);
    EXPECT_EQ(sb.firstBlocking(m, 1u << 5), 5);
    EXPECT_EQ(sb.firstBlocking(m, 1u << 1), sbNone);
}

TEST(Scoreboard, MaxCountAcrossLanes)
{
    ScoreboardFile sb;
    sb.incr(ThreadMask::lane(0), 4);
    sb.incr(ThreadMask::lane(0), 4);
    sb.incr(ThreadMask::lane(1), 4);
    EXPECT_EQ(sb.maxCount(ThreadMask::firstN(2), 4), 2);
    EXPECT_EQ(sb.maxCount(ThreadMask::lane(1), 4), 1);
}

TEST(Scoreboard, PerThreadReplicationAvoidsAliasing)
{
    // Two subwarps using the same scoreboard id must not block each
    // other — the paper's rationale for per-subwarp counters.
    ScoreboardFile sb;
    const ThreadMask a = ThreadMask::firstN(16);
    const ThreadMask b = ThreadMask::full() - a;
    sb.incr(a, 0);
    EXPECT_FALSE(sb.ready(a, 1u));
    EXPECT_TRUE(sb.ready(b, 1u));
    sb.incr(b, 0);
    sb.decr(a, 0);
    EXPECT_TRUE(sb.ready(a, 1u));
    EXPECT_FALSE(sb.ready(b, 1u));
}

TEST(Scoreboard, ClearResetsAll)
{
    ScoreboardFile sb;
    sb.incr(ThreadMask::full(), 7);
    sb.clear();
    EXPECT_TRUE(sb.ready(ThreadMask::full(), 0xff));
}

TEST(Scoreboard, ReadyWithEmptyReqMaskAlwaysTrue)
{
    ScoreboardFile sb;
    sb.incr(ThreadMask::full(), 0);
    EXPECT_TRUE(sb.ready(ThreadMask::full(), 0));
}

TEST(Scoreboard, BusyMaskFollowsCounts)
{
    ScoreboardFile sb;
    sb.incr(ThreadMask::firstN(4), 2);
    sb.incr(ThreadMask::lane(1), 2);
    EXPECT_EQ(sb.busy(2), ThreadMask::firstN(4));
    EXPECT_TRUE(sb.busy(3).empty());
    sb.decr(ThreadMask::firstN(4), 2);
    EXPECT_EQ(sb.busy(2), ThreadMask::lane(1));
    sb.decr(ThreadMask::full(), 2);
    EXPECT_TRUE(sb.busy(2).empty());
}

TEST(Scoreboard, CounterOverflowIsAnInvalidProgram)
{
    // The counters are 8-bit: a 256th outstanding write on one lane
    // used to wrap the count to 0 and release its consumers early.
    ScoreboardFile sb;
    const ThreadMask lane0 = ThreadMask::lane(0);
    for (unsigned i = 0; i < ScoreboardFile::maxOutstanding; ++i)
        sb.incr(lane0, 6);
    EXPECT_EQ(sb.count(0, 6), 255);
    try {
        sb.incr(ThreadMask::firstN(2), 6);
        FAIL() << "a 256th outstanding write must not wrap";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Parse);
        EXPECT_NE(std::string(e.what()).find("sb6"), std::string::npos)
            << e.what();
    }
    // Nothing changed: lane 1 was not incremented either.
    EXPECT_EQ(sb.count(0, 6), 255);
    EXPECT_EQ(sb.count(1, 6), 0);
    EXPECT_EQ(sb.busy(6), lane0);
    // Other scoreboards of the same lane are independent.
    sb.incr(lane0, 5);
    EXPECT_EQ(sb.count(0, 5), 1);
}

TEST(Scoreboard, RandomOpsMatchPerLaneScan)
{
    // Brute-force model: the per-lane counts alone. Every answer the
    // file gives from its busy masks must equal a scan of the model,
    // through incr/decr (overflow included) and save -> restore.
    std::array<std::array<unsigned, ScoreboardFile::numSb>, warpSize>
        model{};
    ScoreboardFile sb;
    Rng rng(22);
    auto random_mask = [&] {
        switch (rng.below(4)) {
          case 0:
            return ThreadMask::full();
          case 1:
            return ThreadMask::lane(unsigned(rng.below(warpSize)));
          case 2:
            return ThreadMask::firstN(unsigned(rng.below(warpSize + 1)));
          default:
            return ThreadMask(std::uint32_t(rng.next()));
        }
    };
    // Phases of 8000 steps alternate between mostly-incr (climbing to
    // the overflow) and mostly-decr (draining back to zero).
    unsigned overflows = 0;
    for (unsigned step = 0; step < 32000; ++step) {
        const ThreadMask mask = random_mask();
        const SbIndex s = SbIndex(rng.below(ScoreboardFile::numSb));
        const std::uint64_t op = rng.below(16);
        const unsigned incr_ops = (step / 8000) % 2 == 0 ? 12 : 4;
        if (op < incr_ops) {
            bool full = false;
            for (unsigned lane : lanesOf(mask))
                full |= model[lane][s] == ScoreboardFile::maxOutstanding;
            if (full) {
                EXPECT_THROW(sb.incr(mask, s), SimError);
                ++overflows;
            } else {
                sb.incr(mask, s);
                for (unsigned lane : lanesOf(mask))
                    ++model[lane][s];
            }
        } else if (op < 15) {
            sb.decr(mask, s);
            for (unsigned lane : lanesOf(mask))
                model[lane][s] -= model[lane][s] != 0;
        } else {
            SnapshotWriter w;
            sb.save(w);
            const std::string bytes = w.finish();
            SnapshotReader r(bytes);
            ScoreboardFile copy;
            copy.incr(ThreadMask::full(), s); // stale state to overwrite
            copy.restore(r);
            sb = copy;
        }

        for (unsigned q = 0; q < 4; ++q) {
            const ThreadMask query = random_mask();
            const auto req = std::uint8_t(rng.below(256));
            SbIndex first = sbNone;
            for (unsigned b = 0; b < ScoreboardFile::numSb; ++b) {
                if (!(req & (1u << b)))
                    continue;
                for (unsigned lane : lanesOf(query)) {
                    if (model[lane][b] != 0 && first == sbNone)
                        first = SbIndex(b);
                }
            }
            ASSERT_EQ(sb.firstBlocking(query, req), first) << step;
            ASSERT_EQ(sb.ready(query, req), first == sbNone) << step;
        }
        for (unsigned b = 0; b < ScoreboardFile::numSb; ++b) {
            ThreadMask busy;
            unsigned max_count = 0;
            for (unsigned lane = 0; lane < warpSize; ++lane) {
                ASSERT_EQ(sb.count(lane, SbIndex(b)), model[lane][b]);
                if (model[lane][b] != 0)
                    busy.set(lane);
                if (mask.test(lane))
                    max_count = std::max(max_count, model[lane][b]);
            }
            ASSERT_EQ(sb.busy(SbIndex(b)), busy) << step;
            ASSERT_EQ(sb.maxCount(mask, SbIndex(b)), max_count) << step;
        }
    }
    // The walk must reach the overflow path, or it tests too little.
    EXPECT_GT(overflows, 0u);
}

TEST(Scoreboard, KernelWith256OutstandingLoadsIsRejected)
{
    // tests/regress/sb_overflow.sasm: 256 loads on sb0 before the
    // consumer. With a wrapping counter this run finished early with
    // no memory stall exposed; it must fail as an invalid program.
    auto kernel = [](int trips) {
        return "S2R R0, TID\n"
               "SHL R1, R0, 12\n"
               "MOV R2, 0x20000000\n"
               "IADD R1, R1, R2\n"
               "MOV R3, " + std::to_string(trips) + "\n"
               "loop:\n"
               "LDG R4, [R1+0] &wr=sb0\n"
               "IADD R1, R1, 128\n"
               "IADD R3, R3, -1\n"
               "ISETP.GT P0, R3, 0\n"
               "@P0 BRA loop\n"
               "FADD R10, R4, R4 &req=sb0\n"
               "EXIT\n";
    };
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.lat.l1Miss = 20000;
    Memory mem;
    const GpuResult full =
        simulate(cfg, mem, assembleOrDie(kernel(255)), {1, 1});
    ASSERT_TRUE(full.ok()) << full.status.summary();
    EXPECT_GT(full.cycles, cfg.lat.l1Miss);
    const GpuResult over =
        simulate(cfg, mem, assembleOrDie(kernel(256)), {1, 1});
    EXPECT_EQ(over.status.kind, ErrorKind::Parse) << over.status.summary();
}
