/**
 * @file Warp state container: registers, predicates, the per-state lane
 * masks, and (through Sm) the writeback queue that drains into it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/sm.hh"
#include "core/warp.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"

using namespace si;

namespace {

Program
trivialProgram(unsigned regs = 32)
{
    KernelBuilder kb("trivial");
    kb.exit();
    return kb.build(regs);
}

} // namespace

TEST(Warp, LaunchStateAllActiveAtPcZero)
{
    const Program p = trivialProgram();
    Warp w(3, 1, &p, warpSize);
    EXPECT_EQ(w.id(), 3u);
    EXPECT_EQ(w.pb(), 1u);
    EXPECT_EQ(w.live().count(), 32u);
    EXPECT_EQ(w.activeMask().count(), 32u);
    EXPECT_EQ(w.activePc(), 0u);
    EXPECT_FALSE(w.done());
}

TEST(Warp, PartialWarpLaunch)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, 20);
    EXPECT_EQ(w.live().count(), 20u);
    EXPECT_EQ(w.state(19), ThreadState::Active);
    EXPECT_EQ(w.state(20), ThreadState::Inactive);
}

TEST(Warp, RegisterFileReadWriteAndRZ)
{
    const Program p = trivialProgram(64);
    Warp w(0, 0, &p, warpSize);
    w.setReg(5, 10, 0xabcd);
    EXPECT_EQ(w.reg(5, 10), 0xabcdu);
    EXPECT_EQ(w.reg(6, 10), 0u); // other lane untouched
    EXPECT_EQ(w.reg(5, regNone), 0u); // RZ reads zero
    w.setReg(5, regNone, 99); // RZ writes ignored
    EXPECT_EQ(w.reg(5, regNone), 0u);
}

TEST(Warp, PredicatesPerLaneAndPT)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    EXPECT_TRUE(w.predicate(0, predNone)); // PT always true
    EXPECT_FALSE(w.predicate(0, 3));
    w.setPredicate(0, 3, true);
    EXPECT_TRUE(w.predicate(0, 3));
    EXPECT_FALSE(w.predicate(1, 3));
    w.setPredicate(0, 3, false);
    EXPECT_FALSE(w.predicate(0, 3));
}

TEST(Warp, KillLanesLeadsToDone)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    w.killLanes(ThreadMask::firstN(31));
    EXPECT_FALSE(w.done());
    w.killLanes(ThreadMask::full());
    EXPECT_TRUE(w.done());
}

TEST(Warp, LanesAtPcSplitsReadyLanesByPc)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    // lanes 0..7 ready at pc 20; lanes 8..15 ready at pc 4; rest active.
    w.setState(ThreadMask::firstN(16), ThreadState::Ready);
    for (unsigned l = 0; l < 8; ++l)
        w.setPc(l, 20);
    for (unsigned l = 8; l < 16; ++l)
        w.setPc(l, 4);
    const ThreadMask ready = w.lanesInState(ThreadState::Ready);
    EXPECT_EQ(ready, ThreadMask::firstN(16));
    EXPECT_EQ(w.lanesAtPc(ready, 4), ThreadMask::firstN(16) -
                                         ThreadMask::firstN(8));
    EXPECT_EQ(w.lanesAtPc(ready, 20), ThreadMask::firstN(8));
    EXPECT_TRUE(w.lanesAtPc(ready, 5).empty());
}

TEST(Warp, KilledLanesLeaveEveryOtherState)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    w.setState(ThreadMask::lane(0), ThreadState::Ready);
    w.killLanes(ThreadMask::lane(0));
    EXPECT_FALSE(w.lanesInState(ThreadState::Ready).test(0));
    EXPECT_EQ(w.state(0), ThreadState::Inactive);
    EXPECT_FALSE(w.live().test(0));
}

TEST(Warp, ActivePcFollowsLowestActiveLane)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    w.setState(ThreadMask::firstN(16), ThreadState::Blocked);
    for (unsigned l = 16; l < 32; ++l)
        w.setPc(l, 7);
    EXPECT_EQ(w.activePc(), 7u);
}

TEST(Warp, MaskedSetPcWritesExactlyTheMaskedLanes)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    for (unsigned l = 0; l < warpSize; ++l)
        w.setPc(l, 100 + l);
    auto expect_pcs = [&](ThreadMask set, std::uint32_t pc) {
        for (unsigned l = 0; l < warpSize; ++l)
            EXPECT_EQ(w.pc(l), set.test(l) ? pc : 100 + l) << "lane " << l;
    };

    w.setPc(ThreadMask{}, 7); // empty: nothing moves
    expect_pcs(ThreadMask{}, 7);

    const ThreadMask sparse(0x80010005u); // lanes 0, 2, 16, 31
    w.setPc(sparse, 9);
    expect_pcs(sparse, 9);

    w.setPc(ThreadMask::full(), 12);
    expect_pcs(ThreadMask::full(), 12);
}

TEST(Warp, TstOccupancy)
{
    const Program p = trivialProgram();
    Warp w(0, 0, &p, warpSize);
    EXPECT_EQ(w.tstOccupancy(), 0u);
    w.tst().resize(4);
    w.tst()[1].valid = true;
    w.tst()[3].valid = true;
    EXPECT_EQ(w.tstOccupancy(), 2u);
}

TEST(Warp, RegReadyTimestamps)
{
    const Program p = trivialProgram(64);
    Warp w(0, 0, &p, warpSize);
    EXPECT_EQ(w.regReadyAt(5), 0u);
    w.setRegReadyAt(5, 123);
    EXPECT_EQ(w.regReadyAt(5), 123u);
    EXPECT_EQ(w.regReadyAt(regNone), 0u); // RZ always ready
    w.setPredReadyAt(2, 55);
    EXPECT_EQ(w.predReadyAt(2), 55u);
    EXPECT_EQ(w.predReadyAt(predNone), 0u);
}

namespace {

/** The five state masks partition the lanes, and agree with state(). */
void
expectPartition(const Warp &w)
{
    ThreadMask seen;
    for (unsigned s = 0; s < numThreadStates; ++s) {
        const ThreadMask m = w.lanesInState(ThreadState(s));
        EXPECT_TRUE((m & seen).empty()) << "state " << s << " overlaps";
        seen |= m;

        ThreadMask scanned;
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            if (w.state(lane) == ThreadState(s))
                scanned.set(lane);
        }
        EXPECT_EQ(m, scanned) << "state " << s;
    }
    EXPECT_EQ(seen, ThreadMask::full());
    EXPECT_EQ(w.live(), ThreadMask::full() -
                            w.lanesInState(ThreadState::Inactive));
}

std::string
saved(const Warp &w)
{
    SnapshotWriter out;
    w.save(out);
    return out.finish();
}

} // namespace

TEST(Warp, RandomTransitionsKeepTheMasksAPartition)
{
    const Program p = trivialProgram();
    Rng rng(12);
    for (unsigned trial = 0; trial < 64; ++trial) {
        Warp w(0, 0, &p, 1 + unsigned(rng.below(warpSize)));
        expectPartition(w);
        for (unsigned step = 0; step < 48; ++step) {
            const ThreadMask m(std::uint32_t(rng.next()));
            switch (rng.below(4)) {
              case 0:
                w.killLanes(m);
                break;
              case 1: {
                // Round trip through a fresh warp: the sisnap bytes are
                // derived from the masks and rebuild them exactly.
                const std::string bytes = saved(w);
                Warp copy(0, 0, &p, warpSize);
                SnapshotReader r(bytes);
                copy.restore(r);
                EXPECT_EQ(saved(copy), bytes);
                w = copy;
                break;
              }
              default:
                w.setState(m, ThreadState(rng.below(numThreadStates)));
                break;
            }
            expectPartition(w);
        }
    }
}

TEST(Warp, WritebacksDueTogetherDrainInPushOrder)
{
    // One warp per processing block, each loading its own lines: the
    // warps that issue their LDG in the same cycle all miss, so their
    // writebacks fall due in the same cycle, pushed in block order.
    const Program p = assembleOrDie(R"(
S2R R0, TID
SHL R1, R0, 12
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
EXIT
)");
    GpuConfig cfg;
    const unsigned num_warps = cfg.pbsPerSm;
    Memory mem;
    auto make_sm = [&] {
        auto sm = std::make_unique<Sm>(0, cfg, mem, nullptr);
        for (unsigned i = 0; i < num_warps; ++i) {
            auto w = std::make_unique<Warp>(i, 0, &p, warpSize);
            w->logicalId = i;
            sm->addWarp(std::move(w));
        }
        return sm;
    };
    auto lds_issued = [&](Sm &sm) {
        unsigned n = 0;
        for (unsigned i = 0; i < num_warps; ++i)
            n += sm.warpAt(i).scoreboards().count(0, 0) != 0;
        return n;
    };

    auto sm = make_sm();
    for (Cycle now = 0; lds_issued(*sm) < num_warps; ++now) {
        ASSERT_LT(now, 1000u) << "LDGs never issued";
        sm->tick(now);
    }

    // save -> restore -> save is byte-identical.
    SnapshotWriter first;
    sm->save(first);
    const std::string bytes = first.finish();
    auto twin = make_sm();
    SnapshotReader r(bytes);
    twin->restore(r);
    SnapshotWriter second;
    twin->save(second);
    EXPECT_EQ(second.finish(), bytes);

    // Drain both queues from the head and compare.
    auto drain = [](Sm &m) {
        std::vector<std::pair<unsigned long long, unsigned>> order;
        for (std::string d; !(d = m.dropPendingWriteback()).empty();) {
            unsigned warp = 0;
            unsigned long long due = 0;
            EXPECT_EQ(std::sscanf(d.c_str(), "sm0 warp %u sb0 mask=%*x "
                                             "due cycle %llu",
                                  &warp, &due),
                      2)
                << d;
            order.emplace_back(due, warp);
        }
        return order;
    };
    const auto order = drain(*sm);
    ASSERT_EQ(order.size(), num_warps);
    EXPECT_EQ(drain(*twin), order);

    bool tie = false;
    for (std::size_t i = 1; i < order.size(); ++i) {
        ASSERT_LE(order[i - 1].first, order[i].first);
        if (order[i - 1].first == order[i].first) {
            tie = true;
            EXPECT_LT(order[i - 1].second, order[i].second)
                << "same-cycle writebacks left push order";
        }
    }
    EXPECT_TRUE(tie) << "no two writebacks fell due in the same cycle";
}
