/** @file SubwarpUnit: the Figure 7 state machine transitions. */

#include <gtest/gtest.h>

#include "core/subwarp_scheduler.hh"
#include "isa/builder.hh"

using namespace si;

namespace {

class SubwarpUnitTest : public ::testing::Test
{
  protected:
    SubwarpUnitTest()
        : program_(makeProgram()), warp_(0, 0, &program_, warpSize)
    {
        config_.siEnabled = true;
        config_.switchLatency = 6;
    }

    static Program
    makeProgram()
    {
        KernelBuilder kb("unit");
        for (int i = 0; i < 63; ++i)
            kb.nop();
        kb.exit();
        return kb.build(32);
    }

    SubwarpUnit &
    unit()
    {
        if (!unit_)
            unit_ = std::make_unique<SubwarpUnit>(config_, 1);
        return *unit_;
    }

    GpuConfig config_;
    Program program_;
    Warp warp_;
    std::unique_ptr<SubwarpUnit> unit_;
};

} // namespace

TEST_F(SubwarpUnitTest, DivergeSplitsActiveSet)
{
    config_.divergeOrder = DivergeOrder::NotTakenFirst;
    const ThreadMask taken = ThreadMask::firstN(8);
    unit().diverge(warp_, taken, 40, 11);

    // Fall-through side stays active at pc 11.
    EXPECT_EQ(warp_.activeMask().count(), 24u);
    EXPECT_EQ(warp_.activePc(), 11u);
    // Taken side becomes ready at pc 40.
    EXPECT_EQ(warp_.lanesInState(ThreadState::Ready), taken);
    EXPECT_EQ(warp_.lanesAtPc(taken, 40), taken);
    EXPECT_EQ(unit().stats().divergentBranches, 1u);
}

TEST_F(SubwarpUnitTest, DivergeTakenFirstKeepsTakenActive)
{
    config_.divergeOrder = DivergeOrder::TakenFirst;
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    EXPECT_EQ(warp_.activeMask(), ThreadMask::firstN(8));
    EXPECT_EQ(warp_.activePc(), 40u);
}

TEST_F(SubwarpUnitTest, BsyncBlocksUntilAllArrive)
{
    // Register everyone in B2, then split.
    warp_.setBarrier(2, ThreadMask::full());
    unit().diverge(warp_, ThreadMask::firstN(16), 30, 10);
    // Active side (16..31 at pc 10) walks to the BSYNC at pc 20.
    for (unsigned l = 16; l < 32; ++l)
        warp_.setPc(l, 20);
    EXPECT_FALSE(unit().arriveBsync(warp_, 2, 20, 100));
    // It blocked; the ready subwarp (0..15) was selected with latency.
    EXPECT_EQ(warp_.activeMask(), ThreadMask::firstN(16));
    EXPECT_EQ(warp_.issueReadyAt, 106u);
    EXPECT_EQ(unit().stats().subwarpSelects, 1u);

    // The second subwarp arrives: convergence.
    for (unsigned l = 0; l < 16; ++l)
        warp_.setPc(l, 20);
    EXPECT_TRUE(unit().arriveBsync(warp_, 2, 20, 200));
    EXPECT_EQ(warp_.activeMask().count(), 32u);
    EXPECT_EQ(warp_.activePc(), 21u);
    EXPECT_TRUE(warp_.barrier(2).empty());
    EXPECT_EQ(unit().stats().reconvergences, 1u);
}

TEST_F(SubwarpUnitTest, BsyncWithDeadParticipantsSucceeds)
{
    warp_.setBarrier(0, ThreadMask::full());
    unit().diverge(warp_, ThreadMask::firstN(16), 30, 10);
    // The ready half dies without reaching the barrier (EXIT path);
    // model the kill directly on the warp state.
    warp_.killLanes(ThreadMask::firstN(16));

    warp_.setState(ThreadMask::full() - ThreadMask::firstN(16),
                   ThreadState::Active);
    for (unsigned l = 16; l < 32; ++l)
        warp_.setPc(l, 20);
    EXPECT_TRUE(unit().arriveBsync(warp_, 0, 20, 0));
    EXPECT_EQ(warp_.activePc(), 21u);
}

TEST_F(SubwarpUnitTest, ExitReleasesBarrierWhenLastRunnerDies)
{
    warp_.setBarrier(1, ThreadMask::full());
    unit().diverge(warp_, ThreadMask::firstN(16), 30, 10);
    // Active half blocks at the barrier.
    for (unsigned l = 16; l < 32; ++l)
        warp_.setPc(l, 20);
    EXPECT_FALSE(unit().arriveBsync(warp_, 1, 20, 0));
    // Ready half (now active) runs to EXIT instead of the barrier.
    EXPECT_EQ(warp_.activeMask(), ThreadMask::firstN(16));
    unit().exitLanes(warp_, warp_.activeMask(), 50);

    // Blocked threads must be released or the warp deadlocks.
    EXPECT_EQ(warp_.activeMask().count(), 16u);
    EXPECT_EQ(warp_.activePc(), 21u);
    EXPECT_EQ(unit().stats().barrierReleasesOnExit, 1u);
}

TEST_F(SubwarpUnitTest, SubwarpStallDemotesAndSelects)
{
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    // Active subwarp (24 lanes at pc 11) stalls on scoreboard 3.
    warp_.scoreboards().incr(warp_.activeMask(), 3);
    EXPECT_TRUE(unit().subwarpStall(warp_, 1u << 3, 100));

    EXPECT_EQ(unit().stats().subwarpStalls, 1u);
    EXPECT_EQ(warp_.lanesInState(ThreadState::Stalled).count(), 24u);
    // The ready subwarp took over.
    EXPECT_EQ(warp_.activeMask(), ThreadMask::firstN(8));
    EXPECT_EQ(warp_.issueReadyAt, 106u);
    // TST entry recorded.
    ASSERT_GE(warp_.tstOccupancy(), 1u);
    const TstEntry &e = warp_.tst()[0];
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.sbId, 3);
    EXPECT_EQ(e.pc, 11u);
    EXPECT_EQ(e.sbCount, 1);
}

TEST_F(SubwarpUnitTest, StallRequiresReadySibling)
{
    warp_.scoreboards().incr(warp_.activeMask(), 0);
    EXPECT_FALSE(unit().subwarpStall(warp_, 1u, 0));
    EXPECT_EQ(unit().stats().subwarpStalls, 0u);
}

TEST_F(SubwarpUnitTest, StallDeniedWhenTstFull)
{
    config_.maxSubwarps = 1;
    // Three-way divergence: 8 taken, then 8 of the rest taken again.
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    ThreadMask second;
    for (unsigned l = 8; l < 16; ++l)
        second.set(l);
    unit().diverge(warp_, second, 50, 12);

    warp_.scoreboards().incr(warp_.activeMask(), 0);
    EXPECT_TRUE(unit().subwarpStall(warp_, 1u, 0)); // uses the only entry

    warp_.scoreboards().incr(warp_.activeMask(), 1);
    EXPECT_FALSE(unit().subwarpStall(warp_, 1u << 1, 0)); // denied
    EXPECT_EQ(unit().stats().stallDemotionsDeniedTstFull, 1u);
}

TEST_F(SubwarpUnitTest, WakeupPromotesStalledToReady)
{
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    const ThreadMask stalled_set = warp_.activeMask();
    warp_.scoreboards().incr(stalled_set, 3);
    ASSERT_TRUE(unit().subwarpStall(warp_, 1u << 3, 0));

    // Wakeup on the wrong scoreboard does nothing.
    unit().wakeup(warp_, 2);
    EXPECT_EQ(warp_.lanesInState(ThreadState::Stalled), stalled_set);

    // Drain the counter, then broadcast: entry wakes.
    warp_.scoreboards().decr(stalled_set, 3);
    unit().wakeup(warp_, 3);
    EXPECT_TRUE(warp_.lanesInState(ThreadState::Stalled).empty());
    EXPECT_EQ(unit().stats().subwarpWakeups, 1u);
    EXPECT_EQ(warp_.tstOccupancy(), 0u);
}

TEST_F(SubwarpUnitTest, WakeupWaitsForFullDrain)
{
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    const ThreadMask stalled_set = warp_.activeMask();
    warp_.scoreboards().incr(stalled_set, 3);
    warp_.scoreboards().incr(stalled_set, 3); // two outstanding
    ASSERT_TRUE(unit().subwarpStall(warp_, 1u << 3, 0));

    warp_.scoreboards().decr(stalled_set, 3);
    unit().wakeup(warp_, 3);
    EXPECT_EQ(warp_.lanesInState(ThreadState::Stalled), stalled_set);

    warp_.scoreboards().decr(stalled_set, 3);
    unit().wakeup(warp_, 3);
    EXPECT_TRUE(warp_.lanesInState(ThreadState::Stalled).empty());
}

TEST_F(SubwarpUnitTest, YieldSwitchesToDifferentSubwarp)
{
    config_.yieldEnabled = true;
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    const ThreadMask was_active = warp_.activeMask();
    EXPECT_TRUE(unit().subwarpYield(warp_, 10));
    EXPECT_EQ(warp_.activeMask(), ThreadMask::firstN(8));
    // Yielded subwarp is READY, not STALLED.
    EXPECT_EQ(warp_.lanesInState(ThreadState::Ready), was_active);
    EXPECT_EQ(unit().stats().subwarpYields, 1u);
}

TEST_F(SubwarpUnitTest, YieldRefusedWithoutAlternative)
{
    config_.yieldEnabled = true;
    EXPECT_FALSE(unit().subwarpYield(warp_, 0));
    EXPECT_EQ(warp_.activeMask().count(), 32u);
}

TEST_F(SubwarpUnitTest, YieldDisabledIsNoop)
{
    config_.yieldEnabled = false;
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    EXPECT_FALSE(unit().subwarpYield(warp_, 0));
}

TEST_F(SubwarpUnitTest, SelectRoundRobinAcrossPcs)
{
    // Three ready groups at pcs 10, 20, 30; nothing active.
    warp_.setState(ThreadMask::full(), ThreadState::Ready);
    for (unsigned l = 0; l < 32; ++l)
        warp_.setPc(l, 10 + 10 * (l / 11));
    EXPECT_TRUE(unit().select(warp_, 0));
    EXPECT_EQ(warp_.activePc(), 10u);

    warp_.setState(warp_.activeMask(), ThreadState::Ready);
    EXPECT_TRUE(unit().select(warp_, 0));
    EXPECT_EQ(warp_.activePc(), 20u); // cursor advanced past 10

    warp_.setState(warp_.activeMask(), ThreadState::Ready);
    EXPECT_TRUE(unit().select(warp_, 0));
    EXPECT_EQ(warp_.activePc(), 30u);

    warp_.setState(warp_.activeMask(), ThreadState::Ready);
    EXPECT_TRUE(unit().select(warp_, 0));
    EXPECT_EQ(warp_.activePc(), 10u); // wraps
}

TEST_F(SubwarpUnitTest, SelectNoopWhenActiveExists)
{
    EXPECT_FALSE(unit().select(warp_, 0));
}

TEST_F(SubwarpUnitTest, StallDisabledWithoutSi)
{
    config_.siEnabled = false;
    unit().diverge(warp_, ThreadMask::firstN(8), 40, 11);
    warp_.scoreboards().incr(warp_.activeMask(), 0);
    EXPECT_FALSE(unit().subwarpStall(warp_, 1u, 0));
}
