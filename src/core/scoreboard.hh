/**
 * @file
 * Count-based scoreboards (Section III-C). The paper's SI design
 * replicates the per-warp counter set per subwarp/thread to avoid
 * aliasing across subwarps; we model the extreme point — per-thread
 * counters — for both the baseline and SI so the two modes consume
 * identical functional semantics (DESIGN.md documents this choice).
 */

#ifndef SI_CORE_SCOREBOARD_HH
#define SI_CORE_SCOREBOARD_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/sim_error.hh"
#include "common/thread_mask.hh"
#include "common/types.hh"
#include "snapshot/snapshot.hh"

namespace si {

/** Writeback path that broadcasts a scoreboard release (Figure 8b). */
enum class WbPort : std::uint8_t { Lsu, Tex };

/**
 * Per-warp file of count-based scoreboards, replicated per thread.
 * A counter is incremented when a lane issues a long-latency operation
 * tagged &wr=sbN and decremented when that operation writes back.
 * Consumers tagged &req=sbN stall until the counter reads zero.
 *
 * Next to the per-lane counts the file keeps one lane mask per
 * scoreboard, the lanes whose count is nonzero, so the readiness
 * questions the scheduler asks every evaluation are one AND per
 * required scoreboard. The counts stay the snapshot format and answer
 * maxCount(); every mutator keeps the two in step.
 */
class ScoreboardFile
{
  public:
    static constexpr unsigned numSb = numScoreboards;

    /** Largest count one lane can hold (the counters are 8-bit). */
    static constexpr std::uint8_t maxOutstanding = 255;

    ScoreboardFile() { clear(); }

    void
    clear()
    {
        for (auto &lane : counts_)
            lane.fill(0);
        busy_.fill(ThreadMask());
    }

    /**
     * Increment scoreboard @p sb for every lane in @p mask. A lane
     * already at maxOutstanding is an invalid program (more writes in
     * flight than the counter can hold): SimError(ErrorKind::Parse),
     * raised before any count changes.
     */
    void
    incr(ThreadMask mask, SbIndex sb)
    {
        for (unsigned lane : lanesOf(mask & busy_[sb])) {
            sim_throw_if(counts_[lane][sb] == maxOutstanding,
                         ErrorKind::Parse,
                         "invalid program: scoreboard sb%u overflows in "
                         "lane %u (%u writes already outstanding; a "
                         "&req=sb%u consumer must drain it)",
                         unsigned(sb), lane, unsigned(maxOutstanding),
                         unsigned(sb));
        }
        for (unsigned lane : lanesOf(mask))
            ++counts_[lane][sb];
        busy_[sb] |= mask;
    }

    /** Decrement scoreboard @p sb for every lane in @p mask; a lane
     *  already at zero stays there. */
    void
    decr(ThreadMask mask, SbIndex sb)
    {
        for (unsigned lane : lanesOf(mask & busy_[sb])) {
            if (--counts_[lane][sb] == 0)
                busy_[sb].clear(lane);
        }
    }

    /** Current count for one lane. */
    std::uint8_t
    count(unsigned lane, SbIndex sb) const
    {
        return counts_[lane][sb];
    }

    /** The lanes whose count of @p sb is nonzero. */
    ThreadMask busy(SbIndex sb) const { return busy_[sb]; }

    /**
     * True when every scoreboard in @p req_mask reads zero for every
     * lane in @p mask — the issue condition for a &req consumer.
     */
    bool
    ready(ThreadMask mask, std::uint8_t req_mask) const
    {
        return firstBlocking(mask, req_mask) == sbNone;
    }

    /**
     * The first scoreboard in @p req_mask that is still outstanding for
     * @p mask, or sbNone when all are clear. Used to fill the TST's
     * "Scbd ID" field on a subwarp-stall.
     */
    SbIndex
    firstBlocking(ThreadMask mask, std::uint8_t req_mask) const
    {
        for (unsigned bits = req_mask; bits; bits &= bits - 1) {
            const unsigned sb = std::countr_zero(bits);
            if ((busy_[sb] & mask).any())
                return SbIndex(sb);
        }
        return sbNone;
    }

    /** Max outstanding count of @p sb across @p mask (TST count field). */
    std::uint8_t
    maxCount(ThreadMask mask, SbIndex sb) const
    {
        std::uint8_t m = 0;
        for (unsigned lane : lanesOf(mask & busy_[sb]))
            m = std::max(m, counts_[lane][sb]);
        return m;
    }

    /** Serialize every per-lane counter (fixed 32x8 layout, untagged:
     *  embedded in the owning warp's section). */
    void save(SnapshotWriter &w) const { walk(*this, w); }

    /** Restore counters serialized by save(); the masks follow them. */
    void restore(SnapshotReader &r) { walk(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    walk(Self &self, Ar &ar)
    {
        ar.io(self.counts_);
        if constexpr (Ar::restoring) {
            self.busy_.fill(ThreadMask());
            for (unsigned lane = 0; lane < warpSize; ++lane) {
                for (unsigned sb = 0; sb < numSb; ++sb) {
                    if (self.counts_[lane][sb] != 0)
                        self.busy_[sb].set(lane);
                }
            }
        }
    }

    std::array<std::array<std::uint8_t, numSb>, warpSize> counts_;
    std::array<ThreadMask, numSb> busy_;
};

} // namespace si

#endif // SI_CORE_SCOREBOARD_HH
