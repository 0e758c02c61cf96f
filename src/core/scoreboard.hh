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

#include <array>
#include <cstdint>

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
 */
class ScoreboardFile
{
  public:
    static constexpr unsigned numSb = numScoreboards;

    ScoreboardFile() { clear(); }

    void
    clear()
    {
        for (auto &lane : counts_)
            lane.fill(0);
    }

    /** Increment scoreboard @p sb for every lane in @p mask. */
    void
    incr(ThreadMask mask, SbIndex sb)
    {
        for (unsigned lane : lanesOf(mask))
            ++counts_[lane][sb];
    }

    /** Decrement scoreboard @p sb for every lane in @p mask. */
    void
    decr(ThreadMask mask, SbIndex sb)
    {
        for (unsigned lane : lanesOf(mask)) {
            if (counts_[lane][sb] > 0)
                --counts_[lane][sb];
        }
    }

    /** Current count for one lane. */
    std::uint8_t
    count(unsigned lane, SbIndex sb) const
    {
        return counts_[lane][sb];
    }

    /**
     * True when every scoreboard in @p req_mask reads zero for every
     * lane in @p mask — the issue condition for a &req consumer.
     */
    bool
    ready(ThreadMask mask, std::uint8_t req_mask) const
    {
        if (!req_mask)
            return true;
        for (unsigned lane : lanesOf(mask)) {
            for (unsigned sb = 0; sb < numSb; ++sb) {
                if ((req_mask & (1u << sb)) && counts_[lane][sb] != 0)
                    return false;
            }
        }
        return true;
    }

    /**
     * The first scoreboard in @p req_mask that is still outstanding for
     * @p mask, or sbNone when all are clear. Used to fill the TST's
     * "Scbd ID" field on a subwarp-stall.
     */
    SbIndex
    firstBlocking(ThreadMask mask, std::uint8_t req_mask) const
    {
        for (unsigned sb = 0; sb < numSb; ++sb) {
            if (!(req_mask & (1u << sb)))
                continue;
            for (unsigned lane : lanesOf(mask)) {
                if (counts_[lane][sb] != 0)
                    return SbIndex(sb);
            }
        }
        return sbNone;
    }

    /** Max outstanding count of @p sb across @p mask (TST count field). */
    std::uint8_t
    maxCount(ThreadMask mask, SbIndex sb) const
    {
        std::uint8_t m = 0;
        for (unsigned lane : lanesOf(mask))
            m = std::max(m, counts_[lane][sb]);
        return m;
    }

    /** Serialize every per-lane counter (fixed 32x8 layout, untagged:
     *  embedded in the owning warp's section). */
    void
    save(SnapshotWriter &w) const
    {
        for (const auto &lane : counts_)
            for (std::uint8_t c : lane)
                w.u8(c);
    }

    /** Restore counters serialized by save(). */
    void
    restore(SnapshotReader &r)
    {
        for (auto &lane : counts_)
            for (std::uint8_t &c : lane)
                c = r.u8();
    }

  private:
    std::array<std::array<std::uint8_t, numSb>, warpSize> counts_;
};

} // namespace si

#endif // SI_CORE_SCOREBOARD_HH
