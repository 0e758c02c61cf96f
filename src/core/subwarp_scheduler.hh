/**
 * @file
 * SubwarpUnit: the divergence-handling logic of a Turing-like SM plus
 * the Subwarp Interleaving extensions (paper Section III).
 *
 * Baseline transitions (Figure 7, black): divergence on a branch leaves
 * one subwarp ACTIVE and moves the rest to READY; BSYNC blocks a subwarp
 * until every barrier participant has arrived (or exited); subwarp-select
 * promotes a READY subwarp when nothing is ACTIVE.
 *
 * SI additions (Figure 7, color): subwarp-stall demotes the ACTIVE
 * subwarp to STALLED on a load-to-use stall, recording the blocking
 * scoreboard in a thread status table entry; subwarp-wakeup returns
 * STALLED threads to READY when the scoreboard drains; subwarp-yield
 * eagerly relinquishes the slot after issuing long-latency work.
 */

#ifndef SI_CORE_SUBWARP_SCHEDULER_HH
#define SI_CORE_SUBWARP_SCHEDULER_HH

#include <cstdint>

#include "common/rng.hh"
#include "core/config.hh"
#include "core/warp.hh"
#include "trace/events.hh"

namespace si {

/** Counters the unit maintains; aggregated into SmStats. */
struct SubwarpUnitStats
{
    std::uint64_t divergentBranches = 0;
    std::uint64_t reconvergences = 0;
    std::uint64_t subwarpSelects = 0;
    std::uint64_t subwarpStalls = 0;
    std::uint64_t subwarpWakeups = 0;
    std::uint64_t subwarpYields = 0;
    std::uint64_t barrierReleasesOnExit = 0;
    std::uint64_t stallDemotionsDeniedTstFull = 0;
};

/**
 * Divergence handling + subwarp scheduler for one SM. Stateless across
 * warps except for policy config, RNG, and statistics, so a single
 * instance serves all processing blocks of an SM.
 */
class SubwarpUnit
{
  public:
    /** @param sm_id host SM index, stamped into emitted trace events. */
    SubwarpUnit(const GpuConfig &config, std::uint64_t rng_seed,
                unsigned sm_id = 0);

    /**
     * Record a divergent branch: the ACTIVE subwarp of @p warp split
     * into @p taken (continuing at @p taken_pc) and the rest
     * (continuing at @p fallthrough_pc). One side stays ACTIVE per the
     * configured DivergeOrder; the other becomes READY.
     */
    void diverge(Warp &warp, ThreadMask taken, std::uint32_t taken_pc,
                 std::uint32_t fallthrough_pc, std::int8_t stall_hint = 0,
                 Cycle now = 0);

    /**
     * The ACTIVE subwarp executed BSYNC @p bar at @p sync_pc.
     * @return true when the barrier converged (all participants resume
     *         together past the BSYNC); false when the subwarp blocked,
     *         in which case a READY subwarp is selected if available.
     */
    bool arriveBsync(Warp &warp, BarIndex bar, std::uint32_t sync_pc,
                     Cycle now);

    /**
     * Lanes in @p kill (a subset of the ACTIVE subwarp) executed EXIT.
     * Kills the lanes, releases any barrier whose surviving
     * participants are all blocked, and selects a successor subwarp
     * when no ACTIVE lane survives.
     */
    void exitLanes(Warp &warp, ThreadMask kill, Cycle now);

    /**
     * SI subwarp-stall: demote the ACTIVE subwarp (stalled on the
     * scoreboards in @p req_mask) to STALLED and select a READY
     * successor. Fails when SI is off, no READY subwarp exists, or all
     * TST entries are occupied (the binning limit of Section V-C-3).
     * Every TST-full denial is counted; only the first since a
     * demotion last found a free entry emits TstFull
     * (Warp::tstFullSignalled).
     * @return true when the demotion happened.
     */
    bool subwarpStall(Warp &warp, std::uint8_t req_mask, Cycle now);

    /**
     * SI subwarp-yield: move the ACTIVE subwarp to READY and select a
     * different READY subwarp. @return true when a switch happened.
     */
    bool subwarpYield(Warp &warp, Cycle now);

    /**
     * Scoreboard writeback broadcast (Figure 8b): decrement matching
     * TST entries of @p warp and wake entries whose dependences have
     * fully drained.
     */
    void wakeup(Warp &warp, SbIndex sb, Cycle now = 0);

    /**
     * Promote a READY subwarp to ACTIVE when nothing is ACTIVE.
     * Round-robin across READY PCs; charges the subwarp switch latency.
     * @param avoid_pc optional PC to avoid (yield semantics).
     * @return true when a subwarp was activated.
     */
    bool select(Warp &warp, Cycle now,
                std::uint32_t avoid_pc = 0xffffffffu);

    const SubwarpUnitStats &stats() const { return stats_; }

    /**
     * Fast-forward back-fill: credit @p n TST-full demotion denials
     * without re-running the denied subwarpStall() attempts. A quiet
     * cycle attempts every demotion candidate of every triggered PB
     * once and each is denied (the TST cannot drain without a
     * writeback), so a leap credits that count per skipped cycle (see
     * Sm::applyQuietCycles). A repeated denial emits no event, so
     * skipping the attempts drops nothing from the trace stream.
     */
    void addDeniedDemotions(std::uint64_t n)
    {
        stats_.stallDemotionsDeniedTstFull += n;
    }

    /** Serialize the RNG stream position and the stat counters. */
    void save(SnapshotWriter &w) const { walk(*this, w); }

    /** Restore state serialized by save(). */
    void restore(SnapshotReader &r) { walk(*this, r); }

  private:
    template <class Self, class Ar>
    static void
    walk(Self &self, Ar &ar)
    {
        ar.tag(SnapTag::SubwarpUnit);
        std::array<std::uint64_t, 4> rng = self.rng_.state();
        ar.io(rng);
        if constexpr (Ar::restoring)
            self.rng_.setState(rng);
        auto &s = self.stats_;
        ar.io(s.divergentBranches, s.reconvergences, s.subwarpSelects,
              s.subwarpStalls, s.subwarpWakeups, s.subwarpYields,
              s.barrierReleasesOnExit, s.stallDemotionsDeniedTstFull);
    }

    /** Release barrier @p bar of @p warp: all live participants resume. */
    void releaseBarrier(Warp &warp, BarIndex bar, Cycle now);

    /** Trace event stamped with this unit's SM and @p warp's identity. */
    TraceEvent
    makeEvent(const Warp &warp, TraceEventKind kind, Cycle now,
              std::uint32_t pc = 0, std::uint32_t mask = 0,
              std::uint32_t mask2 = 0, std::uint32_t arg = 0) const
    {
        TraceEvent ev;
        ev.cycle = now;
        ev.pc = pc;
        ev.mask = mask;
        ev.mask2 = mask2;
        ev.arg = arg;
        ev.warpId = std::uint16_t(warp.id());
        ev.smId = std::uint8_t(smId_);
        ev.pb = std::uint8_t(warp.pb());
        ev.kind = kind;
        return ev;
    }

    const GpuConfig &config_;
    Rng rng_;
    unsigned smId_;
    SubwarpUnitStats stats_;
};

} // namespace si

#endif // SI_CORE_SUBWARP_SCHEDULER_HH
