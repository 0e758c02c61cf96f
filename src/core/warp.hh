/**
 * @file
 * Warp: architectural and scheduling state for one 32-thread warp,
 * including the per-thread status state machine of Figure 7 and the
 * thread status table (TST) of Figure 8.
 */

#ifndef SI_CORE_WARP_HH
#define SI_CORE_WARP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "core/scoreboard.hh"
#include "isa/program.hh"

namespace si {

/**
 * Per-thread status (paper Figure 7). STALLED exists only when Subwarp
 * Interleaving is enabled.
 */
enum class ThreadState : std::uint8_t {
    Inactive, ///< not yet launched or exited
    Active,   ///< member of the currently executing subwarp
    Ready,    ///< runnable but not selected (divergence or yield)
    Blocked,  ///< waiting at a BSYNC convergence barrier
    Stalled,  ///< SI: demoted on a load-to-use stall, awaiting wakeup
};

inline constexpr unsigned numThreadStates =
    unsigned(ThreadState::Stalled) + 1;

/** One thread status table entry (Figure 8a): a tracked stalled subwarp. */
struct TstEntry
{
    bool valid = false;
    ThreadMask members;      ///< lanes binned into this entry
    std::uint32_t pc = 0;    ///< subwarp PC at demotion
    SbIndex sbId = sbNone;   ///< scoreboard the subwarp stalled on
    std::uint8_t sbCount = 0;///< outstanding count recorded at demotion
};

/**
 * All state for one warp. The divergence and SI transition logic lives
 * in SubwarpScheduler (core/subwarp_scheduler.hh); this class is the
 * state it operates on, plus the architectural register/predicate files.
 */
class Warp
{
  public:
    static constexpr unsigned numBarriers = si::numBarriers;

    /**
     * @param id        global warp id
     * @param pb        processing-block index within the SM
     * @param program   kernel to execute
     * @param num_threads lanes active at launch (normally 32)
     */
    Warp(unsigned id, unsigned pb, const Program *program,
         unsigned num_threads);

    // ---- identity ----
    unsigned id() const { return id_; }
    unsigned pb() const { return pb_; }
    const Program &program() const { return *program_; }

    // ---- architectural state ----

    std::uint32_t
    reg(unsigned lane, RegIndex r) const
    {
        if (r == regNone)
            return 0; // RZ
        return regs_[std::size_t(r) * warpSize + lane];
    }

    void
    setReg(unsigned lane, RegIndex r, std::uint32_t v)
    {
        if (r == regNone)
            return;
        regs_[std::size_t(r) * warpSize + lane] = v;
    }

    bool
    predicate(unsigned lane, PredIndex p) const
    {
        if (p == predNone)
            return true; // PT
        return preds_[lane] & (1u << p);
    }

    void
    setPredicate(unsigned lane, PredIndex p, bool v)
    {
        if (p == predNone)
            return;
        if (v)
            preds_[lane] |= std::uint8_t(1u << p);
        else
            preds_[lane] &= std::uint8_t(~(1u << p));
    }

    // ---- thread status (Figure 7 state machine data) ----
    //
    // Stored as one lane mask per ThreadState; the five masks partition
    // the 32 lanes, so every "which lanes are in state s" query is a
    // single load and every transition is one mask move.

    /** State of one lane (derived from the masks). */
    ThreadState state(unsigned lane) const;

    /** Move every lane in @p m to state @p s. */
    void
    setState(ThreadMask m, ThreadState s)
    {
        for (ThreadMask &lanes : lanes_)
            lanes -= m;
        lanes_[std::size_t(s)] |= m;
    }

    std::uint32_t pc(unsigned lane) const { return pc_[lane]; }
    void setPc(unsigned lane, std::uint32_t pc) { pc_[lane] = pc; }

    /** Set every lane of @p m to @p pc. */
    void
    setPc(ThreadMask m, std::uint32_t pc)
    {
        for (unsigned lane : lanesOf(m))
            pc_[lane] = pc;
    }

    /** Lanes not yet exited: everything outside the INACTIVE mask. */
    ThreadMask
    live() const
    {
        return ThreadMask::full() -
               lanes_[std::size_t(ThreadState::Inactive)];
    }

    /** Exit the lanes in @p m (they become INACTIVE). */
    void killLanes(ThreadMask m) { setState(m, ThreadState::Inactive); }

    /** Lanes currently in a given state. */
    ThreadMask
    lanesInState(ThreadState s) const
    {
        return lanes_[std::size_t(s)];
    }

    /** The currently executing subwarp (lanes in Active). */
    ThreadMask activeMask() const { return lanesInState(ThreadState::Active); }

    /** PC shared by the active subwarp; invalid when none active. */
    std::uint32_t
    activePc() const
    {
        ThreadMask a = activeMask();
        return a.any() ? pc_[a.lowest()] : 0;
    }

    /** True when every lane has exited. */
    bool done() const { return live().empty(); }

    /** The lanes of @p m whose PC is @p pc. */
    ThreadMask lanesAtPc(ThreadMask m, std::uint32_t pc) const;

    // ---- convergence barriers ----
    ThreadMask barrier(BarIndex b) const { return barriers_[b]; }
    void setBarrier(BarIndex b, ThreadMask m) { barriers_[b] = m; }

    /** Barrier a BLOCKED thread is waiting on (barNone otherwise). */
    BarIndex blockedOn(unsigned lane) const { return blockedOn_[lane]; }
    void setBlockedOn(unsigned lane, BarIndex b) { blockedOn_[lane] = b; }

    // ---- scoreboards ----
    ScoreboardFile &scoreboards() { return sb_; }
    const ScoreboardFile &scoreboards() const { return sb_; }

    // ---- thread status table ----
    std::vector<TstEntry> &tst() { return tst_; }
    const std::vector<TstEntry> &tst() const { return tst_; }

    /** Number of valid (occupied) TST entries. */
    unsigned tstOccupancy() const;

    // ---- short-latency dependency tracking ----

    Cycle
    regReadyAt(RegIndex r) const
    {
        return r == regNone ? 0 : regReady_[r];
    }

    void
    setRegReadyAt(RegIndex r, Cycle c)
    {
        if (r != regNone)
            regReady_[r] = c;
    }

    Cycle predReadyAt(PredIndex p) const
    {
        return p == predNone ? 0 : predReady_[p];
    }

    void
    setPredReadyAt(PredIndex p, Cycle c)
    {
        if (p != predNone)
            predReady_[p] = c;
    }

    // ---- scheduling timers and counters ----

    /** Earliest cycle the warp may issue again (switch/fetch penalties). */
    Cycle issueReadyAt = 0;

    /** True when the current issue delay is an instruction-fetch stall. */
    bool inFetchStall = false;

    /** Long-latency ops issued since the last subwarp activation. */
    unsigned longOpsSinceSwitch = 0;

    /** Round-robin cursor for subwarp-select. */
    std::uint32_t selectCursor = 0;

    /** Scheduler bookkeeping: last cycle this warp issued. */
    Cycle lastIssueCycle = 0;

    /**
     * A TstFull event has fired since a stall demotion last found a
     * free TST entry: later denials stay silent (edge-triggered), so no
     * trace event repeats on quiet cycles.
     */
    bool tstFullSignalled = false;

    /** PC whose instruction is resident in the per-warp fetch buffer. */
    std::uint32_t fetchedPc = 0xffffffffu;

    /**
     * Metrics region the warp is currently attributed to: an index into
     * its program's region-name table, retagged by executing MARKER.
     * Index 0 is the implicit "_entry" region.
     */
    std::uint32_t currentRegion = 0;

    /** CTA this warp belongs to (S2R CTAID). */
    unsigned ctaId = 0;

    /**
     * Warp index *within its kernel launch* (S2R TID/WARPID read this,
     * not the GPU-global id, exactly as each launch has its own thread
     * id space on real hardware). Defaults to the global id for
     * single-kernel launches.
     */
    unsigned logicalId = 0;

    /** Reassign the processing block at admission time. */
    void setPb(unsigned pb) { pb_ = pb; }

    /**
     * Serialize every architectural and scheduling field. The program
     * pointer is NOT serialized — the resume path reconstructs warps
     * from the same kernel launch and verifies program identity via
     * source fingerprints before calling restore().
     */
    void save(SnapshotWriter &w) const;

    /** Restore state serialized by save(); warp id and register-file
     *  geometry must match this warp's construction. */
    void restore(SnapshotReader &r);

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    unsigned id_;
    unsigned pb_;
    const Program *program_;

    std::vector<std::uint32_t> regs_; ///< numRegs x 32, register-major
    std::array<std::uint8_t, warpSize> preds_{};
    std::array<ThreadMask, numThreadStates> lanes_{}; ///< by ThreadState
    std::array<std::uint32_t, warpSize> pc_{};
    std::array<ThreadMask, numBarriers> barriers_{};
    std::array<BarIndex, warpSize> blockedOn_{};
    ScoreboardFile sb_;
    std::vector<TstEntry> tst_;
    std::array<Cycle, 256> regReady_{};
    std::array<Cycle, 8> predReady_{};
};

} // namespace si

#endif // SI_CORE_WARP_HH
