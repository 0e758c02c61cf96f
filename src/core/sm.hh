/**
 * @file
 * Sm: one streaming multiprocessor — four processing blocks with warp
 * schedulers and L0 instruction caches, a shared L1I and L1D, an RT
 * core, writeback event plumbing, and the warp-status evaluation that
 * classifies stalls for both scheduling and the paper's exposed
 * load-to-use stall metric.
 */

#ifndef SI_CORE_SM_HH
#define SI_CORE_SM_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/subwarp_scheduler.hh"
#include "core/warp.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "rtcore/rtcore.hh"
#include "trace/events.hh"

namespace si {

/** Why a warp could (or could not) issue this cycle. */
enum class WarpStatus : std::uint8_t {
    Issuable,        ///< ready to issue its next instruction
    Busy,            ///< switch or fetch penalty timer still running
    FetchStall,      ///< just initiated an instruction fetch
    ScoreboardStall, ///< load-to-use stall: &req scoreboard outstanding
    PipeStall,       ///< short-latency operand not yet ready
    WaitWakeup,      ///< no ACTIVE subwarp; all demoted subwarps pending
    Done,            ///< every lane exited
};

/** Lost warp-slots per StallReason (indexed by the reason's value). */
using StallCounts = std::array<std::uint64_t, numStallReasons>;

/**
 * Warp-cycle accounting for one MARKER-delimited kernel region, indexed
 * by the program's region-table index (0 = the implicit "_entry"). The
 * same partition identity as the SM-wide counters holds per region:
 *   warpCycles == instrsIssued + arbLossCycles + sum(stallCyclesByReason)
 */
struct RegionCounters
{
    std::uint64_t warpCycles = 0;
    std::uint64_t instrsIssued = 0;
    std::uint64_t arbLossCycles = 0;
    StallCounts stallCyclesByReason{};

    void accumulate(const RegionCounters &other);
    bool operator==(const RegionCounters &) const = default;
};

/** Aggregate statistics for one SM (and, summed, for the GPU). */
struct SmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instrsIssued = 0;
    std::uint64_t warpsRetired = 0;

    /** Cycles with zero issues across all processing blocks. */
    std::uint64_t noIssueCycles = 0;

    /** Exposed load-to-use stalls (paper Section I definition). */
    std::uint64_t exposedLoadStallCycles = 0;

    /**
     * Exposed stall cycles attributed to divergent code, weighted by
     * the fraction of memory-stalled warps whose stalling subwarp is
     * divergent in each exposed cycle.
     */
    double exposedLoadStallCyclesDivergent = 0;

    /** No-issue cycles attributable to instruction fetch. */
    std::uint64_t exposedFetchStallCycles = 0;

    /**
     * Warp-cycles spent in each blocked classification: fixed sums of
     * stallCyclesByReason (a scoreboard stall is a load-to-use,
     * barrier, or no-ready-subwarp slot).
     */
    std::uint64_t
    warpScoreboardStallCycles() const
    {
        return stallCyclesByReason[std::size_t(StallReason::LoadToUse)] +
               stallCyclesByReason[std::size_t(StallReason::Barrier)] +
               stallCyclesByReason[std::size_t(StallReason::NoReadySubwarp)];
    }
    std::uint64_t warpPipeStallCycles() const
    {
        return stallCyclesByReason[std::size_t(StallReason::Pipe)];
    }
    std::uint64_t warpFetchStallCycles() const
    {
        return stallCyclesByReason[std::size_t(StallReason::IFetch)];
    }
    std::uint64_t warpSwitchCycles() const
    {
        return stallCyclesByReason[std::size_t(StallReason::Switch)];
    }

    /** Dynamic operation mix. */
    std::uint64_t ldgIssued = 0;

    /** Global-memory transactions (unique L1D lines per LDG/TEX). */
    std::uint64_t gmemTransactions = 0;
    std::uint64_t texIssued = 0;
    std::uint64_t rtQueriesIssued = 0;
    std::uint64_t stgIssued = 0;

    /** Divergence machinery (mirrors SubwarpUnitStats at end of run). */
    std::uint64_t divergentBranches = 0;
    std::uint64_t reconvergences = 0;
    std::uint64_t subwarpSelects = 0;
    std::uint64_t subwarpStalls = 0;
    std::uint64_t subwarpWakeups = 0;
    std::uint64_t subwarpYields = 0;
    std::uint64_t tstFullDenials = 0;

    /** Cache behaviour. */
    std::uint64_t l1dHits = 0, l1dMisses = 0;
    std::uint64_t l1iHits = 0, l1iMisses = 0;
    std::uint64_t l0iHits = 0, l0iMisses = 0;

    /**
     * Warp-cycle partition (observability layer): every resident,
     * unfinished warp contributes exactly one unit per SM cycle to
     * either an issue, an arbitration loss (issuable but another warp
     * won the slot), or one of the Figure-3 stall reasons, so
     *   liveWarpCycles == instrsIssued + arbLossCycles
     *                     + sum(stallCyclesByReason)
     * holds exactly — the zero-residual base of swprof --diff. On a
     * live Sm the reason counts are the column sums of
     * Sm::stallsByPc(), folded in by liveStats().
     */
    std::uint64_t liveWarpCycles = 0;
    std::uint64_t arbLossCycles = 0;
    StallCounts stallCyclesByReason{};

    /**
     * Subwarp-mode residency: live warp-cycles split by the shape of
     * the active mask (full warp / divergent subwarp / none active).
     */
    std::uint64_t warpCyclesSubwarpFull = 0;
    std::uint64_t warpCyclesSubwarpPartial = 0;
    std::uint64_t warpCyclesSubwarpNone = 0;

    /** Per-region attribution, indexed by program region-table index. */
    std::vector<RegionCounters> regions;

    /** Accumulate another SM's statistics into this one. */
    void accumulate(const SmStats &other);

    /** Field-wise equality (the determinism validator's contract). */
    bool operator==(const SmStats &) const = default;

    /**
     * Serialize every counter, the four derived per-status words
     * included, so the serialized layout does not depend on which
     * counters are stored.
     */
    void save(SnapshotWriter &w) const;

    /**
     * Restore counters serialized by save(). Per-status words that
     * disagree with the reason counts throw SimError(ErrorKind::Snapshot).
     */
    void restore(SnapshotReader &r);
};

/**
 * One processing block: warp slots, an L0 instruction cache, and the
 * warp-scheduler arbitration state. Pure data; the issue logic lives
 * in Sm.
 */
struct ProcessingBlock
{
    explicit ProcessingBlock(const CacheConfig &l0_config)
        : l0i(l0_config)
    {
    }

    Cache l0i;
    std::vector<unsigned> resident; ///< indices into Sm::warps_
    unsigned regsInUse = 0;         ///< register-file words allocated
    unsigned lrrCursor = 0;
    int gtoCurrent = -1; ///< warp index the greedy scheduler is riding
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /**
     * @param id    SM index (stats naming)
     * @param config shared GPU configuration
     * @param memory functional memory image
     * @param scene  BVH for RTQUERY, or nullptr for compute-only kernels
     */
    Sm(unsigned id, const GpuConfig &config, Memory &memory,
       const Bvh *scene);

    /** Hand a warp to this SM; it is admitted when a slot frees up. */
    void addWarp(std::unique_ptr<Warp> warp);

    /** True when every assigned warp has retired. */
    bool done() const;

    /** Advance one core clock. */
    void tick(Cycle now);

    // ---- event-driven fast-forward (cycle leap) support ----

    /**
     * True when the last tick() neither issued an instruction nor
     * mutated any machine state (no writeback drained, no warp retired
     * or admitted, no fetch initiated, no subwarp selected or demoted).
     * Re-running such a tick at any cycle before nextEventAt() produces
     * the exact same per-cycle accounting and changes nothing, which is
     * what makes the bulk back-fill of applyQuietCycles() exact.
     */
    bool lastTickQuiet() const { return lastTickQuiet_; }

    /**
     * Earliest future cycle at which this SM's state can change: the
     * head of the writeback completion queue (which also bounds every
     * scoreboard drain, MSHR fill, and subwarp wakeup) or the earliest
     * per-warp timer expiry (switch/fetch penalty, short-latency
     * operand). invalidCycle when nothing is pending. Valid after
     * tick(); meaningful for leaping only when lastTickQuiet().
     */
    Cycle nextEventAt() const { return nextEventAt_; }

    /**
     * Bulk-apply @p n quiet cycles of accounting in one step: every
     * counter the per-cycle loop would have bumped (cycles,
     * liveWarpCycles, subwarp-mode residency, the per-pc stall table,
     * per-region stall cycles, noIssue/exposed-stall
     * cycles, TST-full denials) advances by exactly n times the last
     * tick's delta. The divergent-exposure accumulator is a double
     * that the per-cycle loop grows by repeated addition, so the
     * back-fill repeats the addition n times rather than adding n*frac
     * — bit-identical IEEE754 behaviour, not just mathematically equal.
     * Callable only while the machine is quiet (the caller leaps at
     * most to nextEventAt()); no machine state other than statistics
     * changes.
     */
    void applyQuietCycles(std::uint64_t n);

    /** Finalize statistics (fold in unit/cache counters). */
    void finalizeStats();

    /**
     * Current statistics with the unit/cache counters folded in, valid
     * at any cycle boundary — what the windowed metrics sampler reads
     * mid-run. finalizeStats() is exactly stats() = liveStats().
     */
    SmStats liveStats() const;

    // ---- fault-tolerance support ----

    /** True while a writeback (scoreboard release) is still in flight. */
    bool hasPendingWritebacks() const { return !events_.empty(); }

    /**
     * Audit every resident warp against the invariants of
     * core/invariants.hh (scoreboard release balance vs the in-flight
     * writeback queue, TST leaks, mask discipline).
     * @return empty when clean, else a violation report plus the
     *         offending warp's full state dump.
     */
    std::string auditInvariants() const;

    /** State dump of every unfinished warp (watchdog diagnostics). */
    std::string dumpState() const;

    /**
     * Fault injection: silently discard the earliest pending writeback,
     * so its scoreboard never drains. The watchdog or invariant checker
     * must catch the resulting livelock/imbalance.
     * @return a description of the dropped event, or empty when no
     *         writeback was pending.
     */
    std::string dropPendingWriteback();

    const SmStats &stats() const { return stats_; }
    SmStats &stats() { return stats_; }

    /**
     * Lost warp-slots per (pc, StallReason) since launch — the one
     * count of stall attribution. Row pc holds the slots charged to pc:
     * the active subwarp's pc or, with no ACTIVE subwarp, the first
     * valid TST entry's (the load the warp waits behind). The last row
     * holds "(no subwarp)" slots of warps with neither. Sized by
     * addWarp to the largest program plus that row; empty until a warp
     * arrives. Exact under fast-forward. Its column sums are
     * stallCyclesByReason (see liveStats()).
     */
    const std::vector<StallCounts> &stallsByPc() const
    {
        return stallsByPc_;
    }

    Cache &l1d() { return l1d_; }
    Cache &l1i() { return l1i_; }
    RtCore &rtCore() { return rtcore_; }
    const SubwarpUnit &subwarpUnit() const { return unit_; }

    /** Number of warps assigned over the run (tests). */
    std::size_t numWarps() const { return warps_.size(); }

    /** Direct warp access (tests). */
    Warp &warpAt(std::size_t i) { return *warps_[i]; }

    /**
     * Warps concurrently resident per PB under the *first* admitted
     * kernel's register demand (single-kernel launches; co-scheduled
     * launches are bounded per warp by the register-file accounting).
     */
    unsigned maxResidentPerPb() const { return maxResidentPerPb_; }

    /**
     * Serialize the complete SM: every warp, processing block, cache,
     * the writeback event queue, MSHR timers, RT core, subwarp unit,
     * statistics, and the per-pc stall table.
     */
    void save(SnapshotWriter &w) const;

    /**
     * Restore state serialized by save(). The SM must already hold the
     * same warp population (the resume path re-runs the kernel launch
     * before restoring); mismatched warp counts or ids, or a per-pc
     * table sized for another launch, throw
     * SimError(ErrorKind::Snapshot).
     */
    void restore(SnapshotReader &r);

  private:
    /** Pending writeback: a scoreboard release at a future cycle. */
    struct Writeback
    {
        Cycle when;        ///< cycle the release lands
        std::uint64_t seq; ///< push order; breaks ties within a cycle
        unsigned warpIdx;
        ThreadMask mask;
        SbIndex sb;
        WbPort port;

        /** Heap order: true when @p a drains after @p b. */
        static bool
        later(const Writeback &a, const Writeback &b)
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    void drainWritebacks(Cycle now);
    void admitWarps();

    /**
     * Classify @p warp for this cycle. Side effects: triggers subwarp
     * selection when the warp has no ACTIVE subwarp, and initiates
     * instruction fetch when the buffered PC is stale.
     */
    WarpStatus evalWarp(unsigned warp_idx, Cycle now);

    /** Issue the active subwarp's next instruction. */
    void issue(unsigned warp_idx, Cycle now);

    /** Schedule a writeback event. */
    void pushWriteback(Cycle when, unsigned warp_idx, ThreadMask mask,
                       SbIndex sb, WbPort port);

    /** Remove and return the earliest pending writeback (non-empty). */
    Writeback popWriteback();

    /**
     * Completion time of an L1D miss issued at @p now, honoring the
     * MSHR limit (config.maxOutstandingMisses): with all MSHRs busy
     * the miss queues behind the earliest-free one.
     */
    Cycle missCompletion(Cycle now, Cycle base_latency);

    /** True when the stalling subwarp(s) of @p warp are divergent. */
    bool stallIsDivergent(const Warp &warp, WarpStatus status) const;

    /**
     * Per-warp-cycle accounting shared by tick() (n = 1) and
     * applyQuietCycles() (n = skipped cycles): liveWarpCycles, the
     * subwarp-mode residency bucket, and — for non-issuable warps —
     * the per-pc and per-region stall attribution. One code path for
     * both so the per-cycle and fast-forward accountings cannot drift.
     */
    void accountWarpCycles(Warp &warp, WarpStatus status,
                           std::uint64_t n);

    /** Per-region counter slot for @p idx, growing the table on demand. */
    RegionCounters &regionAt(std::uint32_t idx);

    /** The stallsByPc_ row a lost slot of @p warp is charged to. */
    std::size_t stallRow(const Warp &warp) const;

    unsigned id_;
    const GpuConfig &config_;
    Memory &memory_;

    Cache l1d_;
    Cache l1i_;
    RtCore rtcore_;
    SubwarpUnit unit_;

    std::vector<std::unique_ptr<Warp>> warps_;
    std::deque<unsigned> pendingAdmission_;
    std::vector<ProcessingBlock> pbs_;
    /** Writeback queue: a binary min-heap under Writeback::later. */
    std::vector<Writeback> events_;
    std::uint64_t nextWbSeq_ = 0;

    unsigned maxResidentPerPb_ = 0;

    /** Per-MSHR busy-until times (empty = unlimited MSHRs). */
    std::vector<Cycle> mshrFreeAt_;

    /** Per-cycle scratch: status of each resident warp. */
    std::vector<WarpStatus> statusScratch_;

    /**
     * Per-cycle scratch: the cycle each warp's status expires on its
     * own (issueReadyAt for Busy/FetchStall, the operand ready_at for
     * PipeStall; invalidCycle for statuses that only a writeback can
     * change). Written by evalWarp, folded into nextEventAt_ by tick.
     */
    std::vector<Cycle> wakeScratch_;

    // ---- fast-forward tick classification (per-tick scratch; none of
    // this is serialized — a restored SM re-derives it on its first
    // tick, and leaps never span a checkpoint boundary) ----
    bool tickDirty_ = false;      ///< tick mutated state (set by sites)
    bool lastTickQuiet_ = false;
    Cycle nextEventAt_ = invalidCycle;
    bool ffAnyLive_ = false;      ///< last tick's any_live
    unsigned ffMemStalled_ = 0;   ///< last tick's mem_stalled_warps
    unsigned ffMemStalledDiv_ = 0;///< last tick's mem_stalled_divergent
    bool ffAnyFetch_ = false;     ///< last tick's any_fetch_stall
    std::uint64_t ffDeniedDelta_ = 0; ///< TST-full denials in last tick

    SmStats stats_;

    /** See stallsByPc(). Kept out of SmStats so sampler windows do not
     *  copy it. */
    std::vector<StallCounts> stallsByPc_;
};

} // namespace si

#endif // SI_CORE_SM_HH
