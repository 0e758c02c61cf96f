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
#include <bit>
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
 * What one row of a statistics field list (regionStatFields,
 * smStatFields) holds, and with it how the row is folded across SMs,
 * differenced per metrics window, serialized and listed in si-stats-v1.
 */
enum class StatKind : std::uint8_t {
    Sum,     ///< u64 member, summed across SMs
    Max,     ///< u64 member, the max across SMs
    Real,    ///< f64 member, summed; listed only through a formula
    Derived, ///< u64 word derived from the per-reason counts: saved
             ///< (checked on restore) and listed, never stored
    Reasons, ///< StallCounts member, one entry per StallReason
};

/**
 * One row of a statistics field list: its si-stats-v1 key (for Reasons
 * the prefix of the per-reason keys) and the member it names.
 */
template <class S>
struct StatField
{
    constexpr StatField(const char *k, std::uint64_t S::*m,
                        StatKind fold = StatKind::Sum)
        : kind(fold), key(k), u64(m)
    {
    }
    constexpr StatField(const char *k, double S::*m)
        : kind(StatKind::Real), key(k), f64(m)
    {
    }
    constexpr StatField(const char *k, std::uint64_t (S::*fn)() const)
        : kind(StatKind::Derived), key(k), derived(fn)
    {
    }
    constexpr StatField(const char *k, StallCounts S::*m)
        : kind(StatKind::Reasons), key(k), reasons(m)
    {
    }

    /** The u64 a Sum, Max or Derived row holds in @p s. */
    std::uint64_t
    word(const S &s) const
    {
        return kind == StatKind::Derived ? (s.*derived)() : s.*u64;
    }

    StatKind kind;
    const char *key;
    std::uint64_t S::*u64 = nullptr;
    double S::*f64 = nullptr;
    std::uint64_t (S::*derived)() const = nullptr;
    StallCounts S::*reasons = nullptr;
};

/**
 * out = op(kind, a, b) member by member over every stored row of
 * @p fields (a Reasons row entry by entry): the one loop behind
 * accumulate() and the metrics windows' deltas.
 */
template <class S, std::size_t N, class Op>
void
zipStatFields(const StatField<S> (&fields)[N], S &out, const S &a,
              const S &b, Op op)
{
    for (const StatField<S> &f : fields) {
        if (f.kind == StatKind::Real) {
            out.*f.f64 = op(f.kind, a.*f.f64, b.*f.f64);
        } else if (f.kind == StatKind::Reasons) {
            for (std::size_t k = 0; k < numStallReasons; ++k)
                (out.*f.reasons)[k] =
                    op(f.kind, (a.*f.reasons)[k], (b.*f.reasons)[k]);
        } else if (f.kind != StatKind::Derived) {
            out.*f.u64 = op(f.kind, a.*f.u64, b.*f.u64);
        }
    }
}

/**
 * Bytes of S the rows of @p fields store, or 0 when two rows name the
 * same stored member. Checked against sizeof(S) below, so a member
 * added without its row fails to compile. (Derived rows store nothing;
 * member-function pointers are not compared, which sanitizer builds
 * cannot do at compile time.)
 */
template <class S, std::size_t N>
constexpr std::size_t
storedBytes(const StatField<S> (&fields)[N])
{
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const StatField<S> &f = fields[i];
        if (f.kind == StatKind::Derived)
            continue;
        for (std::size_t j = 0; j < i; ++j) {
            const StatField<S> &g = fields[j];
            if (f.u64 == g.u64 && f.f64 == g.f64 && f.reasons == g.reasons)
                return 0;
        }
        bytes += f.kind == StatKind::Reasons ? sizeof(StallCounts) : 8;
    }
    return bytes;
}

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

/** RegionCounters' field list, in sisnap and si-stats-v1 order. */
inline constexpr StatField<RegionCounters> regionStatFields[] = {
    {"warp_cycles", &RegionCounters::warpCycles},
    {"instrs_issued", &RegionCounters::instrsIssued},
    {"arb_loss_cycles", &RegionCounters::arbLossCycles},
    {"stall_cycles", &RegionCounters::stallCyclesByReason},
};
static_assert(sizeof(RegionCounters) == storedBytes(regionStatFields),
              "every RegionCounters member needs one regionStatFields row");

/**
 * Aggregate statistics for one SM (and, summed, for the GPU). Every
 * counter has one row in smStatFields below; the region table has its
 * own, regionStatFields.
 */
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
 * SmStats' field list, in sisnap order, which is also the order of the
 * statsReport / si-stats-v1 scalars. accumulate(), statsDelta(), save(),
 * restore() and both listings loop over it; a new counter is one member
 * plus one row here (and, since the sisnap layout changes, a format
 * bump).
 */
inline constexpr StatField<SmStats> smStatFields[] = {
    {"cycles", &SmStats::cycles, StatKind::Max},
    {"instrs_issued", &SmStats::instrsIssued},
    {"warps_retired", &SmStats::warpsRetired},
    {"no_issue_cycles", &SmStats::noIssueCycles},
    {"exposed_load_stall_cycles", &SmStats::exposedLoadStallCycles},
    {"exposed_load_stall_cycles_divergent",
     &SmStats::exposedLoadStallCyclesDivergent},
    {"exposed_fetch_stall_cycles", &SmStats::exposedFetchStallCycles},
    {"warp_scoreboard_stall_cycles", &SmStats::warpScoreboardStallCycles},
    {"warp_pipe_stall_cycles", &SmStats::warpPipeStallCycles},
    {"warp_fetch_stall_cycles", &SmStats::warpFetchStallCycles},
    {"warp_switch_cycles", &SmStats::warpSwitchCycles},
    {"ldg_issued", &SmStats::ldgIssued},
    {"gmem_transactions", &SmStats::gmemTransactions},
    {"tex_issued", &SmStats::texIssued},
    {"rt_queries_issued", &SmStats::rtQueriesIssued},
    {"stg_issued", &SmStats::stgIssued},
    {"divergent_branches", &SmStats::divergentBranches},
    {"reconvergences", &SmStats::reconvergences},
    {"subwarp_selects", &SmStats::subwarpSelects},
    {"subwarp_stalls", &SmStats::subwarpStalls},
    {"subwarp_wakeups", &SmStats::subwarpWakeups},
    {"subwarp_yields", &SmStats::subwarpYields},
    {"tst_full_denials", &SmStats::tstFullDenials},
    {"l1d_hits", &SmStats::l1dHits},
    {"l1d_misses", &SmStats::l1dMisses},
    {"l1i_hits", &SmStats::l1iHits},
    {"l1i_misses", &SmStats::l1iMisses},
    {"l0i_hits", &SmStats::l0iHits},
    {"l0i_misses", &SmStats::l0iMisses},
    {"live_warp_cycles", &SmStats::liveWarpCycles},
    {"arb_loss_cycles", &SmStats::arbLossCycles},
    {"stall_cycles", &SmStats::stallCyclesByReason},
    {"warp_cycles_subwarp_full", &SmStats::warpCyclesSubwarpFull},
    {"warp_cycles_subwarp_partial", &SmStats::warpCyclesSubwarpPartial},
    {"warp_cycles_subwarp_none", &SmStats::warpCyclesSubwarpNone},
};
static_assert(sizeof(SmStats) == storedBytes(smStatFields) +
                                     sizeof(std::vector<RegionCounters>),
              "every SmStats counter needs one smStatFields row");

/**
 * One bit per resident position of a processing block: ascending bit
 * order is ProcessingBlock::resident order. Sized to the resident list
 * whenever that list changes (admission and retirement compaction).
 */
class PosMask
{
  public:
    static constexpr std::size_t npos = ~std::size_t(0);

    void reset(std::size_t n) { words_.assign((n + 63) / 64, 0); }
    void assign(std::size_t i, bool v)
    {
        const std::uint64_t bit = std::uint64_t(1) << (i % 64);
        words_[i / 64] = v ? words_[i / 64] | bit : words_[i / 64] & ~bit;
    }
    bool test(std::size_t i) const { return words_[i / 64] >> (i % 64) & 1; }
    bool any() const { return next(0) != npos; }

    /** Number of set positions. */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (std::uint64_t w : words_)
            n += std::size_t(std::popcount(w));
        return n;
    }

    /** Lowest set position at or after @p from; npos when none. */
    std::size_t
    next(std::size_t from) const
    {
        for (std::size_t k = from / 64; k < words_.size(); ++k) {
            std::uint64_t w = words_[k];
            if (k == from / 64)
                w &= ~std::uint64_t(0) << (from % 64);
            if (w)
                return k * 64 + std::size_t(std::countr_zero(w));
        }
        return npos;
    }

  private:
    std::vector<std::uint64_t> words_;
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

    // ---- running totals over the residents' cached statuses (see
    // Sm::WarpSpan); never serialized, re-derived after a restore ----
    unsigned live = 0;    ///< residents not Done
    unsigned stalled = 0; ///< ScoreboardStall or WaitWakeup residents
    PosMask issuable;     ///< Issuable residents
    PosMask demotable;    ///< ScoreboardStall residents with a READY subwarp
    Cycle nextDue = 0;    ///< no resident is due before this cycle
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

    /**
     * Advance one core clock. Only warps with a due event are
     * re-evaluated (see WarpSpan); the rest keep their cached status.
     */
    void tick(Cycle now);

    // ---- event-driven fast-forward (cycle leap) support ----

    /**
     * Event horizon after the last tick(): the minimum of the writeback
     * queue's head (which also bounds every scoreboard drain, MSHR fill
     * and subwarp wakeup) and every PB's nextDue, read after the tick's
     * issue and demotion arms. Every cycle before it ticks identically:
     * an issue or a successful demotion arms its warp for the next
     * cycle, and a drained writeback, an admission, a select or a fetch
     * re-evaluates its warp within the tick. invalidCycle when nothing
     * is pending (and once the SM is done).
     */
    Cycle nextEventAt() const { return nextEventAt_; }

    /**
     * Leap @p n cycles short of nextEventAt(), which all tick alike.
     * Every open warp span simply runs on to the horizon (it is charged
     * when it closes), so only the SM-level counters advance: cycles,
     * the no-issue and exposed-stall cycles from the running totals,
     * and one TST-full denial per demotion candidate of every triggered
     * PB per cycle. The caller leaps at most to nextEventAt(); no
     * machine state other than statistics changes.
     */
    void applyQuietCycles(std::uint64_t n);

    /**
     * Finalize statistics: charge every open warp span up to the clock
     * (restarting it there) and fold in unit/cache counters.
     * Idempotent; afterwards stats() == liveStats().
     */
    void finalizeStats();

    /**
     * Current statistics with the open warp spans and the unit/cache
     * counters folded in, valid at any cycle boundary — what the
     * windowed metrics sampler reads mid-run.
     */
    SmStats liveStats() const;

    // ---- fault-tolerance support ----

    /** True while a writeback (scoreboard release) is still in flight. */
    bool hasPendingWritebacks() const { return !events_.empty(); }

    /**
     * Audit every resident warp against the invariants of
     * core/invariants.hh (scoreboard release balance vs the in-flight
     * writeback queue, TST leaks, mask discipline), and the stale-cache
     * oracle: a warp not due at the next tick must classify to exactly
     * its cached status and span, with no side effect pending, and the
     * running totals must match the cached statuses.
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

    /**
     * Raw counters. Warp-cycle counters (liveWarpCycles, residency,
     * stall and region cycles) lag by the open spans until
     * finalizeStats(); liveStats() is exact at any cycle boundary.
     */
    const SmStats &stats() const { return stats_; }
    SmStats &stats() { return stats_; }

    /**
     * Lost warp-slots per (pc, StallReason) since launch — the one
     * count of stall attribution. Row pc holds the slots charged to pc:
     * the active subwarp's pc or, with no ACTIVE subwarp, the first
     * valid TST entry's (the load the warp waits behind). The last row
     * holds "(no subwarp)" slots of warps with neither. Sized by
     * addWarp to the largest program plus that row; empty until a warp
     * arrives. Exact under fast-forward once finalizeStats() has
     * charged the open spans. Its column sums are stallCyclesByReason
     * (see liveStats()).
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

    /**
     * Direct warp access (tests, fault injection). Mutable access
     * re-arms the warp: its status is re-derived at the next tick, so
     * an outside mutation is seen exactly when per-cycle evaluation
     * would see it.
     */
    Warp &
    warpAt(std::size_t i)
    {
        arm(unsigned(i), 0);
        return *warps_[i];
    }
    const Warp &warpAt(std::size_t i) const { return *warps_[i]; }

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
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

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

    /** What evalWarp must do before a warp's status holds. */
    enum class EvalAction : std::uint8_t { None, Select, Fetch };

    /** classifyWarp's answer for one warp at one cycle. */
    struct Verdict
    {
        WarpStatus status;
        /** Cycle the status expires by itself; invalidCycle when only
         *  an event (writeback, issue, demotion) can change it. */
        Cycle wakeAt = invalidCycle;
        EvalAction action = EvalAction::None;
    };

    /** Subwarp-mode residency bucket of a warp-cycle. */
    enum class Residency : std::uint8_t { Full, Partial, None };

    /**
     * A warp's cached status and the span of cycles it has held it.
     * The span opened at @c start, at the last evaluation that changed
     * its charge; each of its cycles charges exactly @c charge, which
     * was recorded then. It stays valid until @c dueAt (the status's own expiry) or
     * an event re-arms the warp: a writeback landing on it, its issue,
     * a stall demotion, admission, retirement, or mutable warpAt()
     * access. Skip invariant: a warp is skipped only when evalWarp
     * would return the same status and charge and have no side effect.
     */
    struct WarpSpan
    {
        /** What each cycle of the span charges. */
        struct Charge
        {
            WarpStatus status = WarpStatus::Done; ///< Done charges nothing
            StallReason reason = StallReason::LoadToUse;
            Residency residency = Residency::Full;
            bool divergent = false; ///< a divergent memory stall
            bool demotable = false; ///< ScoreboardStall, READY subwarp
            std::uint32_t region = 0;
            std::uint32_t row = 0; ///< stallsByPc_ row

            bool operator==(const Charge &) const = default;
        };

        Charge charge;
        Cycle start = 0;         ///< first cycle of the span
        Cycle dueAt = 0;         ///< next cycle evalWarp must run
        std::uint32_t pos = 0;   ///< index in its PB's resident list
    };

    /** Make warp @p warp_idx due for re-evaluation no later than @p at. */
    void
    arm(unsigned warp_idx, Cycle at)
    {
        WarpSpan &sp = spans_[warp_idx];
        sp.dueAt = std::min(sp.dueAt, at);
        Cycle &pb_due = pbs_[warps_[warp_idx]->pb()].nextDue;
        pb_due = std::min(pb_due, at);
    }

    void drainWritebacks(Cycle now);

    /**
     * Recycle the slots of warps that retired last tick (only when one
     * did), then admit pending warps. A head that did not fit is not
     * retried until a retirement frees room: a failed attempt changes
     * nothing, and while the queue is blocked addWarp() can only
     * append behind the same head.
     */
    void admitWarps(Cycle now);

    /** Re-index a PB's resident positions and rebuild its masks. */
    void reindex(ProcessingBlock &pb);

    /**
     * The status definition: classify @p warp at @p now with no side
     * effect, naming the select or fetch evalWarp must do first. The
     * status given with a fetch holds if it hits in L0I; a miss makes
     * it FetchStall.
     */
    Verdict classifyWarp(const Warp &warp, Cycle now) const;

    /** classifyWarp plus its side effects (subwarp select, fetch). */
    Verdict evalWarp(unsigned warp_idx, Cycle now);

    /**
     * Initiate the instruction fetch of the active PC through
     * L0I -> L1I. @return true when it hit in L0I (no fetch stall).
     */
    bool fetch(Warp &warp, Cycle now);

    /**
     * Re-evaluate a due warp. A changed charge closes its span at
     * @p now, charging it, and opens the next one, keeping the running
     * totals.
     */
    void reevaluate(ProcessingBlock &pb, unsigned warp_idx, Cycle now);

    /** Charge @p span up to @p now and drop it from the totals. */
    void closeSpan(ProcessingBlock &pb, const WarpSpan &span, Cycle now);

    /** The charge of one cycle of @p warp under @p status. */
    WarpSpan::Charge chargeOf(const Warp &warp, WarpStatus status) const;

    /** Add @p span to (or remove it from) the running totals. */
    void tally(ProcessingBlock &pb, const WarpSpan &span, bool add);

    /** Warp the PB's scheduler issues this cycle (some is issuable). */
    unsigned pickWarp(ProcessingBlock &pb);

    /**
     * SI: true when @p pb's selection trigger fires this cycle (the
     * stalled-warp policy, then the DWS free-slot gate). demote() and
     * the leap's denial back-fill both ask it.
     */
    bool demotionTriggered(const ProcessingBlock &pb) const;

    /** SI: the policy-gated subwarp-stall demotion of a PB with a
     *  demotion candidate. */
    void demote(ProcessingBlock &pb, Cycle now);

    /**
     * Charge @p n cycles of a span: liveWarpCycles, the residency
     * bucket and, for a lost slot, the region and @p stalls, which is
     * the span's stallsByPc row (or one per-reason array when folding
     * into a copy of the statistics).
     */
    static void accountWarpCycles(const WarpSpan::Charge &c,
                                  std::uint64_t n, SmStats &s,
                                  StallCounts &stalls);

    /** Cycles the open span of warp @p warp_idx covers at the clock. */
    std::uint64_t openCycles(unsigned warp_idx) const;

    /**
     * SM-level exposure of @p n cycles without an issue (paper
     * Section I), read from the running totals.
     */
    void accountNoIssueCycles(std::uint64_t n);

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

    /** Per warp (indexed like warps_): cached status and open span. */
    std::vector<WarpSpan> spans_;

    // ---- SM-level running totals (see ProcessingBlock for per-PB) ----
    unsigned liveWarps_ = 0;         ///< assigned warps not yet done
    unsigned memStalledDivergent_ = 0; ///< divergent memory stalls
    unsigned fetchStalled_ = 0;      ///< FetchStall residents
    bool retiring_ = false;          ///< a warp retired; compact slots
    bool admissionBlocked_ = false;  ///< the queue head did not fit

    /**
     * Scan position of the current tick: warps before (cutPb_,
     * cutPos_) have been charged this cycle. A tick cut short by a
     * SimError leaves it mid-way, so folds charge exactly the warps a
     * per-cycle scan had reached; between ticks it is past the end.
     */
    unsigned cutPb_ = 0;
    std::size_t cutPos_ = 0;

    /** See nextEventAt(). Not serialized: a restored SM re-derives it
     *  on its first tick, and leaps never span a checkpoint boundary. */
    Cycle nextEventAt_ = invalidCycle;

    SmStats stats_;

    /** See stallsByPc(). Kept out of SmStats so sampler windows do not
     *  copy it. */
    std::vector<StallCounts> stallsByPc_;
};

} // namespace si

#endif // SI_CORE_SM_HH
