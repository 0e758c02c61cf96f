/**
 * @file
 * Simulator configuration: the Table I architecture parameters, the SI
 * policy knobs from Sections III and V, and the timing constants of the
 * fixed-latency memory stub.
 */

#ifndef SI_CORE_CONFIG_HH
#define SI_CORE_CONFIG_HH

#include <functional>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "rtcore/rtcore.hh"

namespace si {

class Gpu;
class RaceHooks;
class TraceSink;
class SnapshotWriter;
class SnapshotReader;

/**
 * Abstract per-cycle metrics observer, installed via
 * GpuConfig::metricsSampler. The run loop calls onCycle() at the top of
 * every iteration (a cycle boundary: no SM has ticked yet, matching the
 * checkpoint hook's firing point) and finish() once after the loop
 * ends. The interface lives here, not in src/metrics, so the core never
 * depends on the metrics layer; MetricsSampler (metrics/sampler.hh) is
 * the in-tree implementation. Samplers are read-only observers — they
 * must not mutate machine state — and participate in checkpoints
 * through save()/restore() (the SnapTag::Metrics section), so a
 * resumed run reproduces the exact window series of an uninterrupted
 * one.
 */
class CycleSampler
{
  public:
    virtual ~CycleSampler() = default;

    /** Called at the top of every run-loop iteration. */
    virtual void onCycle(const Gpu &gpu, Cycle now) = 0;

    /** Called once after the run loop ends; flushes the open window. */
    virtual void finish(const Gpu &gpu, Cycle now) = 0;

    /**
     * Latest cycle the fast-forward engine may leap to without this
     * sampler observing an intermediate boundary (see DESIGN.md, the
     * event-horizon contract). A sampler that needs onCycle() at every
     * window edge returns the next edge at or after @p now; returning
     * @p now pins the horizon and disables leaping entirely — the safe
     * default for samplers the core knows nothing about. Returning
     * invalidCycle imposes no constraint.
     */
    virtual Cycle horizonPin(Cycle now) const { return now; }

    /** Serialize sampler state into a checkpoint. */
    virtual void save(SnapshotWriter &w) const = 0;

    /** Restore state serialized by save(). */
    virtual void restore(SnapshotReader &r) = 0;
};

/**
 * Optional per-cycle hook called before the SMs tick. The fault-injection
 * harness (src/fault) uses it to corrupt machine state at a chosen cycle;
 * the watchdog and invariant checker must then catch the damage.
 */
using FaultHook = std::function<void(Gpu &, Cycle)>;

/**
 * Optional cancellation poll, checked every cancelCheckInterval cycles.
 * Returning true aborts the run with ErrorKind::WallClock — the
 * mechanism behind runWorkloadSafe()'s wall-clock timeout.
 */
using CancelHook = std::function<bool()>;

/**
 * Optional checkpoint hook, fired every checkpointInterval cycles at the
 * top of the run loop — a cycle boundary where no SM has ticked yet, so
 * Gpu::save() captures a state the resume path can re-enter bit-exactly.
 * The campaign runner uses it for periodic auto-checkpoints; the
 * determinism validator uses it to freeze a mid-run state to replay.
 */
using CheckpointHook = std::function<void(const Gpu &, Cycle)>;

/**
 * When subwarp-select may demote a stalled ACTIVE subwarp, expressed as
 * the paper's knob over N = fraction of stalled warps among live warps
 * in a processing block (Section III-C-3).
 */
enum class SelectTrigger {
    AnyStalled,  ///< N > 0: any live warp stalled
    HalfStalled, ///< N >= 0.5: at least half of the live warps stalled
    AllStalled,  ///< N = 1: every live warp stalled
};

/** Warp scheduler arbitration policy. */
enum class SchedPolicy {
    LRR, ///< loose round-robin
    GTO, ///< greedy-then-oldest
};

/**
 * Which side of a divergent branch keeps executing (Discussion point 3:
 * subwarp execution order matters and could be randomized).
 */
enum class DivergeOrder {
    NotTakenFirst,  ///< fall-through path stays ACTIVE (compiler default)
    TakenFirst,     ///< taken path stays ACTIVE
    Random,         ///< randomized per divergence event
    HintStallFirst, ///< software stall hints pick the side (Discussion
                    ///< item 3 + isa/stall_hints.hh); falls back to
                    ///< NotTakenFirst on unhinted branches
};

/** Fixed-latency timing constants. */
struct LatencyConfig
{
    Cycle alu = 4;            ///< short ALU result latency
    Cycle heavyAlu = 5;       ///< IMUL/IMAD/FFMA
    Cycle transcendental = 16;///< FRCP/FSQRT
    Cycle constLoad = 8;      ///< LDC
    Cycle l1Hit = 32;         ///< LDG hitting in L1D
    Cycle l1Miss = 600;       ///< the paper's swept parameter {300,600,900}
    Cycle texBase = 40;       ///< texture pipe cost added to the L1D path
    Cycle l0iMiss = 20;       ///< L0I miss, L1I hit
    Cycle l1iMiss = 120;      ///< L0I and L1I miss
};

/** Full GPU configuration (defaults = the paper's Turing-like baseline). */
struct GpuConfig
{
    // ---- Table I architecture parameters ----
    unsigned numSms = 2;
    unsigned pbsPerSm = 4;
    unsigned warpSlotsPerPb = 8;

    /** 32-bit registers per processing block (64K per SM / 4 PBs). */
    unsigned regFilePerPb = 16384;

    CacheConfig l1d{"l1d", 128 * 1024, 128, 8};
    CacheConfig l1i{"l1i", 64 * 1024, 128, 8};
    CacheConfig l0i{"l0i", 16 * 1024, 128, 4};

    LatencyConfig lat;
    RtCoreConfig rtc;

    /** Count-based scoreboards per warp. */
    unsigned numScoreboards = 8;

    /**
     * Outstanding L1D misses an SM can sustain (0 = unlimited, the
     * paper's stub model). Nonzero values bound memory-level
     * parallelism: further misses queue behind a free MSHR, which is
     * the headwind SI's extra in-flight loads run into on a real
     * memory system (ablation knob, not a paper parameter).
     */
    unsigned maxOutstandingMisses = 0;

    // ---- Subwarp Interleaving knobs (Section III) ----

    /** Master enable: false = baseline SIMT serialization. */
    bool siEnabled = false;

    /** Enable subwarp-yield ("Both" configurations in Section V). */
    bool yieldEnabled = false;

    /** Long-latency issues since activation before an auto-yield. */
    unsigned yieldThreshold = 2;

    /** Policy knob for when subwarp-select may fire. */
    SelectTrigger trigger = SelectTrigger::HalfStalled;

    /** Thread status table entries == max concurrently stalled subwarps. */
    unsigned maxSubwarps = 32;

    /** Fixed subwarp switch cost (Section III-C-3). */
    Cycle switchLatency = 6;

    /**
     * Dynamic Warp Subdivision comparator (Meng et al., ISCA 2010 —
     * the paper's Related Work VII-B). Approximated on this
     * infrastructure as: stalled subwarps may be demoted only while a
     * *free warp slot* exists in the processing block to host the
     * split (DWS forks divergent subwarps into real warp slots), with
     * no subwarp switch latency (each split occupies its own slot) and
     * no TST budget. Use harness withDws() to build a DWS config.
     */
    bool dwsEnabled = false;

    /**
     * Event-driven fast-forward ("cycle leap"): when a tick ends with
     * no issuable warp and no state-changing work pending before a
     * known future cycle, advance the clock to the next-event horizon
     * in one step: open warp spans run on to it and the SM-level
     * counters advance in closed form. Every stat, metrics window,
     * snapshot, and golden table is bit-identical to the per-cycle
     * run, so this is a pure wall-clock optimization and is on by
     * default. Automatically
     * pinned back to per-cycle ("faithful") execution when an observer
     * that needs every cycle is attached: a fault-injection hook or the
     * race sanitizer. A trace sink does not pin it: no trace event
     * fires on a quiet cycle. Excluded from configFingerprint —
     * timing-neutral by construction, so snapshots transfer across
     * modes.
     */
    bool fastForward = true;

    // ---- scheduling policies ----
    SchedPolicy sched = SchedPolicy::GTO;
    DivergeOrder divergeOrder = DivergeOrder::NotTakenFirst;
    std::uint64_t rngSeed = 1;

    // ---- fault tolerance (forward progress, audits, injection) ----

    /**
     * Runaway cap: fail the run with ErrorKind::CycleLimit when the
     * kernel exceeds this many cycles (it keeps issuing but never
     * finishes — e.g. an infinite loop).
     */
    std::uint64_t maxCycles = 200'000'000;

    /**
     * Forward-progress watchdog: when no instruction retires anywhere on
     * the GPU for this many consecutive cycles *and* no writeback is in
     * flight, nothing can ever wake the machine — fail the run with
     * ErrorKind::Livelock and a full state dump. Legitimate long stalls
     * (misses queued behind MSHRs, RT queries) always have a pending
     * writeback, so they do not trip this. Must exceed every fixed
     * latency (switch, fetch, transcendental); 0 disables.
     */
    std::uint64_t livelockCycles = 50'000;

    /**
     * Opt-in invariant checker: every invariantCheckInterval cycles,
     * audit scoreboard release balance against in-flight writebacks,
     * thread-status-table entry leaks, and per-lane state/mask
     * discipline. A violation fails the run with
     * ErrorKind::InvariantViolation instead of drifting silently.
     */
    bool checkInvariants = false;
    std::uint64_t invariantCheckInterval = 1024;

    /** Fault-injection hook, called once per cycle (null = disabled). */
    FaultHook faultHook;

    /** Cancellation poll for wall-clock budgets (null = disabled). */
    CancelHook cancelHook;
    std::uint64_t cancelCheckInterval = 8192;

    /** Checkpoint hook (null = disabled; see CheckpointHook). */
    CheckpointHook checkpointHook;

    /** Cycles between checkpointHook firings (0 = disabled). */
    std::uint64_t checkpointInterval = 0;

    /**
     * Trace event consumer (null = tracing off). Non-owning; must
     * outlive the run. Receives the typed event stream defined in
     * trace/events.hh — instruction issues, subwarp state transitions,
     * cache traffic, watchdog and fault-injection events — each
     * stamped with cycle/SM/PB/warp.
     */
    TraceSink *traceSink = nullptr;

    /**
     * Windowed metrics sampler (null = off). Non-owning; must outlive
     * the run. Called every cycle before the SMs tick; see CycleSampler.
     * Excluded from configFingerprint like the other hooks — sampling
     * never perturbs the simulation.
     */
    CycleSampler *metricsSampler = nullptr;

    /**
     * Dynamic race sanitizer (null = off). Non-owning; must outlive the
     * run. Receives every global-memory access at issue time plus the
     * subwarp synchronization edges (BSYNC reconvergence, barrier
     * release) — see race/hooks.hh. Works on baseline and SI schedules
     * alike; swsim --race and difftest --race attach a
     * race::RaceDetector here.
     */
    RaceHooks *raceHooks = nullptr;

    /** Total warp slots per SM (paper sweeps {8, 16, 32}). */
    unsigned
    warpSlotsPerSm() const
    {
        return pbsPerSm * warpSlotsPerPb;
    }
};

} // namespace si

#endif // SI_CORE_CONFIG_HH
