/**
 * @file
 * Simulator configuration: the Table I architecture parameters, the SI
 * policy knobs from Sections III and V, and the timing constants of the
 * fixed-latency memory stub.
 */

#ifndef SI_CORE_CONFIG_HH
#define SI_CORE_CONFIG_HH

#include <functional>
#include <limits>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "rtcore/rtcore.hh"
#include "trace/events.hh"

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
 * Optional hook called before the SMs tick. The fault-injection harness
 * (src/fault) uses it to corrupt machine state at a chosen cycle; the
 * watchdog and invariant checker must then catch the damage. It returns
 * its horizon pin: the earliest cycle at which it must be called again,
 * which no leap passes. invalidCycle means never again; a value at or
 * below the current cycle means every cycle.
 */
using FaultHook = std::function<Cycle(Gpu &, Cycle)>;

/**
 * Optional checkpoint hook, called at the top of every run-loop
 * iteration — a cycle boundary where no SM has ticked yet, so
 * Gpu::save() captures a state the resume path can re-enter bit-exactly.
 * It decides itself whether to save at this cycle and, like FaultHook,
 * returns its horizon pin. checkpointEvery() (core/gpu.hh) is the
 * periodic schedule; the determinism validator freezes one mid-run
 * state by pinning the one cycle it saves at.
 */
using CheckpointHook = std::function<Cycle(const Gpu &, Cycle)>;

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
     * no warp due and no writeback landing before a known future
     * cycle, advance the clock to that event horizon in one step: open
     * warp spans run on to it and the SM-level counters advance in
     * closed form. Every stat, metrics window, snapshot, and golden
     * table is bit-identical to the per-cycle run, so this is a pure
     * wall-clock optimization and is on by default. A leap stops at
     * every invariant-audit and metrics-window boundary and at the
     * checkpoint and fault hooks' pins, so those observers fire at the
     * cycles a per-cycle run fires them. Trace sinks and the race
     * sanitizer need no pin: neither fires on a quiet cycle.
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
     * ErrorKind::InvariantViolation instead of drifting silently. With
     * the checker on, a zero interval is a Config error.
     */
    bool checkInvariants = false;
    std::uint64_t invariantCheckInterval = 1024;

    /** Fault-injection hook (null = disabled; see FaultHook). */
    FaultHook faultHook;

    /** Checkpoint hook (null = disabled; see CheckpointHook). */
    CheckpointHook checkpointHook;

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

    /**
     * Throw SimError(ErrorKind::Config) at the first row out of range
     * (see walk) or broken cross-field rule: SI without a TST entry,
     * the invariant audit at interval 0, a bad cache geometry.
     */
    void validate() const;

    /**
     * The field list, in configFingerprint order: per value field the
     * key, the member, its valid range (none: any value) and whether
     * configFingerprint hashes it. Observers get no row. @p v provides
     * row(key, member, lo, hi[, fp]), row(key, member[, fp]) and
     * constant(key, value).
     */
    template <class Self, class V>
    static void walk(Self &c, V &v);
};

/** Whether a GpuConfig row enters configFingerprint. */
enum class Fingerprint : bool { Skip, Hash };

/** The largest latency: clock plus latencies stays far from wrapping. */
inline constexpr Cycle maxLatency = std::numeric_limits<std::uint32_t>::max();

/** The most MSHRs or RT pipes: per-SM clocks allocated up front. */
inline constexpr unsigned maxUnitsPerSm = 1u << 16;

/** The largest cache: its tag array is allocated per SM up front. */
inline constexpr std::uint64_t maxCacheBytes = std::uint64_t(1) << 24;

/** The most bytes all SMs' cache tag arrays may take together. */
inline constexpr std::uint64_t maxTagArrayBytes = std::uint64_t(1) << 28;

template <class Self, class V>
void
GpuConfig::walk(Self &c, V &v)
{
    v.row("numSms", c.numSms, 1, traceMaxSms);
    v.row("pbsPerSm", c.pbsPerSm, 1, traceMaxPbs);
    v.row("warpSlotsPerPb", c.warpSlotsPerPb, 1, ~0u);
    v.row("regFilePerPb", c.regFilePerPb);
    v.row("l1d.name", c.l1d.name);
    v.row("l1d.sizeBytes", c.l1d.sizeBytes, 0, maxCacheBytes);
    v.row("l1d.lineBytes", c.l1d.lineBytes);
    v.row("l1d.assoc", c.l1d.assoc);
    v.row("l1i.name", c.l1i.name);
    v.row("l1i.sizeBytes", c.l1i.sizeBytes, 0, maxCacheBytes);
    v.row("l1i.lineBytes", c.l1i.lineBytes);
    v.row("l1i.assoc", c.l1i.assoc);
    v.row("l0i.name", c.l0i.name);
    v.row("l0i.sizeBytes", c.l0i.sizeBytes, 0, maxCacheBytes);
    v.row("l0i.lineBytes", c.l0i.lineBytes);
    v.row("l0i.assoc", c.l0i.assoc);
    v.row("lat.alu", c.lat.alu, 0, maxLatency);
    v.row("lat.heavyAlu", c.lat.heavyAlu, 0, maxLatency);
    v.row("lat.transcendental", c.lat.transcendental, 0, maxLatency);
    v.row("lat.constLoad", c.lat.constLoad, 0, maxLatency);
    v.row("lat.l1Hit", c.lat.l1Hit, 0, maxLatency);
    v.row("lat.l1Miss", c.lat.l1Miss, 0, maxLatency);
    v.row("lat.texBase", c.lat.texBase, 0, maxLatency);
    v.row("lat.l0iMiss", c.lat.l0iMiss, 0, maxLatency);
    v.row("lat.l1iMiss", c.lat.l1iMiss, 0, maxLatency);
    v.row("rtc.baseLatency", c.rtc.baseLatency, 0, maxLatency);
    // Times a traversal's node count (< 2^32), the charge fits Cycle.
    v.row("rtc.cyclesPerNode", c.rtc.cyclesPerNode, 0.0f, 65536.0f);
    v.row("rtc.numPipes", c.rtc.numPipes, 1, maxUnitsPerSm);
    // A fixed constant, in its old config slot so fingerprints (and
    // with them sisnap bytes) do not move.
    v.constant("numScoreboards", numScoreboards);
    v.row("maxOutstandingMisses", c.maxOutstandingMisses, 0, maxUnitsPerSm);
    v.row("siEnabled", c.siEnabled);
    v.row("yieldEnabled", c.yieldEnabled);
    v.row("yieldThreshold", c.yieldThreshold);
    v.row("trigger", c.trigger, SelectTrigger::AnyStalled,
          SelectTrigger::AllStalled);
    // One entry per stalled subwarp, and a warp has warpSize lanes.
    v.row("maxSubwarps", c.maxSubwarps, 0, warpSize);
    v.row("switchLatency", c.switchLatency, 0, maxLatency);
    v.row("dwsEnabled", c.dwsEnabled);
    // Timing-neutral by construction, so snapshots transfer across modes.
    v.row("fastForward", c.fastForward, Fingerprint::Skip);
    v.row("sched", c.sched, SchedPolicy::LRR, SchedPolicy::GTO);
    v.row("divergeOrder", c.divergeOrder, DivergeOrder::NotTakenFirst,
          DivergeOrder::HintStallFirst);
    v.row("rngSeed", c.rngSeed);
    v.row("maxCycles", c.maxCycles);
    v.row("livelockCycles", c.livelockCycles);
    v.row("checkInvariants", c.checkInvariants);
    v.row("invariantCheckInterval", c.invariantCheckInterval);
}

} // namespace si

#endif // SI_CORE_CONFIG_HH
