/**
 * @file
 * Gpu: the top-level simulator object. Owns the SMs, distributes warps,
 * runs the clock loop, and aggregates results.
 */

#ifndef SI_CORE_GPU_HH
#define SI_CORE_GPU_HH

#include <memory>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "core/sm.hh"

namespace si {

class SnapshotWriter;
class SnapshotReader;

/** Kernel launch geometry. */
struct LaunchParams
{
    unsigned numWarps = 8;
    unsigned warpsPerCta = 4;
};

/** One kernel of a multi-queue (async compute) co-scheduled launch. */
struct KernelLaunch
{
    const Program *program;
    LaunchParams launch;
};

/** PcStall::pc of slots lost with no pc to charge ("(no subwarp)"). */
inline constexpr std::uint32_t noSubwarpPc = 0xffffffffu;

/** Lost warp-slots charged to one (pc, StallReason) pair. */
struct PcStall
{
    std::uint32_t pc;
    StallReason reason;
    std::uint64_t slots;

    bool operator==(const PcStall &) const = default;
};

/** Outcome of one kernel simulation. */
struct GpuResult
{
    Cycle cycles = 0;       ///< kernel runtime (max over SMs)
    RunStatus status;       ///< why the run ended (ok, or a failure)
    SmStats total;          ///< statistics summed over SMs (partial on
                            ///< failure: everything up to the error)
    std::vector<SmStats> perSm;

    /**
     * The nonzero cells of the SMs' per-pc stall tables
     * (Sm::stallsByPc()), summed over SMs, ordered by pc then reason,
     * with "(no subwarp)" slots last under noSubwarpPc. Kept sparse
     * because results outlive runs, by the hundred in a sweep. The
     * slots of each reason sum to total.stallCyclesByReason.
     */
    std::vector<PcStall> stallsByPc;

    /** True when the kernel ran to completion. */
    bool ok() const { return status.ok(); }

    /** Sum of per-SM active cycles (the normalizer for SM metrics). */
    std::uint64_t
    smCycleSum() const
    {
        std::uint64_t sum = 0;
        for (const auto &s : perSm)
            sum += s.cycles;
        return sum;
    }

    /** Exposed load-to-use stalls normalized to kernel time (Fig. 3). */
    double
    exposedStallFraction() const
    {
        const std::uint64_t norm = smCycleSum();
        return norm ? double(total.exposedLoadStallCycles) / double(norm)
                    : 0;
    }

    /** Divergent exposed stalls normalized to kernel time (Fig. 3). */
    double
    divergentStallFraction() const
    {
        const std::uint64_t norm = smCycleSum();
        return norm ? double(total.exposedLoadStallCyclesDivergent) /
                          double(norm)
                    : 0;
    }
};

/**
 * A complete GPU: config.numSms SMs sharing a functional memory image
 * and (optionally) a scene BVH served by per-SM RT cores.
 */
class Gpu
{
  public:
    /** Store the inputs; nothing is checked or built until a run. */
    Gpu(const GpuConfig &config, Memory &memory,
        const Bvh *scene = nullptr);

    /**
     * Execute @p program to completion (or a watchdog limit).
     * Warps are distributed round-robin across SMs; SMs admit them to
     * processing blocks as occupancy allows.
     */
    GpuResult run(const Program &program, const LaunchParams &launch);

    /**
     * Co-schedule several kernels, as asynchronous compute queues do
     * (paper Sections II-B / V-C-2 / VII-B): warps from all kernels
     * interleave into the same warp slots, contending for slots and
     * register-file space. Runs until every kernel completes.
     *
     * Each call builds a fresh machine from the config, launches the
     * warps and runs the clock loop. Given @p checkpoint (a sisnap
     * container), it resumes a run frozen by the checkpoint hook
     * instead: the launch of @p kernels must match the checkpointed
     * one (programs are verified by source fingerprint, never
     * serialized), all machine state is overwritten from the container,
     * and the clock loop continues from the checkpointed cycle,
     * bit-exact with a run that was never interrupted.
     *
     * This is the run boundary: errors do not escape as exceptions.
     * Machine and launch validation failures, corrupt or mismatched
     * checkpoints, barrier deadlocks, livelocks, and invariant
     * violations unwind the run and come back in GpuResult::status,
     * with whatever statistics had accumulated up to the failure.
     */
    GpuResult runMulti(const std::vector<KernelLaunch> &kernels,
                       const std::string *checkpoint = nullptr);

    /**
     * Serialize the complete machine into @p writer: config and kernel
     * fingerprints, clock-loop counters, the functional memory image,
     * and every SM. Valid at any cycle boundary (the checkpoint hook's
     * firing point).
     */
    void save(SnapshotWriter &writer) const;

    /**
     * Fast-forward diagnostics: leaps taken and cycles skipped by the
     * event-driven cycle-leap engine this run (0 when
     * GpuConfig::fastForward is off).
     * Wall-clock instrumentation only — never serialized and never
     * part of statistics, so fast-forwarded and per-cycle runs stay
     * byte-identical everywhere that matters.
     */
    std::uint64_t fastForwardLeaps() const { return ffLeaps_; }
    std::uint64_t fastForwardCyclesSkipped() const { return ffSkipped_; }

    /** Access an SM (tests; const form for mid-run samplers). The SMs
     *  exist once a run has built the machine, and outlive the run. */
    Sm &sm(unsigned i) { return *sms_[i]; }
    const Sm &sm(unsigned i) const { return *sms_[i]; }
    unsigned numSms() const { return unsigned(sms_.size()); }

    /** The effective configuration (hooks like fault injection use the
     *  installed trace sink through this). */
    const GpuConfig &config() const { return config_; }

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    /**
     * Validate the machine shape and @p kernels, build the SMs,
     * distribute the warps across them and, given @p checkpoint,
     * restore the container over the launched machine.
     */
    void launchMachine(const std::vector<KernelLaunch> &kernels,
                       const std::string *checkpoint);

    /**
     * Restore state serialized by save(). Warps must already exist (the
     * resume path re-runs the launch first); config or kernel
     * fingerprint mismatches throw SimError(ErrorKind::Snapshot).
     */
    void restore(SnapshotReader &reader);

    /** The clock loop; runs until done. A watchdog (cycle cap,
     *  livelock, invariant audit) ends it by throwing SimError. */
    void runLoop();

    /** True when every SM has retired all its warps. */
    bool allDone() const;

    /** Watchdog trace stamp + per-SM stats folding (nothing when the
     *  machine failed to build). */
    void finalize(GpuResult &result);

    const GpuConfig config_; ///< copied: callers may reuse/modify theirs
    Memory &memory_;
    const Bvh *scene_;
    std::vector<std::unique_ptr<Sm>> sms_;

    /** The active launch (programs not owned); save() fingerprints it. */
    std::vector<KernelLaunch> kernels_;

    /**
     * Cycle-leap step after the tick at now_ - 1: when the earliest
     * Sm::nextEventAt() lies past now_, clamp it to the watchdog
     * deadlines, the sampler's and the audit's boundaries and
     * @p hook_pin (the lesser of the checkpoint and fault hooks' returns
     * this iteration) and advance now_ to it in one step;
     * Sm::applyQuietCycles advances each SM's counters while its open
     * warp spans run on. @p events_pending is the loop's
     * hasPendingWritebacks() disjunction for this iteration.
     */
    void maybeFastForward(Cycle hook_pin, bool events_pending);

    // Run-loop state, members so a checkpoint can capture and a resume
    // re-enter the loop mid-run (see runLoop()).
    Cycle now_ = 0;
    std::uint64_t lastIssued_ = 0;
    Cycle lastProgress_ = 0;

    // Fast-forward diagnostics (not serialized; see fastForwardLeaps).
    std::uint64_t ffLeaps_ = 0;
    std::uint64_t ffSkipped_ = 0;
};

/**
 * FNV-1a fingerprint over the Fingerprint::Hash rows of GpuConfig::walk.
 * A checkpoint only restores under a config with the same fingerprint.
 */
std::uint64_t configFingerprint(const GpuConfig &config);

/** FNV-1a fingerprint of a program (name, register demand, source). */
std::uint64_t programFingerprint(const Program &program);

/** Convenience: build a GPU and run one kernel. */
GpuResult simulate(const GpuConfig &config, Memory &memory,
                   const Program &program, const LaunchParams &launch,
                   const Bvh *scene = nullptr);

/**
 * The periodic checkpoint schedule: a hook that atomically overwrites
 * @p path with the whole machine at every nonzero multiple of @p every
 * (!= 0) cycles, and pins the next multiple.
 */
CheckpointHook checkpointEvery(std::uint64_t every, std::string path);

} // namespace si

#endif // SI_CORE_GPU_HH
