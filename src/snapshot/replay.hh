/**
 * @file
 * Deterministic-replay validation (the determinism contract behind
 * checkpoint/restore, DESIGN.md Section 9): a workload run fresh and a
 * workload resumed from a mid-run checkpoint must be indistinguishable —
 * identical final memory, architectural registers, per-SM statistics,
 * per-lane retirement traces, cycle counts, and end status. The
 * validator runs a launch three ways and cross-checks:
 *
 *   A. fresh, to learn the kernel's runtime N;
 *   B. fresh again with a one-shot checkpoint frozen near N/2 (also
 *      cross-checked against A: running twice must agree);
 *   C. a brand-new machine restored from B's checkpoint and resumed.
 *
 * Any divergence is reported with the first differing component.
 * tools/difftest wires this in as its third oracle (--snapshot).
 */

#ifndef SI_SNAPSHOT_REPLAY_HH
#define SI_SNAPSHOT_REPLAY_HH

#include <functional>
#include <string>
#include <vector>

#include "core/gpu.hh"

namespace si {

/** Knobs for one replay validation. */
struct ReplayCheckOptions
{
    /** Cycle to freeze the checkpoint at; 0 = half the fresh run. */
    Cycle checkpointCycle = 0;

    /** Pour the initial memory image (input buffers, constants) into a
     *  fresh Memory; called once per run leg. Null = empty memory. */
    std::function<void(Memory &)> initMemory;

    /** Scene for RTQUERY kernels (not snapshotted: immutable input). */
    const Bvh *scene = nullptr;
};

/** Verdict of one replay validation. */
struct ReplayCheckResult
{
    /** True when all three legs agreed on everything compared. */
    bool deterministic = false;

    /**
     * False when the kernel retired before any checkpoint could be
     * frozen (runtime under 2 cycles); the run-twice comparison still
     * gates `deterministic` in that case.
     */
    bool checkpointTaken = false;

    /** Cycle the checkpoint was frozen at (0 when none was taken). */
    Cycle checkpointCycle = 0;

    /** Fresh-run runtime, for reporting. */
    Cycle cycles = 0;

    /** First divergence, empty when deterministic. */
    std::string detail;

    bool ok() const { return deterministic; }
};

/**
 * Run @p kernels under @p config three ways (fresh / fresh+checkpoint /
 * restored) and compare. The config's traceSink and checkpointHook are
 * overridden internally; everything else is honored, including
 * fault-free failure modes — a kernel that livelocks must livelock
 * identically in every leg.
 */
ReplayCheckResult
validateDeterministicReplay(const GpuConfig &config,
                            const std::vector<KernelLaunch> &kernels,
                            const ReplayCheckOptions &opts = {});

} // namespace si

#endif // SI_SNAPSHOT_REPLAY_HH
