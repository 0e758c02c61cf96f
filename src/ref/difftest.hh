/**
 * @file
 * Differential-testing harness: runs a kernel through the functional
 * reference interpreter (ref/interp.hh) and the cycle-level model in
 * every Table-I-style configuration (SI on/off x {2,4,8} warp slots),
 * failing on any architectural divergence — final memory, registers,
 * predicates, or per-lane retirement traces. Failing kernels shrink by
 * greedy instruction deletion.
 */

#ifndef SI_REF_DIFFTEST_HH
#define SI_REF_DIFFTEST_HH

#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "fault/injector.hh"
#include "race/detector.hh"
#include "ref/interp.hh"
#include "ref/kernelgen.hh"

namespace si {

/** One cycle-model configuration the harness cross-checks. */
struct DiffPoint
{
    std::string name;
    GpuConfig config;
};

/**
 * The comparison matrix: {baseline, SI+yield} x warpSlotsPerPb {2,4,8},
 * single SM so slot pressure actually binds at the small slot counts.
 */
std::vector<DiffPoint> diffMatrix();

/** Harness parameters. */
struct DiffOptions
{
    unsigned numWarps = 16;
    unsigned warpsPerCta = 4;
    std::uint64_t imageSeed = 99;

    /**
     * When set, the named fault is injected into every cycle-model run
     * (earliest cycle 1, so even tiny shrunk kernels are hit). The run
     * should then *disagree* with the reference — agreement means the
     * injected bug escaped the oracle.
     */
    bool inject = false;
    FaultKind injectKind = FaultKind::BarrierMaskCorruption;
    std::uint64_t injectSeed = 1;

    /**
     * Run the cycle model with the event-driven fast-forward engine
     * (core/gpu.hh). Architecturally invisible by contract — flipping
     * this must never change any comparison; the off setting exists so
     * the harness itself can cross-validate that contract.
     */
    bool fastForward = true;
};

/** Outcome of one differential comparison. */
struct DiffResult
{
    /** True when every config point matched the reference exactly. */
    bool agree = true;

    /** Config point of the first divergence ("" when agree). */
    std::string point;

    /** Description of the first divergence ("" when agree). */
    std::string detail;

    /** The injection (cycle and victim) in `point`'s run, or in the
     *  first run whose fault fired when every point agrees. */
    std::string fault;

    /** A fault injection point was reached in at least one run. */
    bool faultFired() const { return !fault.empty(); }
};

/**
 * Outcome of one SI-hazard soundness cross-check (`difftest --race`):
 * the static may-race set (verify/memdep) versus the dynamic races the
 * happens-before sanitizer (race/detector) observed across the full
 * config matrix.
 */
struct RaceCheckResult
{
    /** Diagnosed si-order-dependent pairs from the static pass. */
    std::size_t staticPairs = 0;

    /** Lane-shared store sites (static may-race set, undiagnosed). */
    std::size_t staticLaneShared = 0;

    /** Dynamic races, union over the matrix, deduplicated by
     *  (pcA, pcB, storeStore) with the first witness of each kept. */
    std::vector<RaceReport> dynamicRaces;

    /** Dynamic races OUTSIDE the static may-race set — each one is a
     *  soundness bug in the static pass (or a completeness bug in the
     *  sanitizer's happens-before edges). */
    std::vector<RaceReport> unsound;

    /** First failed cycle-model run ("" when every point completed). */
    std::string runError;

    /** The soundness contract: dynamic is a subset of static. */
    bool sound() const { return unsound.empty(); }
};

/**
 * Run @p program through every matrix point with the race sanitizer
 * attached and check each observed race against analyzeMemDep()'s
 * may-race set.
 */
RaceCheckResult raceCheckProgram(const Program &program,
                                 const DiffOptions &opts = {});

/** Cross-check @p program against the full matrix. */
DiffResult diffProgram(const Program &program,
                       const DiffOptions &opts = {});

/** Generate kernel @p seed and cross-check it. */
DiffResult diffSeed(std::uint64_t seed, const DiffOptions &opts = {},
                    const KernelGenOptions &gen = {});

/**
 * Greedy shrink: repeatedly delete single instructions (remapping branch
 * targets) while @p fails keeps returning true, to a fixpoint. @p fails
 * is only called on programs that pass Program::check().
 */
Program shrinkProgram(const Program &program,
                      const std::function<bool(const Program &)> &fails);

} // namespace si

#endif // SI_REF_DIFFTEST_HH
