/**
 * @file
 * Seeded random kernel generator for the differential-testing oracle.
 * Emits structurally valid divergent programs: nested BSSY/BSYNC regions,
 * divergent loops, mixed &wr/&req scoreboard chains, loads with
 * controlled aliasing, texture reads, predicated ops, guarded early
 * EXITs, and YIELDs.
 *
 * Soundness contract (what makes generated kernels schedule-independent,
 * so the reference interpreter and the cycle model must agree exactly):
 *   - LDG only reads the read-only input segment at kgInputBase;
 *   - TEX/TLD only reads the texture segment (read-only);
 *   - STG only writes per-thread-disjoint slots derived from TID in the
 *     output segment at kgOutputBase;
 *   - every loop has a bounded, lane-computable trip count;
 *   - divergent regions reconverge through convergence barriers (or are
 *     simple forward skips).
 */

#ifndef SI_REF_KERNELGEN_HH
#define SI_REF_KERNELGEN_HH

#include <cstdint>

#include "isa/program.hh"
#include "mem/memory.hh"

namespace si {

/** Read-only input segment LDG addresses stay inside. */
inline constexpr Addr kgInputBase = 0x100000;
inline constexpr unsigned kgInputWords = 1024;

/** Output segment: thread @c tid stores only at
 *  kgOutputBase + tid*4 + site*4096 for small site indices. */
inline constexpr Addr kgOutputBase = 0x200000;

/** Texture-segment words the input image initializes (generated u/v
 *  coordinates are masked so every texel hash lands inside them). */
inline constexpr unsigned kgTexWords = 16 * 1024;

/**
 * Scratch segment the opt-in racy-witness diamond stores into. Kept
 * warp-private (addresses are keyed off WARPID), so the injected race
 * is strictly intra-warp — inside the scope of the SI-hazard analyzer's
 * soundness contract (verify/memdep.hh, race/detector.hh).
 */
inline constexpr Addr kgRaceBase = 0x300000;

/** Knobs for generateKernel. Defaults give a broad mix. */
struct KernelGenOptions
{
    unsigned minTopItems = 4;  ///< top-level body items (inclusive)
    unsigned maxTopItems = 9;
    unsigned maxDepth = 3;     ///< combined if/loop nesting depth
    bool allowLoops = true;
    bool allowTex = true;
    bool allowYield = true;
    bool allowEarlyExit = true;

    /**
     * Opt-in positive control for the SI-hazard analyzer: append a
     * sibling-arm STG/LDG diamond over the warp-private kgRaceBase
     * segment where lane k's store is lane k+16's load address and no
     * BSYNC orders the pair. The result is intentionally
     * order-dependent: the static pass must flag it
     * (si-order-dependent) and the dynamic sanitizer must report the
     * race; the normal soundness contract above no longer holds.
     */
    bool racyWitness = false;
};

/**
 * Build the deterministic memory image generated kernels execute against
 * (input segment, texture segment, constant bank). Both sides of the
 * differential harness start from their own copy of this image.
 */
Memory makeInputImage(std::uint64_t seed = 99);

/** Generate one structurally valid random kernel from @p seed. */
Program generateKernel(std::uint64_t seed,
                       const KernelGenOptions &opts = {});

} // namespace si

#endif // SI_REF_KERNELGEN_HH
