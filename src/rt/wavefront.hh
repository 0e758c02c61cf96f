/**
 * @file
 * Wavefront path tracing — the *software* alternative to Subwarp
 * Interleaving (paper Section VII-A: Laine et al., "Megakernels
 * Considered Harmful"; Hoberock et al. stream compaction; Wald active
 * thread compaction; and the Discussion's "viable near-term
 * algorithmic workarounds").
 *
 * Instead of one divergent megakernel, the frame is rendered as a
 * pipeline of small kernels with global queues between them:
 *
 *   per bounce:
 *     trace kernel   — every live ray runs RTQUERY convergently and
 *                      stores its hit record;
 *     compaction     — rays are sorted into per-material queues
 *                      (modeled as a software cost per ray, since it
 *                      is a GPU-side prefix-sum/scatter pass);
 *     shade kernels  — one fully *convergent* kernel launch per
 *                      material over its queue, updating ray state.
 *
 * Divergence disappears; the price is extra kernel launches, the
 * compaction passes, and ray state round-tripping through memory.
 */

#ifndef SI_RT_WAVEFRONT_HH
#define SI_RT_WAVEFRONT_HH

#include "rt/megakernel.hh"

namespace si {

/** Cost model and shape of a wavefront pipeline. */
struct WavefrontConfig
{
    /** Shader shape — reuse the megakernel profile so comparisons are
     *  apples-to-apples (same math/ldg/tex per shader, same scene). */
    MegakernelConfig kernel;

    /** Cycles charged per ray per compaction pass (sort/scatter). */
    float compactionCyclesPerRay = 2.0f;

    /** Fixed cycles per kernel launch (driver/front-end overhead). */
    Cycle launchOverhead = 800;
};

/** Outcome of a full wavefront render. */
struct WavefrontResult
{
    Cycle totalCycles = 0;      ///< everything, end to end
    Cycle traceCycles = 0;      ///< trace-kernel simulation time
    Cycle shadeCycles = 0;      ///< shade-kernel simulation time
    Cycle compactionCycles = 0; ///< modeled software sorting cost
    Cycle launchCycles = 0;     ///< modeled launch overheads
    unsigned kernelLaunches = 0;
    unsigned bouncesRun = 0;
    std::uint64_t raysTraced = 0;

    /** Final per-pixel radiance words (same layout as the megakernel
     *  out buffer) for output comparisons. */
    std::vector<std::uint32_t> radiance;
};

/**
 * Render the frame of @p megakernel, a buildMegakernel(config.kernel,
 * scene) workload, with a wavefront pipeline under @p gpu_config, from
 * a copy of its memory image and its scene: `runWorkload(megakernel)`
 * vs `runWavefront(...)` is the paper's megakernel-vs-wavefront
 * comparison.
 */
WavefrontResult runWavefront(const WavefrontConfig &config,
                             const Workload &megakernel,
                             const GpuConfig &gpu_config);

} // namespace si

#endif // SI_RT_WAVEFRONT_HH
