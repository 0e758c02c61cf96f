/** @file Wavefront pipeline (stream-compacted software alternative). */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "rt/wavefront.hh"

using namespace si;

namespace {

WavefrontConfig
smallConfig()
{
    WavefrontConfig wf;
    wf.kernel.name = "wf_test";
    wf.kernel.numShaders = 4;
    wf.kernel.numWarps = 4;
    wf.kernel.bounces = 2;
    wf.kernel.numRegs = 80;
    wf.kernel.seed = 5;
    return wf;
}

std::shared_ptr<Scene>
smallScene()
{
    SceneConfig sc;
    sc.layout = SceneLayout::Interior;
    sc.targetTriangles = 1500;
    sc.numMaterials = 4;
    sc.seed = 9;
    return makeScene(sc);
}

/** The megakernel frame smallConfig() renders. */
Workload
smallFrame()
{
    return buildMegakernel(smallConfig().kernel, smallScene());
}

} // namespace

TEST(Wavefront, RunsAllBouncesAndShadesRays)
{
    const WavefrontConfig wf = smallConfig();
    const WavefrontResult r = runWavefront(
        wf, buildMegakernel(wf.kernel, smallScene()), baselineConfig());

    EXPECT_EQ(r.bouncesRun, 2u);
    EXPECT_GE(r.raysTraced, 4u * warpSize); // all rays trace bounce 0
    EXPECT_GT(r.kernelLaunches, 3u);        // trace + several shades
    EXPECT_GT(r.traceCycles, 0u);
    EXPECT_GT(r.shadeCycles, 0u);
    EXPECT_GT(r.compactionCycles, 0u);
    EXPECT_EQ(r.totalCycles, r.traceCycles + r.shadeCycles +
                                 r.compactionCycles + r.launchCycles);
    EXPECT_EQ(r.radiance.size(), 4u * warpSize);

    unsigned nonzero = 0;
    for (auto w : r.radiance)
        nonzero += w != 0;
    EXPECT_GT(nonzero, warpSize); // most pixels got radiance
}

TEST(Wavefront, TerminatedRaysLeaveTheWave)
{
    // With one bounce every path terminates after the first wave.
    WavefrontConfig wf = smallConfig();
    wf.kernel.bounces = 1;
    const WavefrontResult r = runWavefront(
        wf, buildMegakernel(wf.kernel, smallScene()), baselineConfig());
    EXPECT_EQ(r.bouncesRun, 1u);
    EXPECT_EQ(r.raysTraced, 4u * warpSize);
}

TEST(Wavefront, SecondBounceTracesOnlySurvivors)
{
    const WavefrontResult r =
        runWavefront(smallConfig(), smallFrame(), baselineConfig());
    // Misses and emissive hits terminate, so the second wave is
    // strictly smaller than the first (sky is visible in the scene).
    EXPECT_LT(r.raysTraced, 2u * 4u * warpSize);
}

TEST(Wavefront, CostModelKnobsAreCharged)
{
    const Workload frame = smallFrame();
    WavefrontConfig cheap = smallConfig();
    cheap.launchOverhead = 0;
    cheap.compactionCyclesPerRay = 0.0f;
    WavefrontConfig costly = smallConfig();
    costly.launchOverhead = 5000;
    costly.compactionCyclesPerRay = 50.0f;

    const WavefrontResult rc =
        runWavefront(cheap, frame, baselineConfig());
    const WavefrontResult re =
        runWavefront(costly, frame, baselineConfig());
    EXPECT_EQ(rc.launchCycles, 0u);
    EXPECT_EQ(rc.compactionCycles, 0u);
    EXPECT_EQ(re.launchCycles, 5000u * re.kernelLaunches);
    EXPECT_GT(re.totalCycles, rc.totalCycles);
    // The simulated kernel work itself is identical.
    EXPECT_EQ(rc.traceCycles, re.traceCycles);
    EXPECT_EQ(rc.shadeCycles, re.shadeCycles);
}

TEST(Wavefront, DeterministicAcrossRuns)
{
    const Workload frame = smallFrame();
    const WavefrontResult a =
        runWavefront(smallConfig(), frame, baselineConfig());
    const WavefrontResult b =
        runWavefront(smallConfig(), frame, baselineConfig());
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.radiance, b.radiance);
}

TEST(Wavefront, ShadeKernelsAreConvergent)
{
    // The whole point of the restructuring: no divergent branches
    // inside shade kernels — verify via an instrumented run of one
    // launch-equivalent workload. We approximate by checking that the
    // wavefront radiance is produced without megakernel-style
    // serialization: SI on the wavefront's kernels changes nothing.
    const Workload frame = smallFrame();
    const WavefrontResult base =
        runWavefront(smallConfig(), frame, baselineConfig());
    const WavefrontResult with_si = runWavefront(
        smallConfig(), frame,
        withSi(baselineConfig(), bestSiConfigPoint()));
    // No divergence -> no subwarps -> SI has nothing to interleave.
    EXPECT_EQ(base.radiance, with_si.radiance);
    const double ratio =
        double(with_si.totalCycles) / double(base.totalCycles);
    EXPECT_GT(ratio, 0.97);
    EXPECT_LT(ratio, 1.03);
}
