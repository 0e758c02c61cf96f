/** @file Megakernel / application / microbenchmark workload generators. */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "harness/runner.hh"
#include "rt/apps.hh"
#include "rt/microbench.hh"

using namespace si;
using ::testing::HasSubstr;

TEST(Megakernel, GeneratedProgramValidates)
{
    SceneConfig sc;
    sc.numMaterials = 4;
    sc.targetTriangles = 1000;
    MegakernelConfig mc;
    mc.numShaders = 4;
    mc.numWarps = 4;
    const Workload wl = buildMegakernel(mc, makeScene(sc));
    EXPECT_EQ(wl.program.check(), "");
    EXPECT_GT(wl.program.size(), 50u);
    EXPECT_TRUE(wl.scene != nullptr);
    EXPECT_TRUE(wl.memory != nullptr);
}

TEST(Megakernel, RunsToCompletionAndWritesOutput)
{
    SceneConfig sc;
    sc.numMaterials = 4;
    sc.targetTriangles = 1500;
    sc.layout = SceneLayout::Interior;
    MegakernelConfig mc;
    mc.numShaders = 4;
    mc.numWarps = 8;
    mc.bounces = 2;
    const Workload wl = buildMegakernel(mc, makeScene(sc));

    GpuConfig cfg = baselineConfig();
    cfg.rtc = wl.rtc;
    Memory mem = *wl.memory;
    const GpuResult r =
        simulate(cfg, mem, wl.program, wl.launch, wl.bvh());
    EXPECT_TRUE(r.ok()) << r.status.summary();
    EXPECT_EQ(r.total.warpsRetired, 8u);
    EXPECT_GT(r.total.rtQueriesIssued, 0u);
    EXPECT_GT(r.total.divergentBranches, 0u);

    // Every thread stored a radiance value; at least some nonzero.
    unsigned nonzero = 0;
    for (unsigned t = 0; t < 8 * warpSize; ++t)
        nonzero += mem.read(layout::outBufBase + t * 4) != 0;
    EXPECT_GT(nonzero, 8 * warpSize / 4);
}

TEST(Megakernel, RejectsBadConfigs)
{
    SceneConfig sc;
    auto scene = makeScene(sc);
    MegakernelConfig mc;
    mc.numRegs = 16; // too small
    EXPECT_THROW(
        try { buildMegakernel(mc, scene); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config);
            EXPECT_THAT(e.what(), HasSubstr("48 registers"));
            throw;
        },
        SimError);
    MegakernelConfig mc2;
    mc2.bounces = 0;
    EXPECT_THROW(
        try { buildMegakernel(mc2, scene); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config);
            EXPECT_THAT(e.what(), HasSubstr("bounce"));
            throw;
        },
        SimError);
}

TEST(Apps, AllTenTracesBuildAndValidate)
{
    for (AppId id : allApps()) {
        const Workload wl = buildApp(id, 8);
        EXPECT_EQ(wl.program.check(), "") << appName(id);
        EXPECT_EQ(wl.name, appName(id));
        EXPECT_GT(wl.scene->triangles.size(), 1000u) << appName(id);
    }
    EXPECT_EQ(allApps().size(), 10u);
}

TEST(Apps, NamesMatchPaperOrder)
{
    const std::vector<std::string> expected = {
        "AV1", "AV2", "BFV1", "BFV2", "Coll1",
        "Coll2", "Ctrl", "DDGI", "MC", "MW"};
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(appName(allApps()[i]), expected[i]);
}

TEST(Apps, ProfilesAreDistinct)
{
    const Workload a = buildApp(AppId::BFV1, 8);
    const Workload b = buildApp(AppId::Coll1, 8);
    EXPECT_NE(a.program.size(), b.program.size());
    EXPECT_NE(buildApp(AppId::AV1, 8).program.numRegs(),
              buildApp(AppId::Coll1, 8).program.numRegs());
}

TEST(Microbench, DivergenceFactorSweep)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 16;
    EXPECT_EQ(divergenceFactor(mc), 2u);
    mc.subwarpSize = 1;
    EXPECT_EQ(divergenceFactor(mc), 32u);
}

TEST(Microbench, ProgramSizeGrowsWithDivergence)
{
    MicrobenchConfig small, large;
    small.subwarpSize = 16;
    large.subwarpSize = 1;
    EXPECT_GT(buildMicrobench(large).program.size(),
              4 * buildMicrobench(small).program.size());
}

TEST(Microbench, BaselineSerializesSubwarps)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 16;
    mc.iterations = 2;
    const Workload wl = buildMicrobench(mc);
    const GpuResult r = runWorkload(wl, baselineConfig());
    EXPECT_TRUE(r.ok()) << r.status.summary();
    // Every warp diverges into 2 subwarps once per iteration.
    EXPECT_GT(r.total.divergentBranches, 0u);
    // All loads are compulsory line misses by construction: one miss
    // per (warp, subwarp, iteration, access); the remaining lanes of
    // each subwarp hit in the freshly filled line.
    EXPECT_EQ(r.total.l1dMisses, 8u * 2u * 2u * 4u);
}

TEST(Microbench, SiOverlapsStalls)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 8;
    const Workload wl = buildMicrobench(mc);
    const GpuResult rb = runWorkload(wl, baselineConfig());
    const GpuResult rs = runWorkload(
        wl, withSi(baselineConfig(), bestSiConfigPoint()));
    EXPECT_GT(double(rb.cycles) / double(rs.cycles), 2.0);
    EXPECT_GT(rs.total.subwarpStalls, 0u);
}

TEST(Microbench, RejectsBadSubwarpSize)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 12;
    EXPECT_THROW(
        try { buildMicrobench(mc); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config);
            EXPECT_THAT(e.what(), HasSubstr("SUBWARP_SIZE"));
            throw;
        },
        SimError);
}

TEST(Workloads, ZeroRtPipesIsConfigErrorAndProcessContinues)
{
    // Both run entry points report a zero-pipe RT core as a status, and
    // the calling process keeps running.
    const char *const message =
        "config: rtc.numPipes = 0 is out of range 1..65536";
    MicrobenchConfig mc;
    mc.subwarpSize = 8;
    mc.iterations = 1;
    Workload wl = buildMicrobench(mc);

    GpuConfig cfg = baselineConfig();
    cfg.rtc.numPipes = 0;
    Memory mem = *wl.memory;
    const GpuResult direct =
        simulate(cfg, mem, wl.program, wl.launch, wl.bvh());
    EXPECT_EQ(direct.status.kind, ErrorKind::Config);
    EXPECT_EQ(direct.status.summary(), message);

    // runWorkload() takes the RT core shape from the workload.
    wl.rtc.numPipes = 0;
    const GpuResult run = runWorkload(wl, baselineConfig());
    EXPECT_EQ(run.status.kind, ErrorKind::Config);
    EXPECT_EQ(run.status.summary(), message);

    // Still here: the same workload with a healthy RT core completes.
    wl.rtc.numPipes = 1;
    EXPECT_TRUE(runWorkload(wl, baselineConfig()).ok());
}

TEST(Harness, SiConfigPointsMatchPaper)
{
    const auto &pts = siConfigPoints();
    ASSERT_EQ(pts.size(), 6u);
    EXPECT_STREQ(pts[0].label, "SOS,N=1");
    EXPECT_FALSE(pts[0].yield);
    EXPECT_STREQ(bestSiConfigPoint().label, "Both,N>=0.5");
    EXPECT_TRUE(bestSiConfigPoint().yield);
    EXPECT_EQ(bestSiConfigPoint().trigger, SelectTrigger::HalfStalled);
}

TEST(Harness, WithSiEnablesFeature)
{
    const GpuConfig cfg = withSi(baselineConfig(), siConfigPoints()[4]);
    EXPECT_TRUE(cfg.siEnabled);
    EXPECT_FALSE(cfg.yieldEnabled);
    EXPECT_EQ(cfg.trigger, SelectTrigger::AnyStalled);
    EXPECT_FALSE(baselineConfig().siEnabled);
}

TEST(Harness, SpeedupMath)
{
    GpuResult base, test;
    base.cycles = 1200;
    test.cycles = 1000;
    EXPECT_NEAR(speedupPct(base, test), 20.0, 1e-9);
    EXPECT_NEAR(speedupPct(test, base), -16.6667, 1e-3);
    EXPECT_NEAR(mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(Harness, RunWorkloadDoesNotMutateTemplateMemory)
{
    MicrobenchConfig mc;
    mc.subwarpSize = 16;
    mc.iterations = 1;
    mc.numWarps = 2;
    const Workload wl = buildMicrobench(mc);
    runWorkload(wl, baselineConfig());
    // The kernel stores results to the out buffer; the template image
    // must remain untouched.
    EXPECT_EQ(wl.memory->read(layout::outBufBase), 0u);
}
