/** @file Compute-kernel suite (Section VI narrow-applicability study). */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "rt/compute.hh"

using namespace si;

class ComputeKernelTest
    : public ::testing::TestWithParam<ComputeKernel>
{
};

TEST_P(ComputeKernelTest, BuildsAndRuns)
{
    const Workload wl = buildComputeKernel(GetParam(), 16);
    EXPECT_EQ(wl.program.check(), "");
    const GpuResult r = runWorkload(wl, baselineConfig());
    EXPECT_TRUE(r.ok()) << r.status.summary();
    EXPECT_EQ(r.total.warpsRetired, 16u);
}

TEST_P(ComputeKernelTest, SiIsFunctionallyTransparent)
{
    const Workload wl = buildComputeKernel(GetParam(), 8);
    auto out = [&](const GpuConfig &cfg) {
        GpuConfig c = cfg;
        c.rtc = wl.rtc;
        Memory mem = *wl.memory;
        simulate(c, mem, wl.program, wl.launch, wl.bvh());
        std::vector<std::uint32_t> o;
        for (unsigned t = 0; t < 8 * warpSize; ++t)
            o.push_back(mem.read(layout::outBufBase + t * 4));
        return o;
    };
    EXPECT_EQ(out(baselineConfig()),
              out(withSi(baselineConfig(), bestSiConfigPoint())));
}

TEST_P(ComputeKernelTest, SiGainIsNegligible)
{
    // The Section VI claim: none of the compute kernels benefit
    // beyond noise. Allow a +/- 2% band.
    const Workload wl = buildComputeKernel(GetParam());
    const GpuResult rb = runWorkload(wl, baselineConfig());
    const GpuResult rs =
        runWorkload(wl, withSi(baselineConfig(), bestSiConfigPoint()));
    const double sp = speedupPct(rb, rs);
    EXPECT_LT(std::fabs(sp), 2.0) << computeKernelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ComputeKernelTest,
    ::testing::ValuesIn(allComputeKernels()),
    [](const ::testing::TestParamInfo<ComputeKernel> &info) {
        return std::string(computeKernelName(info.param));
    });

TEST(ComputeSuite, DivergenceProfilesMatchArchetypes)
{
    // Streaming kernels never diverge; histogram/bfs do.
    const GpuConfig base = baselineConfig();
    const GpuResult saxpy =
        runWorkload(buildComputeKernel(ComputeKernel::Saxpy), base);
    EXPECT_EQ(saxpy.total.divergentBranches, 0u);

    const GpuResult hist =
        runWorkload(buildComputeKernel(ComputeKernel::Histogram), base);
    EXPECT_GT(hist.total.divergentBranches, 0u);

    const GpuResult bfs =
        runWorkload(buildComputeKernel(ComputeKernel::BfsLike), base);
    EXPECT_GT(bfs.total.divergentBranches, 0u);
    // And the irregular kernel really does stall on memory.
    EXPECT_GT(bfs.total.exposedLoadStallCycles, 0u);
}

TEST(ComputeSuite, HighOccupancyByConstruction)
{
    // Compute kernels use few registers: slots, not the register file,
    // bound their residency.
    const Workload wl = buildComputeKernel(ComputeKernel::Saxpy, 64);
    GpuConfig cfg = baselineConfig();
    Memory mem = *wl.memory;
    Gpu gpu(cfg, mem);
    gpu.run(wl.program, wl.launch);
    EXPECT_EQ(gpu.sm(0).maxResidentPerPb(), cfg.warpSlotsPerPb);
}
