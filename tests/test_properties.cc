/**
 * @file
 * Cross-configuration property tests. The strongest invariant in the
 * design: Subwarp Interleaving is a *scheduling* feature — it must not
 * change architectural results. For any workload and any SI
 * configuration, the functional output (every value stored to memory)
 * and the dynamic instruction count must match the baseline exactly.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "rt/apps.hh"
#include "rt/microbench.hh"

using namespace si;

namespace {

/** A full SI parameter point for the sweep. */
struct SiPoint
{
    SelectTrigger trigger;
    bool yield;
    unsigned maxSubwarps;
    Cycle l1Miss;
    SchedPolicy sched;
};

std::string
pointName(const ::testing::TestParamInfo<SiPoint> &info)
{
    const SiPoint &p = info.param;
    std::string s;
    switch (p.trigger) {
      case SelectTrigger::AnyStalled: s += "Any"; break;
      case SelectTrigger::HalfStalled: s += "Half"; break;
      case SelectTrigger::AllStalled: s += "All"; break;
    }
    s += p.yield ? "_Yield" : "_SOS";
    s += "_T" + std::to_string(p.maxSubwarps);
    s += "_L" + std::to_string(p.l1Miss);
    s += p.sched == SchedPolicy::GTO ? "_GTO" : "_LRR";
    return s;
}

/** Collect all out-buffer words a workload's threads stored. */
std::vector<std::uint32_t>
outputsOf(const Workload &wl, const GpuConfig &cfg, GpuResult *res)
{
    GpuConfig config = cfg;
    config.rtc = wl.rtc;
    Memory mem = *wl.memory;
    *res = simulate(config, mem, wl.program, wl.launch, wl.bvh());
    std::vector<std::uint32_t> out;
    const unsigned threads = wl.launch.numWarps * warpSize;
    out.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        out.push_back(mem.read(layout::outBufBase + Addr(t) * 4));
    return out;
}

Workload
smallRtWorkload()
{
    SceneConfig sc;
    sc.layout = SceneLayout::Interior;
    sc.targetTriangles = 2000;
    sc.numMaterials = 6;
    sc.seed = 77;
    MegakernelConfig mc;
    mc.name = "prop_rt";
    mc.numShaders = 6;
    mc.numWarps = 8;
    mc.bounces = 2;
    mc.numRegs = 80;
    return buildMegakernel(mc, makeScene(sc));
}

Workload
smallMicrobench()
{
    MicrobenchConfig mc;
    mc.subwarpSize = 4;
    mc.iterations = 2;
    mc.numWarps = 4;
    return buildMicrobench(mc);
}

} // namespace

class SiInvarianceTest : public ::testing::TestWithParam<SiPoint>
{
};

TEST_P(SiInvarianceTest, RtWorkloadFunctionallyIdenticalToBaseline)
{
    const SiPoint p = GetParam();
    const Workload wl = smallRtWorkload();

    GpuConfig base = baselineConfig(p.l1Miss);
    base.sched = p.sched;
    GpuConfig si_cfg = base;
    si_cfg.siEnabled = true;
    si_cfg.yieldEnabled = p.yield;
    si_cfg.trigger = p.trigger;
    si_cfg.maxSubwarps = p.maxSubwarps;

    GpuResult rb, rs;
    const auto out_base = outputsOf(wl, base, &rb);
    const auto out_si = outputsOf(wl, si_cfg, &rs);

    ASSERT_TRUE(rb.ok()) << rb.status.summary();
    ASSERT_TRUE(rs.ok()) << rs.status.summary();

    // Scheduling must never change architectural results.
    EXPECT_EQ(out_base, out_si);
    EXPECT_EQ(rb.total.instrsIssued, rs.total.instrsIssued);
    EXPECT_EQ(rb.total.warpsRetired, rs.total.warpsRetired);
    EXPECT_EQ(rb.total.divergentBranches, rs.total.divergentBranches);

    // SI should never slow this stall-heavy workload down much; allow a
    // small guard band for switch-latency pathologies.
    EXPECT_LT(double(rs.cycles), double(rb.cycles) * 1.10);
}

TEST_P(SiInvarianceTest, MicrobenchFunctionallyIdenticalToBaseline)
{
    const SiPoint p = GetParam();
    const Workload wl = smallMicrobench();

    GpuConfig base = baselineConfig(p.l1Miss);
    base.sched = p.sched;
    GpuConfig si_cfg = base;
    si_cfg.siEnabled = true;
    si_cfg.yieldEnabled = p.yield;
    si_cfg.trigger = p.trigger;
    si_cfg.maxSubwarps = p.maxSubwarps;

    GpuResult rb, rs;
    const auto out_base = outputsOf(wl, base, &rb);
    const auto out_si = outputsOf(wl, si_cfg, &rs);

    EXPECT_EQ(out_base, out_si);
    EXPECT_EQ(rb.total.instrsIssued, rs.total.instrsIssued);
    // On this compulsory-miss benchmark SI must win outright.
    EXPECT_LT(rs.cycles, rb.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SiInvarianceTest,
    ::testing::Values(
        SiPoint{SelectTrigger::AllStalled, false, 32, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, false, 32, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::AnyStalled, false, 32, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, true, 32, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::AnyStalled, true, 32, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, true, 2, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, true, 4, 600,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, false, 6, 300,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, false, 32, 900,
                SchedPolicy::GTO},
        SiPoint{SelectTrigger::HalfStalled, true, 32, 600,
                SchedPolicy::LRR},
        SiPoint{SelectTrigger::AllStalled, false, 2, 900,
                SchedPolicy::LRR}),
    pointName);

TEST(SiProperties, DeterministicAcrossRepeatedRuns)
{
    const Workload wl = smallRtWorkload();
    const GpuConfig cfg = withSi(baselineConfig(), bestSiConfigPoint());
    GpuResult r1, r2;
    const auto o1 = outputsOf(wl, cfg, &r1);
    const auto o2 = outputsOf(wl, cfg, &r2);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(o1, o2);
    EXPECT_EQ(r1.total.subwarpStalls, r2.total.subwarpStalls);
}

TEST(SiProperties, TstBudgetMonotonicallyWidensOverlap)
{
    // More TST entries can only increase demotion opportunities.
    const Workload wl = smallMicrobench();
    std::uint64_t prev_stalls = 0;
    for (unsigned budget : {1u, 2u, 4u, 32u}) {
        GpuConfig cfg = withSi(baselineConfig(), bestSiConfigPoint());
        cfg.maxSubwarps = budget;
        const GpuResult r = runWorkload(wl, cfg);
        EXPECT_GE(r.total.subwarpStalls, prev_stalls);
        prev_stalls = r.total.subwarpStalls;
    }
}

TEST(SiProperties, SiDisabledHasNoSiActivity)
{
    const Workload wl = smallRtWorkload();
    const GpuResult r = runWorkload(wl, baselineConfig());
    EXPECT_EQ(r.total.subwarpStalls, 0u);
    EXPECT_EQ(r.total.subwarpWakeups, 0u);
    EXPECT_EQ(r.total.subwarpYields, 0u);
}

TEST(SiProperties, StallsAndWakeupsBalance)
{
    const Workload wl = smallRtWorkload();
    const GpuResult r =
        runWorkload(wl, withSi(baselineConfig(), bestSiConfigPoint()));
    EXPECT_GT(r.total.subwarpStalls, 0u);
    // Every demoted subwarp is eventually woken (kernels run to
    // completion, so no stall can be left pending).
    EXPECT_EQ(r.total.subwarpStalls, r.total.subwarpWakeups);
}

TEST(SiProperties, ExposedStallsNeverIncreaseUnderSos)
{
    // Switch-on-stall only acts when the warp could not issue anyway,
    // so exposed load-to-use stalls must not grow.
    const Workload wl = smallRtWorkload();
    const GpuResult rb = runWorkload(wl, baselineConfig());
    GpuConfig cfg = withSi(baselineConfig(), siConfigPoints()[0]); // SOS
    const GpuResult rs = runWorkload(wl, cfg);
    EXPECT_LE(rs.total.exposedLoadStallCycles,
              rb.total.exposedLoadStallCycles);
}
