/**
 * @file
 * Fault-injection harness tests: every fault class the injector can
 * produce must be detected and classified by the watchdog or invariant
 * checker without taking down the process, and runWorkload must
 * deliver results for healthy workloads even when one kernel in the
 * suite deadlocks.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "fault/injector.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"

namespace si {
namespace {

using ::testing::AnyOf;
using ::testing::HasSubstr;

// Divergent kernel with a convergence barrier and a long-latency load:
// every fault class has a victim (outstanding scoreboards, in-flight
// writebacks, BLOCKED lanes).
const char *kDivergentLoad = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
MOV R1, 0x200000
BSSY B0, join
@P0 BRA fast
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
BSYNC B0
join:
EXIT
fast:
BSYNC B0
BRA join
)";

const char *kCrossBarrierDeadlock = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, j0
BSSY B1, j1
@P0 BRA waitB1
BSYNC B0
j0:
EXIT
waitB1:
BSYNC B1
j1:
EXIT
)";

const char *kHealthyLoad = R"(
MOV R1, 0x200000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
EXIT
)";

Workload
makeWorkload(const char *name, const char *src, unsigned num_warps)
{
    Workload wl;
    wl.name = name;
    wl.program = assembleOrDie(src);
    wl.launch = {num_warps, 4};
    wl.memory = std::make_shared<Memory>();
    return wl;
}

TEST(FaultInjection, CampaignCatchesEveryFaultClass)
{
    const Program prog = assembleOrDie(kDivergentLoad);
    Memory mem;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.livelockCycles = 2000;
    cfg.invariantCheckInterval = 256;

    const std::vector<FaultSpec> specs = {
        {FaultKind::ScoreboardCorruption, 10, 1},
        {FaultKind::DroppedWriteback, 10, 2},
        {FaultKind::BarrierMaskCorruption, 10, 3},
    };
    const std::vector<CampaignRun> runs =
        runCampaign(prog, {4, 4}, mem, cfg, specs);

    ASSERT_EQ(runs.size(), 3u);
    for (const CampaignRun &run : runs) {
        SCOPED_TRACE(faultKindName(run.spec.kind));
        EXPECT_TRUE(run.injected);
        EXPECT_FALSE(run.description.empty());
        // Detected, classified, and the process is still alive (we are
        // executing this assertion).
        EXPECT_TRUE(run.caught()) << run.result.status.summary();
        EXPECT_THAT(run.result.status.kind,
                    AnyOf(ErrorKind::InvariantViolation,
                          ErrorKind::Livelock,
                          ErrorKind::BarrierDeadlock));
        EXPECT_FALSE(run.result.status.message.empty());
    }
}

TEST(FaultInjection, CampaignIsDeterministic)
{
    const Program prog = assembleOrDie(kDivergentLoad);
    Memory mem;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.invariantCheckInterval = 256;
    const std::vector<FaultSpec> specs = {
        {FaultKind::ScoreboardCorruption, 10, 7},
    };

    const auto a = runCampaign(prog, {4, 4}, mem, cfg, specs);
    const auto b = runCampaign(prog, {4, 4}, mem, cfg, specs);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].description, b[0].description);
    EXPECT_EQ(a[0].result.status.kind, b[0].result.status.kind);
    EXPECT_EQ(a[0].result.cycles, b[0].result.cycles);
}

TEST(FaultInjection, SweepSurvivesDeadlockingKernel)
{
    // The acceptance scenario: a sweep containing one deliberately
    // deadlocking kernel still produces results for the healthy ones.
    const std::vector<Workload> suite = {
        makeWorkload("healthy-a", kHealthyLoad, 4),
        makeWorkload("deadlock", kCrossBarrierDeadlock, 1),
        makeWorkload("healthy-b", kHealthyLoad, 8),
    };
    GpuConfig cfg;
    cfg.numSms = 1;

    std::vector<GpuResult> results;
    for (const Workload &wl : suite)
        results.push_back(runWorkload(wl, cfg));

    EXPECT_TRUE(results[0].ok()) << results[0].status.summary();
    EXPECT_GT(results[0].cycles, 0u);
    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status.kind, ErrorKind::BarrierDeadlock);
    EXPECT_TRUE(results[2].ok()) << results[2].status.summary();
    EXPECT_GT(results[2].cycles, 0u);
}

TEST(FaultInjection, BrokenWorkloadIsClassifiedNotFatal)
{
    Workload wl = makeWorkload("no-image", kHealthyLoad, 1);
    wl.memory.reset(); // config error: nothing to simulate against
    GpuConfig cfg;
    cfg.numSms = 1;

    const GpuResult result = runWorkload(wl, cfg);

    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.kind, ErrorKind::Config);
    EXPECT_THAT(result.status.message, HasSubstr("no memory image"));
}

} // namespace
} // namespace si
