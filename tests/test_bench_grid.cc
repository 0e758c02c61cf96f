/**
 * @file
 * bench::Grid, the one sweep definition behind the bench binaries:
 * rows are built once, a column shared by every row is simulated once
 * per row, a failed cell drops exactly its row (with one note and a
 * failing finish()), --fast-forward=off reaches every cell, the
 * campaign path agrees with the plain grid, and output is
 * byte-identical at any --jobs value. Small kernels on one SM keep
 * every grid to a fraction of a second.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "isa/assembler.hh"

namespace si {
namespace {

using ::testing::HasSubstr;

const char *kDivergentLoads = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, join
@P0 BRA taken
MOV R1, 0x100000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
BSYNC B0
join:
EXIT
taken:
MOV R1, 0x200000
LDG R2, [R1+0] &wr=sb1
FADD R3, R2, R2 &req=sb1
LDG R4, [R1+8] &wr=sb2
FADD R5, R4, R4 &req=sb2
BSYNC B0
BRA join
)";

/** Keeps issuing forever: only the cycle cap ends it. */
const char *kSpinForever = R"(
MOV R1, 0
loop:
IADD R1, R1, 1
BRA loop
EXIT
)";

Workload
makeWorkload(const char *source, unsigned warps)
{
    Workload wl;
    wl.program = assembleOrDie(source);
    wl.launch = {warps, 4};
    wl.memory = std::make_shared<Memory>();
    return wl;
}

/** A BenchJson parsed from @p args, as a bench binary's main() would. */
bench::BenchJson
benchJson(std::vector<std::string> args)
{
    args.insert(args.begin(), "test_bench_grid");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::BenchJson("test_bench_grid", int(argv.size()),
                            argv.data());
}

/** bj's baseline on one SM, with a cycle cap the healthy rows never hit. */
GpuConfig
smallConfig(const bench::BenchJson &bj)
{
    GpuConfig c = bj.baseline();
    c.numSms = 1;
    c.maxCycles = 20'000;
    return c;
}

/** Rows div4, div8 and div12 (warps); columns base, then two SI points. */
void
declare(bench::Grid &grid, const bench::BenchJson &bj)
{
    for (unsigned warps : {4u, 8u, 12u}) {
        grid.row("div" + std::to_string(warps), [warps] {
            return makeWorkload(kDivergentLoads, warps);
        });
    }
    const GpuConfig base = smallConfig(bj);
    grid.column("base", base);
    for (std::size_t p = 0; p < 2; ++p) {
        grid.column(siConfigPoints()[p].label,
                    withSi(base, siConfigPoints()[p]));
    }
}

TEST(BenchGrid, BuildsEachRowOnce)
{
    bench::BenchJson bj = benchJson({"--jobs", "4"});
    bench::Grid grid(bj);
    std::vector<std::atomic<unsigned>> builds(3);
    for (std::size_t r = 0; r < builds.size(); ++r) {
        grid.row("row" + std::to_string(r), [&builds, r] {
            ++builds[r];
            return makeWorkload(kDivergentLoads, 4);
        });
    }
    for (unsigned i = 0; i < 4; ++i)
        grid.column("col" + std::to_string(i), smallConfig(bj));
    grid.run();

    for (std::size_t r = 0; r < builds.size(); ++r)
        EXPECT_EQ(builds[r].load(), 1u) << grid.name(r);
    EXPECT_EQ(grid.rows(), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BenchGrid, SharedColumnRunsOncePerRow)
{
    bench::BenchJson bj = benchJson({"--jobs", "2"});
    bench::Grid grid(bj);
    declare(grid, bj);

    // (workload, SI on) -> simulations.
    std::mutex mutex;
    std::map<std::pair<std::string, bool>, unsigned> runs;
    grid.simulateWith([&](const Workload &wl, const GpuConfig &config) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++runs[{wl.name, config.siEnabled}];
        }
        return runWorkload(wl, config);
    });
    grid.run();

    ASSERT_EQ(grid.rows().size(), 3u);
    for (std::size_t r : grid.rows()) {
        EXPECT_EQ((runs[{grid.name(r), false}]), 1u) << grid.name(r);
        EXPECT_EQ((runs[{grid.name(r), true}]), 2u) << grid.name(r);
        // Results are keyed by (row, column): both SI speedups are
        // measured against the one baseline run of their own row.
        const GpuResult base =
            runWorkload(grid.workload(r), smallConfig(bj));
        for (std::size_t c = 1; c < 3; ++c) {
            EXPECT_EQ(grid.speedup(r, 0, c),
                      speedupPct(base, grid.result(r, c)));
        }
    }
}

TEST(BenchGrid, FailedCellDropsOnlyItsRow)
{
    bench::BenchJson healthy_bj = benchJson({});
    bench::Grid healthy(healthy_bj);
    declare(healthy, healthy_bj);
    healthy.run();
    EXPECT_TRUE(healthy_bj.finish());

    // The same grid with a runaway row between the healthy ones.
    bench::BenchJson bj = benchJson({});
    bench::Grid grid(bj);
    grid.row("div4", [] { return makeWorkload(kDivergentLoads, 4); });
    grid.row("spin", [] { return makeWorkload(kSpinForever, 4); });
    grid.row("div8", [] { return makeWorkload(kDivergentLoads, 8); });
    grid.row("div12", [] { return makeWorkload(kDivergentLoads, 12); });
    const GpuConfig base = smallConfig(bj);
    grid.column("base", base);
    for (std::size_t p = 0; p < 2; ++p) {
        grid.column(siConfigPoints()[p].label,
                    withSi(base, siConfigPoints()[p]));
    }
    testing::internal::CaptureStderr();
    grid.run();
    const std::string notes = testing::internal::GetCapturedStderr();

    EXPECT_EQ(grid.rows(), (std::vector<std::size_t>{0, 2, 3}));
    EXPECT_THAT(notes, HasSubstr("  [SKIPPED spin: base: "));
    std::size_t skipped = 0;
    for (std::size_t at = notes.find("SKIPPED"); at != std::string::npos;
         at = notes.find("SKIPPED", at + 1))
        ++skipped;
    EXPECT_EQ(skipped, 1u);
    EXPECT_FALSE(bj.finish());

    // The surviving rows are exactly the healthy grid's rows.
    for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t r = grid.rows()[i];
        EXPECT_EQ(grid.name(r), healthy.name(healthy.rows()[i]));
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(grid.result(r, c).cycles,
                      healthy.result(healthy.rows()[i], c).cycles);
        }
    }
    EXPECT_EQ(grid.speedups(0, 1), healthy.speedups(0, 1));
}

TEST(BenchGrid, FastForwardOffReachesEveryCell)
{
    for (const bool on : {true, false}) {
        bench::BenchJson bj = benchJson(
            {"--jobs", "2", on ? "--fast-forward" : "--fast-forward=off"});
        bench::Grid grid(bj);
        declare(grid, bj);
        std::atomic<unsigned> cells{0}, matching{0};
        grid.simulateWith(
            [&](const Workload &wl, const GpuConfig &config) {
                ++cells;
                if (config.fastForward == on)
                    ++matching;
                return runWorkload(wl, config);
            });
        grid.run();
        EXPECT_EQ(cells.load(), 9u);
        EXPECT_EQ(matching.load(), 9u) << "fast-forward " << on;
    }
}

TEST(BenchGrid, CampaignMatchesGridCycles)
{
    // Two jobs: the campaign keeps two forked children running.
    bench::BenchJson bj = benchJson({"--jobs", "2"});
    bench::Grid grid(bj), campaign(bj);
    declare(grid, bj);
    declare(campaign, bj);
    grid.run();

    const std::string dir =
        std::string(::testing::TempDir()) + "bench_grid_campaign";
    std::filesystem::remove_all(dir);
    testing::internal::CaptureStderr();
    campaign.runCampaign(dir, false);
    const std::string notes = testing::internal::GetCapturedStderr();
    EXPECT_THAT(notes, HasSubstr("[campaign: 9 done, 0 failed;"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/campaign.json"));

    ASSERT_EQ(campaign.rows(), grid.rows());
    for (std::size_t r : campaign.rows()) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_EQ(campaign.result(r, c).cycles,
                      grid.result(r, c).cycles)
                << campaign.name(r) << " column " << c;
        }
    }
    std::filesystem::remove_all(dir);
}

/**
 * Every byte a small grid with one failing row prints: its whole
 * stderr and a table. Cells print nothing while they run, so the
 * notes cannot depend on completion order.
 */
std::string
gridFingerprint(unsigned jobs)
{
    bench::BenchJson bj = benchJson({"--jobs", std::to_string(jobs)});
    bench::Grid grid(bj);
    declare(grid, bj);
    grid.row("spin", [] { return makeWorkload(kSpinForever, 4); });
    testing::internal::CaptureStderr();
    grid.run();
    const std::string out = testing::internal::GetCapturedStderr();

    TablePrinter t("grid");
    t.header({"row", "SI 1", "SI 2"});
    grid.pctRows(t, {grid.speedups(0, 1), grid.speedups(0, 2)});
    return out + t.render();
}

TEST(BenchGrid, OutputByteIdenticalAtAnyJobs)
{
    const std::string serial = gridFingerprint(1);
    EXPECT_THAT(serial, HasSubstr("[swept div12]"));
    EXPECT_THAT(serial, HasSubstr("[SKIPPED spin: base: "));
    EXPECT_THAT(serial, HasSubstr("mean"));
    for (unsigned jobs : {2u, 4u, 8u})
        EXPECT_EQ(serial, gridFingerprint(jobs)) << "jobs=" << jobs;
}

} // namespace
} // namespace si
