/**
 * @file
 * Crash-resumable campaign runner tests: happy path, manifest
 * round-trip, resume-as-no-op, transient retry, retry exhaustion with
 * graceful degradation, per-cell wall-clock timeouts, and the chaos
 * test — a child SIGKILLed at a seeded random cycle must resume from
 * its auto-checkpoint and finish with the same result an uninterrupted
 * campaign reports.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "harness/campaign.hh"
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

Workload
makeWorkload(const std::string &name)
{
    Workload wl;
    wl.name = name;
    wl.program = assembleOrDie(kDivergentLoads);
    wl.launch = {8, 4};
    wl.memory = std::make_shared<Memory>();
    return wl;
}

std::vector<std::pair<std::string, GpuConfig>>
makeConfigs()
{
    GpuConfig base;
    base.numSms = 1;
    GpuConfig si = base;
    si.siEnabled = true;
    si.yieldEnabled = true;
    return {{"base", base}, {"si", si}};
}

std::string
freshStateDir(const char *stem)
{
    const std::string dir = std::string(::testing::TempDir()) + stem;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Campaign, AllCellsCompleteAndManifestRoundTrips)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_happy");
    CampaignRunner runner({makeWorkload("divloads")}, makeConfigs(),
                          opts);
    const CampaignReport report = runner.run();

    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.numDone(), 2u);
    EXPECT_EQ(report.numFailed(), 0u);
    EXPECT_EQ(report.cellsRun, 2u);
    for (const CampaignCellRecord &cell : report.cells) {
        EXPECT_EQ(cell.attempts, 1u);
        EXPECT_GT(cell.cycles, 0u);
    }

    CampaignReport parsed;
    std::string error;
    ASSERT_TRUE(CampaignRunner::parseManifest(
        slurp(report.manifestPath), parsed, error))
        << error;
    EXPECT_TRUE(parsed.complete);
    ASSERT_EQ(parsed.cells.size(), report.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
        EXPECT_EQ(parsed.cells[i].state, report.cells[i].state);
        EXPECT_EQ(parsed.cells[i].cycles, report.cells[i].cycles);
        EXPECT_EQ(parsed.cells[i].configLabel,
                  report.cells[i].configLabel);
    }
}

TEST(Campaign, MalformedManifestIsRejectedWithError)
{
    CampaignReport out;
    std::string error;
    EXPECT_FALSE(CampaignRunner::parseManifest("not json", out, error));
    EXPECT_THAT(error, HasSubstr("JSON"));
    EXPECT_FALSE(CampaignRunner::parseManifest(
        R"({"schema":"something-else","complete":true,"cells":[]})", out,
        error));
    EXPECT_THAT(error, HasSubstr("si-campaign-v1"));

    // Counts must be integers in [0, 2^64): a negative, fractional or
    // out-of-range number is refused, not cast.
    const auto manifest = [](const std::string &attempts,
                             const std::string &cycles) {
        return R"({"schema":"si-campaign-v1","complete":true,"cells":[)"
               R"({"workload":"w","config":"c","state":"done",)"
               R"("attempts":)" +
               attempts + R"(,"kind":"ok","cycles":)" + cycles + "}]}";
    };
    ASSERT_TRUE(CampaignRunner::parseManifest(manifest("1", "5"), out,
                                              error))
        << error;
    EXPECT_EQ(out.cells.at(0).cycles, 5u);
    for (const char *bad : {"-1", "2.5", "1e30"}) {
        EXPECT_FALSE(CampaignRunner::parseManifest(manifest(bad, "5"),
                                                   out, error))
            << bad;
        EXPECT_THAT(error, HasSubstr("attempts")) << bad;
        EXPECT_FALSE(CampaignRunner::parseManifest(manifest("1", bad),
                                                   out, error))
            << bad;
        EXPECT_THAT(error, HasSubstr("cycles")) << bad;
    }
}

TEST(Campaign, ManifestRoundTripsEveryErrorKind)
{
    // The manifest names kinds by errorKindName(); reading one back must
    // recover every kind, and an unknown name reads as Internal.
    CampaignReport report;
    for (unsigned k = 0; k <= unsigned(lastErrorKind); ++k) {
        CampaignCellRecord rec;
        rec.workload = "w";
        rec.configLabel = std::to_string(k);
        rec.kind = ErrorKind(k);
        report.cells.push_back(rec);
    }
    CampaignReport parsed;
    std::string error;
    ASSERT_TRUE(CampaignRunner::parseManifest(
        CampaignRunner::manifestJson(report), parsed, error))
        << error;
    ASSERT_EQ(parsed.cells.size(), report.cells.size());
    for (std::size_t i = 0; i < parsed.cells.size(); ++i)
        EXPECT_EQ(parsed.cells[i].kind, report.cells[i].kind)
            << errorKindName(report.cells[i].kind);

    ASSERT_TRUE(CampaignRunner::parseManifest(
        R"({"schema":"si-campaign-v1","complete":false,"cells":[)"
        R"({"workload":"w","config":"c","state":"failed","attempts":1,)"
        R"("kind":"no-such-kind"}]})",
        parsed, error))
        << error;
    EXPECT_EQ(parsed.cells.at(0).kind, ErrorKind::Internal);
}

TEST(Campaign, ResumeIgnoresManifestWithUnusableCounts)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_resume_badcount");
    CampaignRunner first({makeWorkload("divloads")}, makeConfigs(), opts);
    const CampaignReport before = first.run();
    ASSERT_TRUE(before.complete);

    // Corrupt one cell's cycle count past 2^64.
    std::string text = slurp(before.manifestPath);
    const std::string key = "\"cycles\":" +
                            std::to_string(before.cells.at(0).cycles);
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, key.size(), "\"cycles\":1e30");
    std::ofstream(before.manifestPath) << text;

    opts.resume = true;
    CampaignRunner second({makeWorkload("divloads")}, makeConfigs(),
                          opts);
    testing::internal::CaptureStderr();
    const CampaignReport after = second.run();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_THAT(log, HasSubstr("ignoring unusable manifest"));
    EXPECT_THAT(log, HasSubstr("cycles"));
    EXPECT_TRUE(after.complete);
    EXPECT_EQ(after.cellsRun, before.cells.size());
    ASSERT_EQ(after.cells.size(), before.cells.size());
    for (std::size_t i = 0; i < after.cells.size(); ++i)
        EXPECT_EQ(after.cells[i].cycles, before.cells[i].cycles);
}

TEST(Campaign, ResumeOfFinishedCampaignRunsNothing)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_resume_noop");
    CampaignRunner first({makeWorkload("divloads")}, makeConfigs(), opts);
    const CampaignReport before = first.run();
    ASSERT_TRUE(before.complete);

    opts.resume = true;
    CampaignRunner second({makeWorkload("divloads")}, makeConfigs(),
                          opts);
    const CampaignReport after = second.run();
    EXPECT_TRUE(after.complete);
    EXPECT_EQ(after.cellsRun, 0u);
    ASSERT_EQ(after.cells.size(), before.cells.size());
    for (std::size_t i = 0; i < after.cells.size(); ++i)
        EXPECT_EQ(after.cells[i].cycles, before.cells[i].cycles);
}

TEST(Campaign, InterruptedCampaignResumesToSameReport)
{
    // Uninterrupted baseline.
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_oneshot");
    CampaignRunner oneshot({makeWorkload("divloads")}, makeConfigs(),
                           opts);
    const CampaignReport whole = oneshot.run();
    ASSERT_TRUE(whole.complete);

    // Same campaign forced to stop after one cell, then resumed.
    opts.stateDir = freshStateDir("campaign_interrupted");
    opts.maxCellsThisRun = 1;
    CampaignRunner part1({makeWorkload("divloads")}, makeConfigs(),
                         opts);
    const CampaignReport mid = part1.run();
    EXPECT_FALSE(mid.complete);
    EXPECT_EQ(mid.cellsRun, 1u);

    opts.maxCellsThisRun = 0;
    opts.resume = true;
    CampaignRunner part2({makeWorkload("divloads")}, makeConfigs(),
                         opts);
    const CampaignReport fin = part2.run();
    EXPECT_TRUE(fin.complete);
    EXPECT_EQ(fin.cellsRun, 1u); // only the cell the cap skipped

    ASSERT_EQ(fin.cells.size(), whole.cells.size());
    for (std::size_t i = 0; i < fin.cells.size(); ++i) {
        EXPECT_EQ(fin.cells[i].state, whole.cells[i].state);
        EXPECT_EQ(fin.cells[i].cycles, whole.cells[i].cycles)
            << fin.cells[i].configLabel;
    }
}

TEST(Campaign, TransientFailureRetriesAndRecovers)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_retry");
    opts.maxRetries = 2;
    opts.faultInjectionActive = true; // CycleLimit counts as transient
    opts.childConfigHook = [](GpuConfig &cfg, const CampaignCellRecord &,
                              unsigned attempt) {
        if (attempt == 1)
            cfg.maxCycles = 10; // doomed first attempt
    };
    CampaignRunner runner({makeWorkload("divloads")}, makeConfigs(),
                          opts);
    const CampaignReport report = runner.run();
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.numDone(), 2u);
    for (const CampaignCellRecord &cell : report.cells)
        EXPECT_EQ(cell.attempts, 2u);
}

TEST(Campaign, ExhaustedRetriesDegradeGracefully)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_exhausted");
    opts.maxRetries = 1;
    opts.faultInjectionActive = true;
    opts.childConfigHook = [](GpuConfig &cfg, const CampaignCellRecord &,
                              unsigned) {
        cfg.maxCycles = 10; // every attempt is doomed
    };
    CampaignRunner runner({makeWorkload("divloads")},
                          {makeConfigs()[0]}, opts);
    const CampaignReport report = runner.run();

    EXPECT_TRUE(report.complete); // terminal, even though it failed
    EXPECT_EQ(report.numFailed(), 1u);
    const CampaignCellRecord &cell = report.cells.front();
    EXPECT_EQ(cell.attempts, 2u); // first try + one retry
    EXPECT_EQ(cell.kind, ErrorKind::CycleLimit);
    EXPECT_EQ(cell.diagnosis, errorDetectorName(ErrorKind::CycleLimit));
    EXPECT_FALSE(cell.detail.empty());
}

TEST(Campaign, ZeroRtPipesCellRecordsConfigKind)
{
    // A config error inside the child reaches the manifest with its own
    // kind and message, not as the child's exit status.
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_zero_pipes");
    Workload wl = makeWorkload("divloads");
    wl.rtc.numPipes = 0;
    CampaignRunner runner({wl}, {makeConfigs()[0]}, opts);
    testing::internal::CaptureStderr();
    const CampaignReport report = runner.run();
    const std::string log = testing::internal::GetCapturedStderr();

    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.numFailed(), 1u);
    const CampaignCellRecord &cell = report.cells.front();
    EXPECT_EQ(cell.attempts, 1u); // deterministic: never retried
    EXPECT_EQ(cell.kind, ErrorKind::Config);
    EXPECT_EQ(cell.detail, "rtc.numPipes = 0 is out of range 1..65536");
    EXPECT_THAT(log, HasSubstr("failed permanently"));
}

TEST(Campaign, WallClockOverrunIsKilledAndClassified)
{
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_timeout");
    opts.cellTimeoutSec = 0.2;
    opts.maxRetries = 0; // timeout is transient; forbid the retry
    opts.childConfigHook = [](GpuConfig &cfg, const CampaignCellRecord &,
                              unsigned) {
        cfg.faultHook = [](Gpu &, Cycle now) {
            std::this_thread::sleep_for(std::chrono::seconds(5));
            return now;
        };
    };
    CampaignRunner runner({makeWorkload("divloads")},
                          {makeConfigs()[0]}, opts);
    const CampaignReport report = runner.run();

    EXPECT_EQ(report.numFailed(), 1u);
    const CampaignCellRecord &cell = report.cells.front();
    EXPECT_EQ(cell.kind, ErrorKind::ChildTimeout);
    EXPECT_EQ(cell.diagnosis, errorDetectorName(ErrorKind::ChildTimeout));
    EXPECT_THAT(cell.detail, HasSubstr("wall budget"));
}

TEST(Campaign, ChaosSigkillResumesFromCheckpointToSameResult)
{
    // Uninterrupted baseline for the cross-check.
    CampaignOptions base;
    base.stateDir = freshStateDir("campaign_chaos_baseline");
    CampaignRunner clean({makeWorkload("divloads")}, makeConfigs(),
                         base);
    const CampaignReport expected = clean.run();
    ASSERT_TRUE(expected.complete);
    ASSERT_EQ(expected.numDone(), 2u);

    // Chaos run: every cell's first attempt is SIGKILLed at a seeded
    // random cycle, mid-kernel. The retry must adopt the cell's last
    // auto-checkpoint and still land on the uninterrupted result.
    Rng rng(0xc0ffee);
    const Cycle kill_at = 40 + Cycle(rng.below(120));

    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_chaos");
    opts.checkpointEvery = 25;
    opts.maxRetries = 2;
    opts.childConfigHook = [kill_at](GpuConfig &cfg,
                                     const CampaignCellRecord &,
                                     unsigned attempt) {
        if (attempt > 1)
            return; // the retry runs unmolested
        // Pinned to kill_at, so no leap can skip the kill.
        cfg.faultHook = [kill_at](Gpu &, Cycle now) {
            if (now == kill_at)
                raise(SIGKILL); // no cleanup, no result file, nothing
            return kill_at;
        };
    };
    CampaignRunner runner({makeWorkload("divloads")}, makeConfigs(),
                          opts);
    const CampaignReport report = runner.run();

    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.numDone(), 2u) << "kill cycle " << kill_at;
    ASSERT_EQ(report.cells.size(), expected.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CampaignCellRecord &got = report.cells[i];
        EXPECT_EQ(got.attempts, 2u);
        // The cross-check proper: a run resumed from a mid-kernel
        // checkpoint reports the same cycle count as one that was
        // never interrupted.
        EXPECT_EQ(got.cycles, expected.cells[i].cycles)
            << got.configLabel << " killed at cycle " << kill_at;
        EXPECT_FALSE(got.checkpoint.empty());
    }
}

} // namespace
} // namespace si
