/**
 * @file
 * Deterministic parallel execution engine tests. Three layers:
 *
 *  - Executor contract: empty/one-cell batches run inline, jobs may
 *    exceed the cell count, ordered delivery is strict, every cell runs
 *    even when siblings throw, and the lowest-index exception is the
 *    one rethrown.
 *
 *  - Byte-identity: a fig12a-style mini-sweep (table render, stats
 *    JSON, retirement traces) and the 64-seed differential-test matrix
 *    must produce byte-identical output at --jobs 1/2/4/8. This is the
 *    enforcement half of the determinism contract in DESIGN.md §10.
 *
 *  - Concurrent campaign children: the final manifest is
 *    byte-identical at any jobs value, the chaos (fault-injected)
 *    campaign converges to the same manifest at jobs 1 and 4, a
 *    wall-budget overrun kills only its own child, and SIGKILLed first
 *    attempts all recover.
 *
 * Plus the index-keyed RNG stream handout regression: seed assignment
 * must be a pure function of (base, index), never of execution order.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "core/retire_trace.hh"
#include "fault/injector.hh"
#include "harness/campaign.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "parallel/executor.hh"
#include "ref/difftest.hh"

namespace si {
namespace {

using ::testing::HasSubstr;

// ---------------------------------------------------------------------
// Executor contract
// ---------------------------------------------------------------------

TEST(Executor, EmptyBatchReturnsEmptyAndNeverCallsWorker)
{
    std::atomic<unsigned> calls{0};
    const auto results = parallel::mapIndexed<int>(
        4, 0, [&](std::size_t) {
            ++calls;
            return 1;
        });
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(calls.load(), 0u);
}

TEST(Executor, SingleCellRunsInlineOnTheCaller)
{
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    const auto results = parallel::mapIndexed<int>(
        8, 1, [&](std::size_t i) {
            ran_on = std::this_thread::get_id();
            return int(i) + 41;
        });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], 41);
    EXPECT_EQ(ran_on, caller);
}

TEST(Executor, MoreJobsThanCells)
{
    std::vector<std::size_t> delivered;
    const auto results = parallel::mapIndexed<std::size_t>(
        8, 3, [](std::size_t i) { return i * i; },
        [&](std::size_t i, const std::size_t &) {
            delivered.push_back(i);
        });
    EXPECT_EQ(results, (std::vector<std::size_t>{0, 1, 4}));
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2}));

    // Workers are capped at the cell count, so a huge jobs value starts
    // three workers instead of exhausting memory on four billion.
    EXPECT_EQ(parallel::mapIndexed<std::size_t>(
                  std::numeric_limits<unsigned>::max(), 3,
                  [](std::size_t i) { return i + 1; }),
              (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Executor, OrderedDeliveryIsStrictUnderScrambledCompletion)
{
    // Later cells finish first (earlier indices sleep longer); the
    // in_order callback must still observe 0, 1, 2, ... exactly, and
    // every cell runs exactly once.
    const std::size_t n = 32;
    std::vector<std::atomic<unsigned>> runs(n);
    std::vector<std::size_t> delivered;
    const auto results = parallel::mapIndexed<std::size_t>(
        4, n,
        [&](std::size_t i) {
            ++runs[i];
            std::this_thread::sleep_for(
                std::chrono::microseconds(((n - i) % 5) * 400));
            return i;
        },
        [&](std::size_t i, const std::size_t &r) {
            EXPECT_EQ(i, r);
            delivered.push_back(i);
        });
    ASSERT_EQ(delivered.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(delivered[i], i);
        EXPECT_EQ(results[i], i);
        EXPECT_EQ(runs[i].load(), 1u) << "cell " << i;
    }
}

TEST(Executor, LowestIndexErrorRethrownAfterAllCellsFinish)
{
    // Cells 3 and 7 fail. Fault isolation: the other 14 still run to
    // completion and deliver in order; the rethrow picks index 3 (the
    // deterministic choice), never index 7, regardless of which worker
    // finished first.
    std::atomic<unsigned> executed{0};
    std::vector<std::size_t> delivered;
    try {
        parallel::mapIndexed<int>(
            4, 16,
            [&](std::size_t i) {
                ++executed;
                if (i == 7)
                    throw SimError(ErrorKind::Internal, "cell seven");
                if (i == 3)
                    throw SimError(ErrorKind::Livelock, "cell three");
                return int(i);
            },
            [&](std::size_t i, const int &) {
                delivered.push_back(i);
            });
        FAIL() << "mapIndexed should have rethrown";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Livelock);
        EXPECT_STREQ(e.what(), "cell three");
    }
    EXPECT_EQ(executed.load(), 16u);
    // Failed cells are skipped by delivery; everything else arrives in
    // index order.
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 16; ++i)
        if (i != 3 && i != 7)
            expected.push_back(i);
    EXPECT_EQ(delivered, expected);
}

TEST(Executor, ResolveJobs)
{
    EXPECT_GE(parallel::resolveJobs(0), 1u);
    EXPECT_EQ(parallel::resolveJobs(0), parallel::defaultJobs());
    EXPECT_EQ(parallel::resolveJobs(5), 5u);
}

// ---------------------------------------------------------------------
// Index-keyed RNG stream handout (regression: seed assignment must not
// depend on the order streams are claimed in)
// ---------------------------------------------------------------------

TEST(Rng, StreamSeedIsAPureFunctionOfBaseAndIndex)
{
    const std::uint64_t base = 12345;
    const unsigned n = 256;

    // Claiming streams in reverse (as a racing worker might) hands out
    // exactly the seeds a forward walk does.
    std::vector<std::uint64_t> forward(n), reverse(n);
    for (unsigned i = 0; i < n; ++i)
        forward[i] = Rng::streamSeed(base, i);
    for (unsigned i = n; i-- > 0;)
        reverse[i] = Rng::streamSeed(base, i);
    EXPECT_EQ(forward, reverse);

    // All streams distinct, and distinct from a different base's.
    std::set<std::uint64_t> uniq(forward.begin(), forward.end());
    EXPECT_EQ(uniq.size(), n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_NE(forward[i], Rng::streamSeed(base + 1, i));

    // Not an affine walk: consecutive seeds must not differ by a
    // constant stride (the old handout's failure mode — correlated
    // neighbor streams).
    std::set<std::uint64_t> strides;
    for (unsigned i = 1; i < n; ++i)
        strides.insert(forward[i] - forward[i - 1]);
    EXPECT_GT(strides.size(), n / 2);
}

// ---------------------------------------------------------------------
// Simulation helpers
// ---------------------------------------------------------------------

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

/** Spins making forward progress until the wall budget kills it. */
const char *kSpinForever = R"(
MOV R1, 0
loop:
IADD R1, R1, 1
BRA loop
EXIT
)";

Workload
makeWorkload(const std::string &name, const char *source = nullptr)
{
    Workload wl;
    wl.name = name;
    wl.program = assembleOrDie(source ? source : kDivergentLoads);
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

/** Stable text form of every retirement trace a run produced. */
std::string
traceDigest(const RetireTraceCollector &col)
{
    std::ostringstream out;
    for (const auto &[warp_id, warp] : col.traces()) {
        out << "w" << warp_id << ":";
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            out << " l" << lane << "=";
            for (const RetireEvent &ev : warp[lane])
                out << ev.pc << (ev.executed ? "x" : "-") << ",";
        }
        out << "\n";
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Byte-identity: mini-sweep, difftest matrix
// ---------------------------------------------------------------------

/**
 * A fig12a-style mini-sweep: one workload through baseline plus the
 * first two SI config points, driven by the bench binaries' own
 * bench::Grid and rendered the way they render it (the grid's stderr
 * notes, a TablePrinter, per-run stats JSON, retirement traces).
 * Returns one string capturing every byte of output the sweep
 * produces.
 */
std::string
miniSweepFingerprint(unsigned jobs)
{
    std::string arg0 = "mini_sweep", flag = "--jobs";
    std::string value = std::to_string(jobs);
    char *argv[] = {arg0.data(), flag.data(), value.data()};
    bench::BenchJson bj(arg0, 3, argv);

    // One trace collector per column: with a single row, each column
    // is exactly one run.
    const auto &points = siConfigPoints();
    std::vector<RetireTraceCollector> traces(3);
    std::vector<std::string> labels = {"base", points[0].label,
                                       points[1].label};
    bench::Grid grid(bj);
    grid.row("divloads", [] { return makeWorkload("divloads"); });
    GpuConfig base;
    base.numSms = 1;
    for (std::size_t c = 0; c < labels.size(); ++c) {
        GpuConfig cfg = c == 0 ? base : withSi(base, points[c - 1]);
        cfg.traceSink = &traces[c];
        grid.column(labels[c], cfg);
    }
    ::testing::internal::CaptureStderr();
    grid.run();
    std::string out = ::testing::internal::GetCapturedStderr();

    TablePrinter t("mini fig12a sweep");
    t.header({"trace", labels[1], labels[2]});
    grid.pctRows(t, {grid.speedups(0, 1), grid.speedups(0, 2)});
    out += t.render();
    for (std::size_t c = 0; c < labels.size(); ++c) {
        out += statsJson(grid.result(0, c), labels[c]) + "\n" +
               traceDigest(traces[c]);
    }
    return out;
}

TEST(ParallelEquivalence, MiniSweepByteIdenticalAtAnyJobs)
{
    const std::string serial = miniSweepFingerprint(1);
    EXPECT_THAT(serial, HasSubstr("si-stats-v1"));
    EXPECT_THAT(serial, HasSubstr("[swept divloads]"));
    for (unsigned jobs : {2u, 4u, 8u})
        EXPECT_EQ(serial, miniSweepFingerprint(jobs))
            << "mini-sweep output diverged at jobs=" << jobs;
}

/**
 * The differential-test matrix over @p seeds generated kernels, with
 * per-seed records serialized in seed order — the in-process analogue
 * of `difftest --seeds N --jobs J` stdout.
 */
std::string
difftestMatrixLog(unsigned jobs, unsigned seeds)
{
    std::string out;
    parallel::mapIndexed<std::string>(
        jobs, seeds,
        [&](std::size_t seed) {
            const DiffResult r = diffSeed(std::uint64_t(seed));
            std::string rec =
                "seed " + std::to_string(seed) + ": " +
                (r.agree ? "agree" : "DIVERGED");
            if (!r.agree)
                rec += " at " + r.point + " (" + r.detail + ")";
            return rec + "\n";
        },
        [&](std::size_t, const std::string &rec) { out += rec; });
    return out;
}

TEST(ParallelEquivalence, DifftestMatrixByteIdenticalAtAnyJobs)
{
    const unsigned seeds = 64;
    const std::string serial = difftestMatrixLog(1, seeds);
    EXPECT_THAT(serial, HasSubstr("seed 0: "));
    EXPECT_THAT(serial, HasSubstr("seed 63: "));
    for (unsigned jobs : {2u, 4u, 8u})
        EXPECT_EQ(serial, difftestMatrixLog(jobs, seeds))
            << "difftest matrix diverged at jobs=" << jobs;
}

// ---------------------------------------------------------------------
// Concurrent campaign children
// ---------------------------------------------------------------------

/** Run a campaign over @p suite x makeConfigs() at @p jobs in a freshly
 *  emptied opts.stateDir; @return the final manifest text. */
std::string
campaignManifest(const std::vector<Workload> &suite, CampaignOptions opts,
                 unsigned jobs, CampaignReport *report = nullptr)
{
    std::filesystem::remove_all(opts.stateDir);
    opts.jobs = jobs;
    CampaignRunner runner(suite, makeConfigs(), opts);
    const CampaignReport r = runner.run();
    if (report)
        *report = r;
    return slurp(opts.stateDir + "/campaign.json");
}

TEST(CampaignParallel, ManifestByteIdenticalAtJobsOneAndTwo)
{
    // Healthy cells: two concurrent children must leave the manifest
    // one child at a time leaves, byte for byte. Sequential runs share
    // the state-dir name so recorded paths cannot differ.
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_jobs");
    const std::vector<Workload> suite = {makeWorkload("divA"),
                                         makeWorkload("divB")};

    CampaignReport serial_report, par_report;
    const std::string serial =
        campaignManifest(suite, opts, 1, &serial_report);
    const std::string par = campaignManifest(suite, opts, 2, &par_report);

    EXPECT_TRUE(serial_report.complete);
    EXPECT_TRUE(par_report.complete);
    EXPECT_EQ(serial_report.numDone(), 4u);
    EXPECT_EQ(serial, par);
    EXPECT_EQ(CampaignRunner::manifestJson(serial_report),
              CampaignRunner::manifestJson(par_report));
}

/** The swsim --campaign-inject setup, faulting from cycle 1. */
CampaignOptions
chaosOptions(const std::string &state_dir)
{
    CampaignOptions opts;
    opts.stateDir = state_dir;
    opts.maxRetries = 2;
    opts.faultInjectionActive = true;
    opts.childConfigHook =
        faultFirstAttempt(FaultKind::ScoreboardCorruption, 1);
    return opts;
}

TEST(CampaignParallel, ChaosManifestMatchesSerialCellForCell)
{
    // Fault-injected cells at jobs=4 must converge to the exact
    // manifest the serial (jobs=1) chaos campaign produces — same
    // attempts, same detector classifications, same cycles.
    const CampaignOptions opts =
        chaosOptions(freshStateDir("campaign_chaos_jobs"));
    const std::vector<Workload> suite = {makeWorkload("divA"),
                                         makeWorkload("divB")};

    CampaignReport serial_report, par_report;
    const std::string serial_manifest =
        campaignManifest(suite, opts, 1, &serial_report);
    const std::string par_manifest =
        campaignManifest(suite, opts, 4, &par_report);

    EXPECT_TRUE(serial_report.complete);
    EXPECT_TRUE(par_report.complete);
    EXPECT_EQ(serial_manifest, par_manifest);

    ASSERT_EQ(serial_report.cells.size(), par_report.cells.size());
    unsigned retried = 0;
    for (std::size_t i = 0; i < serial_report.cells.size(); ++i) {
        const auto &s = serial_report.cells[i];
        const auto &p = par_report.cells[i];
        EXPECT_EQ(s.workload, p.workload);
        EXPECT_EQ(s.configLabel, p.configLabel);
        EXPECT_EQ(s.state, p.state);
        EXPECT_EQ(s.attempts, p.attempts);
        EXPECT_EQ(s.kind, p.kind);
        EXPECT_EQ(s.cycles, p.cycles);
        EXPECT_TRUE(s.done()) << s.workload << "/" << s.configLabel;
        if (s.attempts > 1)
            ++retried;
    }
    // The injector must actually have bitten somewhere, or this test
    // is vacuously comparing two healthy campaigns.
    EXPECT_GT(retried, 0u);
}

TEST(CampaignParallel, WallBudgetKillsRunawayWithoutPoisoningSiblings)
{
    // One runaway cell under a tiny wall budget is SIGKILLed and fails
    // as ChildTimeout while its concurrent sibling completes normally.
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_wallclock");
    opts.cellTimeoutSec = 0.2;
    opts.maxRetries = 0;
    opts.jobs = 2;

    GpuConfig cfg;
    cfg.numSms = 1;
    const std::vector<Workload> suite = {
        makeWorkload("healthy"), makeWorkload("runaway", kSpinForever)};
    CampaignRunner runner(suite, {{"base", cfg}}, opts);
    const CampaignReport report = runner.run();

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[0].done());
    EXPECT_TRUE(report.cells[1].failed());
    EXPECT_EQ(report.cells[1].kind, ErrorKind::ChildTimeout);
}

TEST(CampaignParallel, SigkilledFirstAttemptsAllRecover)
{
    // Every cell's first attempt dies on SIGKILL while another child
    // is running. Each death stays in its own process: every cell is
    // retried and lands on the cycles of an undisturbed campaign.
    CampaignOptions opts;
    opts.stateDir = freshStateDir("campaign_sigkill_jobs");
    const std::vector<Workload> suite = {makeWorkload("divA"),
                                         makeWorkload("divB")};
    CampaignReport clean;
    campaignManifest(suite, opts, 2, &clean);

    opts.childConfigHook = [](GpuConfig &, const CampaignCellRecord &,
                              unsigned attempt) {
        if (attempt == 1)
            raise(SIGKILL);
    };
    CampaignReport report;
    campaignManifest(suite, opts, 2, &report);

    EXPECT_TRUE(report.complete);
    ASSERT_EQ(report.cells.size(), clean.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CampaignCellRecord &cell = report.cells[i];
        EXPECT_TRUE(cell.done()) << cell.workload << "/" << cell.configLabel;
        EXPECT_EQ(cell.attempts, 2u);
        EXPECT_EQ(cell.cycles, clean.cells[i].cycles);
    }
}

} // namespace
} // namespace si
