/**
 * @file
 * Golden-statistics regression test: runs the Figure 9/10 walkthrough
 * (baseline, SI, SI+yield) and the three example kernels under fixed
 * configurations, renders the full counter set as stable key-value
 * text, and compares against checked-in snapshots in tests/golden/.
 * A two-SM fig9 SI run also pins the exact bytes of the statistics
 * exports: the statsReport text, the si-stats-v1 document, and an
 * FNV-1a digest of a mid-run checkpoint (whose Stats sections are
 * SmStats::save's layout).
 *
 * To regenerate snapshots after an intentional timing-model change:
 *
 *   ./test_golden_stats --update-golden      (or SI_UPDATE_GOLDEN=1)
 *
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gpu.hh"
#include "harness/report.hh"
#include "isa/assembler.hh"
#include "snapshot/snapshot.hh"

using namespace si;

namespace {

bool update_golden = false;

std::string
goldenPath(const std::string &name, const std::string &ext = ".txt")
{
    return std::string(SI_GOLDEN_DIR) + "/" + name + ext;
}

std::string
kernelPath(const std::string &name)
{
    return std::string(SI_KERNELS_DIR) + "/" + name + ".sasm";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Render every counter as one "key value" line, fixed order. */
std::string
renderStats(const GpuResult &r)
{
    const SmStats &t = r.total;
    std::ostringstream o;
    o << "cycles " << r.cycles << "\n"
      << "timedOut " << (r.timedOut ? 1 : 0) << "\n"
      << "instrsIssued " << t.instrsIssued << "\n"
      << "warpsRetired " << t.warpsRetired << "\n"
      << "noIssueCycles " << t.noIssueCycles << "\n"
      << "exposedLoadStallCycles " << t.exposedLoadStallCycles << "\n"
      << "exposedFetchStallCycles " << t.exposedFetchStallCycles << "\n"
      << "warpScoreboardStallCycles " << t.warpScoreboardStallCycles()
      << "\n"
      << "warpPipeStallCycles " << t.warpPipeStallCycles() << "\n"
      << "warpFetchStallCycles " << t.warpFetchStallCycles() << "\n"
      << "warpSwitchCycles " << t.warpSwitchCycles() << "\n"
      << "ldgIssued " << t.ldgIssued << "\n"
      << "texIssued " << t.texIssued << "\n"
      << "stgIssued " << t.stgIssued << "\n"
      << "rtQueriesIssued " << t.rtQueriesIssued << "\n"
      << "gmemTransactions " << t.gmemTransactions << "\n"
      << "divergentBranches " << t.divergentBranches << "\n"
      << "reconvergences " << t.reconvergences << "\n"
      << "subwarpSelects " << t.subwarpSelects << "\n"
      << "subwarpStalls " << t.subwarpStalls << "\n"
      << "subwarpWakeups " << t.subwarpWakeups << "\n"
      << "subwarpYields " << t.subwarpYields << "\n"
      << "tstFullDenials " << t.tstFullDenials << "\n"
      << "l1dHits " << t.l1dHits << "\n"
      << "l1dMisses " << t.l1dMisses << "\n"
      << "l1iHits " << t.l1iHits << "\n"
      << "l1iMisses " << t.l1iMisses << "\n"
      << "l0iHits " << t.l0iHits << "\n"
      << "l0iMisses " << t.l0iMisses << "\n";
    return o.str();
}

/** Compare @p got with the golden file @p name + @p ext. */
void
checkGoldenText(const std::string &name, const std::string &got,
                const std::string &ext = ".txt")
{
    const std::string path = goldenPath(name, ext);
    if (update_golden) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        return;
    }
    const std::string want = readFile(path);
    ASSERT_FALSE(want.empty())
        << path << " missing — run with --update-golden to create it";
    EXPECT_EQ(got, want)
        << name << " changed; if intentional, regenerate with "
        << "--update-golden and review the diff";
}

void
checkGolden(const std::string &name, const GpuResult &r)
{
    checkGoldenText(name, renderStats(r));
}

// The Figure 9 walkthrough kernel (same shape as
// test_fig10_walkthrough): divergent if/else with a long-latency
// texture op and a dependent use on each path.
std::string
fig9(bool with_yield)
{
    const char *yield_hint = with_yield ? "    YIELD\n" : "";
    return std::string(R"(
.kernel fig9
.regs 24
    S2R R0, LANEID
    S2R R8, TID
    SHL R9, R8, 8
    ISETP.LT P0, R0, 16
    BSSY B0, syncPoint
    @P0 BRA Else
    TLD R2, R0, R9 &wr=sb5
)") + yield_hint + R"(
    FMUL R10, R5, 2.0
    FMUL R2, R2, R10 &req=sb5
    BRA syncPoint
Else:
    TEX R1, R8, R9 &wr=sb2
)" + yield_hint + R"(
    FADD R1, R1, R3 &req=sb2
    BRA syncPoint
syncPoint:
    BSYNC B0
    EXIT
)";
}

GpuResult
runFig10(bool si, bool yield)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = si;
    cfg.yieldEnabled = yield;
    cfg.trigger = SelectTrigger::AllStalled;
    Memory mem;
    return simulate(cfg, mem, assembleOrDie(fig9(yield)), {1, 1});
}

GpuResult
runKernelFile(const std::string &name, bool si)
{
    const std::string src = readFile(kernelPath(name));
    EXPECT_FALSE(src.empty()) << kernelPath(name);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = si;
    cfg.yieldEnabled = si;
    cfg.trigger = SelectTrigger::HalfStalled;
    Memory mem;
    return simulate(cfg, mem, assembleOrDie(src), {4, 4});
}

/** Cycle the export goldens' checkpoint is frozen at (mid-run). */
constexpr Cycle kCheckpointCycle = 400;

/**
 * The fig9 kernel under runKernelFile's SI config on two SMs, so the
 * aggregate folds (sums, the cycles max) are exercised; @p checkpoint
 * receives the container frozen at kCheckpointCycle.
 */
GpuResult
runFig9TwoSms(std::string *checkpoint = nullptr,
              std::vector<std::string> *region_names = nullptr)
{
    const Program prog = assembleOrDie(readFile(kernelPath("fig9")));
    if (region_names)
        *region_names = prog.regionNames();
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.siEnabled = true;
    cfg.yieldEnabled = true;
    cfg.trigger = SelectTrigger::HalfStalled;
    if (checkpoint) {
        cfg.checkpointInterval = 1;
        cfg.checkpointHook = [checkpoint](const Gpu &gpu, Cycle now) {
            if (now != kCheckpointCycle)
                return;
            SnapshotWriter w;
            gpu.save(w);
            *checkpoint = w.finish();
        };
    }
    Memory mem;
    return simulate(cfg, mem, prog, {4, 4});
}

} // namespace

TEST(GoldenStats, Fig9StatsReport)
{
    const GpuResult r = runFig9TwoSms();
    ASSERT_TRUE(r.ok()) << r.status.summary();
    checkGoldenText("fig9_si_report", statsReport(r));
}

TEST(GoldenStats, Fig9StatsJson)
{
    StatsJsonOptions opts;
    const GpuResult r = runFig9TwoSms(nullptr, &opts.regionNames);
    ASSERT_TRUE(r.ok()) << r.status.summary();
    checkGoldenText("fig9_si_stats", statsJson(r, "fig9", opts) + "\n",
                    ".json");
}

TEST(GoldenStats, Fig9CheckpointDigest)
{
    std::string container;
    const GpuResult r = runFig9TwoSms(&container);
    ASSERT_TRUE(r.ok()) << r.status.summary();
    ASSERT_FALSE(container.empty())
        << "run retired before cycle " << kCheckpointCycle;
    Fnv1a h;
    h.update(container);
    char line[64];
    std::snprintf(line, sizeof(line), "cycle %llu bytes %zu fnv1a %016llx\n",
                  (unsigned long long)kCheckpointCycle, container.size(),
                  (unsigned long long)h.digest());
    checkGoldenText("fig9_si_checkpoint", line);
}

TEST(GoldenStats, Fig10Baseline)
{
    checkGolden("fig10_baseline", runFig10(false, false));
}

TEST(GoldenStats, Fig10Si)
{
    checkGolden("fig10_si", runFig10(true, false));
}

TEST(GoldenStats, Fig10SiYield)
{
    checkGolden("fig10_si_yield", runFig10(true, true));
}

TEST(GoldenStats, Fig9KernelSi)
{
    checkGolden("fig9_si", runKernelFile("fig9", true));
}

TEST(GoldenStats, ReductionKernelSi)
{
    checkGolden("reduction_si", runKernelFile("reduction", true));
}

TEST(GoldenStats, SkewedKernelSi)
{
    checkGolden("skewed_si", runKernelFile("skewed", true));
}

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            update_golden = true;
    if (std::getenv("SI_UPDATE_GOLDEN") != nullptr)
        update_golden = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
