/**
 * @file
 * Event-driven fast-forward equivalence suite. The cycle-leap engine
 * (core/gpu.cc) promises to be invisible everywhere except wall-clock:
 * every statistic, metrics window, snapshot, and retirement trace must
 * be bit-identical between a fast-forwarded run and a faithful
 * per-cycle run. These tests enforce that contract directly — across
 * generated kernels on the full difftest matrix, on a memory-latency-
 * dominated kernel that leaps through >90% of its cycles, through
 * windowed metrics, across checkpoints taken mid-quiet-stretch, and
 * under fault injection (the injector's horizon pin makes it corrupt
 * the same victim at the same cycle in both modes). Trace sinks and the
 * race sanitizer need no pin, because neither fires on a quiet cycle:
 * the full event stream, the race report, the per-pc stall table, and
 * the reports built on them match across modes.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/retire_trace.hh"
#include "fault/injector.hh"
#include "harness/report.hh"
#include "isa/assembler.hh"
#include "metrics/sampler.hh"
#include "race/detector.hh"
#include "ref/difftest.hh"
#include "ref/kernelgen.hh"
#include "snapshot/snapshot.hh"
#include "trace/chrome_trace.hh"
#include "trace/sinks.hh"

using namespace si;

namespace {

/** The memory-latency-dominated load chain (kernels/memlat.sasm). */
const char *memlatSource = R"(
.kernel memlat
.regs 16
    S2R R0, TID
    SHL R1, R0, 12
    MOV R2, 0x20000000
    IADD R1, R1, R2
    MOV R10, 0.0
    MOV R3, 16
loop:
    LDG R4, [R1+0] &wr=sb0
    FADD R10, R10, R4 &req=sb0
    IADD R1, R1, 512
    IADD R3, R3, -1
    ISETP.GT P0, R3, 0
    @P0 BRA loop
    EXIT
)";

/** The paper's Figure 9 kernel (kernels/fig9.sasm). */
const char *fig9Source = R"(
.kernel fig9
.regs 24
    S2R R0, LANEID
    S2R R8, TID
    SHL R9, R8, 8
    ISETP.LT P0, R0, 16
    BSSY B0, syncPoint
    @P0 BRA Else
    TLD R2, R0, R9 &wr=sb5
    FMUL R10, R5, 2.0
    FMUL R2, R2, R10 &req=sb5
    BRA syncPoint
Else:
    TEX R1, R8, R9 &wr=sb2
    FADD R1, R1, R3 &req=sb2
    BRA syncPoint
syncPoint:
    BSYNC B0
    EXIT
)";

/**
 * Four-way divergence under one barrier, a load and its use on every
 * path: with a one-entry TST, stall demotions get denied.
 */
const char *split4Source = R"(
.kernel split4
.regs 16
    S2R R0, LANEID
    S2R R8, TID
    SHL R9, R8, 8
    AND R1, R0, 3
    BSSY B0, join
    ISETP.EQ P0, R1, 0
    @P0 BRA A
    ISETP.EQ P1, R1, 1
    @P1 BRA B
    ISETP.EQ P2, R1, 2
    @P2 BRA C
    TEX R2, R8, R9 &wr=sb0
    FADD R2, R2, R2 &req=sb0
    BRA join
A:
    TEX R3, R0, R9 &wr=sb1
    FADD R3, R3, R3 &req=sb1
    BRA join
B:
    TEX R4, R8, R0 &wr=sb2
    FADD R4, R4, R4 &req=sb2
    BRA join
C:
    TEX R5, R0, R0 &wr=sb3
    FADD R5, R5, R5 &req=sb3
    BRA join
join:
    BSYNC B0
    EXIT
)";

/**
 * Sibling arms race on one word (tests/regress/si_order_dependent.sasm):
 * lane k's store is lane k+16's load address.
 */
const char *racySource = R"(
.kernel si_order_dependent
.regs 16
    S2R R0, LANEID
    S2R R1, TID
    SHL R2, R1, 2
    MOV R3, 0x20000000
    IADD R2, R2, R3
    ISETP.LT P0, R0, 16
    BSSY B0, conv
    @!P0 BRA ReadArm
    MOV R5, 7
    STG [R2+64], R5
    BRA conv
ReadArm:
    LDG R4, [R2+0] &wr=sb0
    IADD R6, R4, 1 &req=sb0
conv:
    BSYNC B0
    EXIT
)";

GpuConfig
memlatConfig()
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.lat.l1Miss = 2000;
    return cfg;
}

/** Everything one run produces that the contract covers. */
struct RunArtifacts
{
    GpuResult result;
    Memory mem;
    std::map<unsigned, WarpRetireTrace> traces;
    std::vector<TraceEvent> events;
    std::string statsJson;
    std::string stallReport;
    std::uint64_t leaps = 0;
    std::uint64_t skipped = 0;
};

RunArtifacts
runOnce(const Program &prog, GpuConfig cfg, bool fast_forward,
        unsigned warps = 16)
{
    RunArtifacts a;
    cfg.fastForward = fast_forward;
    a.mem = makeInputImage(99);
    RetireTraceCollector col;
    VectorSink all;
    TeeSink tee(col, all);
    cfg.traceSink = &tee;
    Gpu gpu(cfg, a.mem);
    a.result = gpu.run(prog, LaunchParams{warps, 4});
    a.traces = col.traces();
    a.events = all.events();
    a.statsJson = statsJson(a.result, prog.name(), {});
    a.stallReport = stallReport(a.result, prog);
    a.leaps = gpu.fastForwardLeaps();
    a.skipped = gpu.fastForwardCyclesSkipped();
    return a;
}

/** Assert two runs are indistinguishable in every observable. */
void
expectIdentical(const RunArtifacts &on, const RunArtifacts &off,
                const std::string &label)
{
    EXPECT_EQ(on.result.ok(), off.result.ok()) << label;
    EXPECT_EQ(on.result.cycles, off.result.cycles) << label;
    EXPECT_EQ(on.statsJson, off.statsJson) << label;
    Addr diff_addr = 0;
    EXPECT_FALSE(on.mem.firstDifference(off.mem, diff_addr))
        << label << ": memory differs at 0x" << std::hex << diff_addr;
    EXPECT_EQ(on.traces, off.traces) << label;
    EXPECT_TRUE(on.events == off.events) << label << ": trace streams differ";
    EXPECT_EQ(on.result.stallsByPc, off.result.stallsByPc) << label;
    EXPECT_EQ(on.stallReport, off.stallReport) << label;
}

} // namespace

TEST(FastForward, GeneratedKernelsBitIdenticalAcrossTheMatrix)
{
    // CI re-runs this contract at 256 seeds via the difftest
    // --fast-forward=off sweep (ci.sh check_fastforward); this is the
    // in-tree smoke version. The matrix covers SI on/off x {2,4,8}
    // warp slots.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Program prog = generateKernel(seed);
        for (const DiffPoint &pt : diffMatrix()) {
            const RunArtifacts on = runOnce(prog, pt.config, true);
            const RunArtifacts off = runOnce(prog, pt.config, false);
            expectIdentical(on, off,
                            "seed " + std::to_string(seed) + " @ " +
                                pt.name);
            EXPECT_EQ(off.leaps, 0u);
        }
    }
}

TEST(FastForward, CachedStatusesPassTheStaleCacheAuditEveryCycle)
{
    // Warps are re-evaluated only when something they wait on changes.
    // The audit's stale-cache oracle re-derives every skipped warp's
    // status at every cycle boundary: it must find nothing, and
    // auditing must not perturb the run.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Program prog = generateKernel(seed);
        for (const DiffPoint &pt : diffMatrix()) {
            GpuConfig audited = pt.config;
            audited.checkInvariants = true;
            audited.invariantCheckInterval = 1;
            const RunArtifacts plain = runOnce(prog, pt.config, true);
            const RunArtifacts checked = runOnce(prog, audited, true);
            const std::string label =
                "seed " + std::to_string(seed) + " @ " + pt.name;
            EXPECT_NE(checked.result.status.kind,
                      ErrorKind::InvariantViolation)
                << label << ": " << checked.result.status.diagnostic;
            EXPECT_EQ(checked.result.status.kind, plain.result.status.kind)
                << label;
            EXPECT_TRUE(checked.result.perSm == plain.result.perSm)
                << label;
        }
    }
}

TEST(FastForward, HighLatencyRunLeapsAndStaysBitIdentical)
{
    const Program prog = assembleOrDie(memlatSource);
    const RunArtifacts on = runOnce(prog, memlatConfig(), true, 8);
    const RunArtifacts off = runOnce(prog, memlatConfig(), false, 8);
    expectIdentical(on, off, "memlat");

    // The engine must actually engage: a load chain at a 2000-cycle
    // miss latency is quiet almost everywhere.
    EXPECT_GT(on.leaps, 0u);
    EXPECT_GT(on.skipped, on.result.cycles / 2)
        << "leaps: " << on.leaps;
    EXPECT_EQ(off.leaps, 0u);
    EXPECT_EQ(off.skipped, 0u);
}

TEST(FastForward, StallTableAndTraceExactWhileLeaping)
{
    // swprof's report and swsim --trace-out's Chrome trace come from a
    // leaping run; they must match the faithful run's byte for byte.
    // fig9 runs with SI on; split4 with a one-entry TST, so demotions
    // are denied and TstFull (edge-triggered) fires. The split4 cases
    // cover every branch of the leap's denial back-fill (each selection
    // trigger, and the DWS free-slot gate) with denials credited.
    GpuConfig fig9_si;
    fig9_si.numSms = 1;
    fig9_si.siEnabled = true;
    fig9_si.yieldEnabled = true;
    GpuConfig tst1 = fig9_si;
    tst1.maxSubwarps = 1;
    tst1.trigger = SelectTrigger::AnyStalled;
    GpuConfig tst1_half = tst1;
    tst1_half.trigger = SelectTrigger::HalfStalled;
    tst1_half.pbsPerSm = 1; // eight residents: the half trigger can miss
    GpuConfig tst1_all = tst1;
    tst1_all.trigger = SelectTrigger::AllStalled;
    GpuConfig tst1_dws = tst1;
    tst1_dws.dwsEnabled = true;
    tst1_dws.warpSlotsPerPb = 4; // two residents: the gate opens and shuts
    struct Case
    {
        const char *name;
        const char *source;
        GpuConfig cfg;
    };
    const Case cases[] = {{"memlat", memlatSource, memlatConfig()},
                          {"fig9", fig9Source, fig9_si},
                          {"split4-tst1", split4Source, tst1},
                          {"split4-tst1-half", split4Source, tst1_half},
                          {"split4-tst1-all", split4Source, tst1_all},
                          {"split4-tst1-dws", split4Source, tst1_dws}};
    for (const Case &c : cases) {
        const Program prog = assembleOrDie(c.source);
        const RunArtifacts on = runOnce(prog, c.cfg, true, 8);
        const RunArtifacts off = runOnce(prog, c.cfg, false, 8);
        ASSERT_TRUE(on.result.ok()) << c.name;
        expectIdentical(on, off, c.name);
        EXPECT_EQ(chromeTraceJson(on.events, &prog),
                  chromeTraceJson(off.events, &prog))
            << c.name;
        EXPECT_GT(on.leaps, 0u) << c.name;
        EXPECT_FALSE(on.result.stallsByPc.empty()) << c.name;
        if (c.cfg.maxSubwarps == 1) {
            EXPECT_GT(on.result.total.tstFullDenials, 0u) << c.name;
        }
    }

    // The one-entry TST really does deny demotions, and TstFull fires
    // at most once per denial streak, not once per denied cycle.
    const Program prog = assembleOrDie(split4Source);
    const RunArtifacts run = runOnce(prog, tst1, true, 8);
    std::uint64_t tst_full_events = 0;
    for (const TraceEvent &ev : run.events)
        tst_full_events += ev.kind == TraceEventKind::TstFull;
    EXPECT_GT(tst_full_events, 0u);
    EXPECT_LT(tst_full_events, run.result.total.tstFullDenials);
}

TEST(FastForward, BackFillPreservesTheWarpCyclePartition)
{
    // The zero-residual identity every profdiff rests on:
    //   liveWarpCycles == instrsIssued + arbLossCycles + sum(stalls)
    // must survive closed-form back-fill.
    const Program prog = assembleOrDie(memlatSource);
    const RunArtifacts on = runOnce(prog, memlatConfig(), true, 8);
    for (const SmStats &s : on.result.perSm) {
        std::uint64_t stalls = 0;
        for (std::uint64_t c : s.stallCyclesByReason)
            stalls += c;
        EXPECT_EQ(s.liveWarpCycles,
                  s.instrsIssued + s.arbLossCycles + stalls);
    }
}

TEST(FastForward, MetricsWindowSeriesBitIdentical)
{
    // Window edges are horizon pins: the sampler must observe the same
    // cycles, in the same order, with the same deltas, in both modes.
    const Program prog = assembleOrDie(memlatSource);
    std::string json_by_mode[2];
    std::uint64_t leaps_on = 0;
    for (bool ff : {true, false}) {
        GpuConfig cfg = memlatConfig();
        cfg.fastForward = ff;
        MetricsSampler sampler(64, 4096);
        cfg.metricsSampler = &sampler;
        Memory mem = makeInputImage(99);
        Gpu gpu(cfg, mem);
        const GpuResult r = gpu.run(prog, LaunchParams{8, 4});
        ASSERT_TRUE(r.ok());
        json_by_mode[ff ? 0 : 1] = metricsJson(sampler, "memlat", {});
        if (ff)
            leaps_on = gpu.fastForwardLeaps();
    }
    EXPECT_EQ(json_by_mode[0], json_by_mode[1]);
    // Pinning to window edges must not kill leaping between them.
    EXPECT_GT(leaps_on, 0u);
}

TEST(FastForward, CheckpointsAreByteIdenticalAcrossModes)
{
    // Checkpoint boundaries are leap barriers: every snapshot a
    // fast-forwarded run writes must be byte-identical to the one the
    // faithful run writes at the same cycle — even when the boundary
    // falls mid-quiet-stretch, as interval 100 guarantees at a
    // 2000-cycle miss latency.
    const Program prog = assembleOrDie(memlatSource);
    std::map<Cycle, std::string> snaps_by_mode[2];
    std::string final_stats[2];
    for (bool ff : {true, false}) {
        GpuConfig cfg = memlatConfig();
        cfg.fastForward = ff;
        cfg.checkpointInterval = 100;
        std::map<Cycle, std::string> &snaps =
            snaps_by_mode[ff ? 0 : 1];
        cfg.checkpointHook = [&snaps](const Gpu &gpu, Cycle now) {
            SnapshotWriter w;
            gpu.save(w);
            snaps[now] = w.finish();
        };
        Memory mem = makeInputImage(99);
        Gpu gpu(cfg, mem);
        const GpuResult r = gpu.run(prog, LaunchParams{8, 4});
        ASSERT_TRUE(r.ok());
        final_stats[ff ? 0 : 1] = statsJson(r, prog.name(), {});
    }
    ASSERT_FALSE(snaps_by_mode[0].empty());
    EXPECT_EQ(snaps_by_mode[0].size(), snaps_by_mode[1].size());
    EXPECT_EQ(snaps_by_mode[0], snaps_by_mode[1]);
    EXPECT_EQ(final_stats[0], final_stats[1]);
}

TEST(FastForward, ResumeFromMidLeapCheckpointIsBitExact)
{
    // Freeze a fast-forwarded run mid-quiet-stretch, thaw it in both
    // modes, and require the continuation to land exactly where the
    // uninterrupted run did.
    const Program prog = assembleOrDie(memlatSource);
    const RunArtifacts whole = runOnce(prog, memlatConfig(), true, 8);

    std::map<Cycle, std::string> snaps;
    GpuConfig cfg = memlatConfig();
    cfg.checkpointInterval = 300;
    cfg.checkpointHook = [&snaps](const Gpu &gpu, Cycle now) {
        SnapshotWriter w;
        gpu.save(w);
        snaps[now] = w.finish();
    };
    {
        Memory mem = makeInputImage(99);
        Gpu gpu(cfg, mem);
        ASSERT_TRUE(gpu.run(prog, LaunchParams{8, 4}).ok());
    }
    ASSERT_GE(snaps.size(), 2u);
    const std::string &container = snaps.rbegin()->second;

    for (bool ff : {true, false}) {
        GpuConfig resume_cfg = memlatConfig();
        resume_cfg.fastForward = ff;
        Memory mem; // restore() overwrites the image wholesale
        RetireTraceCollector col;
        resume_cfg.traceSink = &col;
        Gpu gpu(resume_cfg, mem);
        const GpuResult r =
            gpu.runMulti({{&prog, LaunchParams{8, 4}}}, &container);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.cycles, whole.result.cycles);
        Addr diff_addr = 0;
        EXPECT_FALSE(whole.mem.firstDifference(mem, diff_addr))
            << "resume(ff=" << ff << ") memory differs at 0x"
            << std::hex << diff_addr;
    }
}

TEST(FastForward, FaultInjectionLeapsAndInjectsAtTheSameCycle)
{
    // An armed injector pins the horizon to its earliest cycle, so a
    // leaping run corrupts the same victim at the same cycle as a
    // per-cycle run, and leaps again once the fault has fired. The
    // memlat@1500 cases arm the injector inside a quiet stretch.
    GpuConfig fig9_si;
    fig9_si.numSms = 1;
    fig9_si.siEnabled = true;
    fig9_si.yieldEnabled = true;
    const struct
    {
        const char *name;
        const char *source;
        GpuConfig cfg;
        Cycle earliest;
    } cases[] = {{"fig9-si", fig9Source, fig9_si, 500},
                 {"memlat", memlatSource, memlatConfig(), 500},
                 {"memlat@1500", memlatSource, memlatConfig(), 1500}};
    for (const auto &c : cases) {
        const Program prog = assembleOrDie(c.source);
        for (const auto &[cli_name, kind] : faultKindCliNames()) {
            const std::string label =
                std::string(c.name) + " --inject " + cli_name;
            std::string description[2];
            GpuResult result[2];
            for (bool ff : {true, false}) {
                GpuConfig cfg = c.cfg;
                cfg.fastForward = ff;
                cfg.checkInvariants = true;
                FaultInjector injector(FaultSpec{kind, c.earliest, 7});
                cfg.faultHook = injector.hook();
                Memory mem = makeInputImage(99);
                Gpu gpu(cfg, mem);
                result[ff ? 0 : 1] = gpu.run(prog, LaunchParams{8, 4});
                description[ff ? 0 : 1] = injector.description();
                if (ff) {
                    EXPECT_GT(gpu.fastForwardLeaps(), 0u) << label;
                }
            }
            // memlat has no convergence barrier to corrupt.
            const bool fires = kind != FaultKind::BarrierMaskCorruption ||
                               c.source == fig9Source;
            EXPECT_EQ(description[0].empty(), !fires) << label;
            EXPECT_EQ(description[0], description[1]) << label;
            EXPECT_EQ(result[0].status.kind, result[1].status.kind)
                << label;
            EXPECT_EQ(result[0].status.message, result[1].status.message)
                << label;
            EXPECT_EQ(result[0].cycles, result[1].cycles) << label;
            EXPECT_TRUE(result[0].perSm == result[1].perSm) << label;
        }
    }
}

TEST(FastForward, RaceSanitizerLeapsWithTheFaithfulReport)
{
    // The race hooks fire only at issue and at BSYNC or barrier
    // release, never on a quiet cycle: a sanitized run leaps, and its
    // report and statistics are the per-cycle run's.
    GpuConfig si = memlatConfig();
    si.siEnabled = true;
    const struct
    {
        const char *name;
        const char *source;
        GpuConfig cfg;
        bool racy;
    } cases[] = {{"memlat", memlatSource, memlatConfig(), false},
                 {"racy-si", racySource, si, true}};
    for (const auto &c : cases) {
        const Program prog = assembleOrDie(c.source);
        std::string report[2];
        std::vector<SmStats> stats[2];
        for (bool ff : {true, false}) {
            GpuConfig cfg = c.cfg;
            cfg.fastForward = ff;
            RaceDetector det;
            cfg.raceHooks = &det;
            Memory mem = makeInputImage(99);
            Gpu gpu(cfg, mem);
            const GpuResult r = gpu.run(prog, LaunchParams{8, 4});
            ASSERT_TRUE(r.ok()) << c.name;
            report[ff ? 0 : 1] = det.report();
            stats[ff ? 0 : 1] = r.perSm;
            if (ff) {
                EXPECT_GT(gpu.fastForwardLeaps(), 0u) << c.name;
            }
        }
        EXPECT_EQ(report[0], report[1]) << c.name;
        EXPECT_EQ(report[0].empty(), !c.racy) << c.name;
        EXPECT_TRUE(stats[0] == stats[1]) << c.name;
    }
}

TEST(FastForward, TraceSinksDoNotPinFaithfulMode)
{
    // No trace event fires on a quiet cycle, so a sink — whether it
    // records the whole stream or, like the differential oracle's
    // retirement collector, only Issue events — leaves leaping on.
    const Program prog = assembleOrDie(memlatSource);
    RingBufferSink ring(1 << 12);
    RetireTraceCollector col;
    for (TraceSink *sink : {static_cast<TraceSink *>(&ring),
                            static_cast<TraceSink *>(&col)}) {
        GpuConfig cfg = memlatConfig();
        cfg.traceSink = sink;
        Memory mem = makeInputImage(99);
        Gpu gpu(cfg, mem);
        ASSERT_TRUE(gpu.run(prog, LaunchParams{8, 4}).ok());
        EXPECT_GT(gpu.fastForwardLeaps(), 0u);
    }
}
