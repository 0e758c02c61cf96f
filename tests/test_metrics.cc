/**
 * @file
 * Tests for the windowed metrics subsystem (src/metrics) and the
 * region-marker plumbing it builds on:
 *
 *  - MetricsSampler windows partition the run exactly: every window
 *    satisfies the warp-cycle identity, region entries sum to the
 *    window's SM-wide counters, spans are contiguous, and the
 *    field-wise sum of all windows equals the end-of-run SmStats;
 *  - ring-capacity eviction drops oldest windows and counts them;
 *  - the si-metrics-v1 JSON/CSV exports are deterministic across
 *    identical runs and byte-identical across checkpoint/restore, and
 *    carry every partition row in every window and the CSV header;
 *  - swprof --diff reconciliation: the per-region stall-delta
 *    contributions of an SI-off vs SI-on megakernel pair sum exactly
 *    (zero residual) to the end-of-run warp-cycle delta, from both
 *    si-stats-v1 and si-metrics-v1 inputs (which must agree);
 *  - golden profdiff text and si-profdiff-v1 reports and a golden
 *    si-metrics-v1 document on a MARKER-annotated kernel
 *    (regenerate with --update-golden or SI_UPDATE_GOLDEN=1);
 *  - MARKER assembly round-trip and end-of-run region attribution;
 *  - Chrome-trace counter tracks, including hostile track/series
 *    names that must be escaped into valid JSON.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/gpu.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "metrics/profdiff.hh"
#include "metrics/sampler.hh"
#include "rt/megakernel.hh"
#include "snapshot/snapshot.hh"
#include "trace/chrome_trace.hh"

using namespace si;
using ::testing::HasSubstr;

namespace {

bool update_golden = false;

// The Figure 9 divergent kernel with MARKER region annotations: a
// convergent prologue (_entry), two divergent arms (then/else), and
// the post-reconvergence tail (join).
const char *markers_src = R"(
.kernel markers
.regs 24
    S2R R0, LANEID
    S2R R8, TID
    SHL R9, R8, 8
    ISETP.LT P0, R0, 16
    BSSY B0, syncPoint
    @P0 BRA Else
    MARKER then
    TLD R2, R0, R9 &wr=sb5
    FMUL R10, R5, 2.0
    FMUL R2, R2, R10 &req=sb5
    BRA syncPoint
Else:
    MARKER else
    TEX R1, R8, R9 &wr=sb2
    FADD R1, R1, R3 &req=sb2
    BRA syncPoint
syncPoint:
    MARKER join
    BSYNC B0
    EXIT
)";

GpuConfig
baseConfig(bool si_on, unsigned num_sms = 1)
{
    GpuConfig cfg;
    cfg.numSms = num_sms;
    cfg.siEnabled = si_on;
    cfg.yieldEnabled = si_on;
    cfg.trigger = SelectTrigger::AllStalled;
    return cfg;
}

GpuResult
runMarkers(MetricsSampler &sampler, bool si_on, unsigned num_sms = 1,
           unsigned warps = 4)
{
    GpuConfig cfg = baseConfig(si_on, num_sms);
    cfg.metricsSampler = &sampler;
    Memory mem;
    return simulate(cfg, mem, assembleOrDie(markers_src), {warps, 4});
}

/** A small but divergent megakernel (the paper's target workload). */
Workload
makeMegakernel()
{
    SceneConfig sc;
    sc.numMaterials = 4;
    sc.targetTriangles = 1200;
    sc.seed = 3;
    MegakernelConfig mc;
    mc.numShaders = 4;
    mc.bounces = 2;
    mc.mathPerShader = 12;
    mc.numWarps = 8;
    mc.warpsPerCta = 4;
    return buildMegakernel(mc, makeScene(sc));
}

/** Warp-cycle partition identity over any SmStats-shaped delta. */
std::uint64_t
accounted(const SmStats &s)
{
    std::uint64_t sum = s.instrsIssued + s.arbLossCycles;
    for (std::uint64_t n : s.stallCyclesByReason)
        sum += n;
    return sum;
}

} // namespace

// ---------------------------------------------------------------------
// Sampler windows
// ---------------------------------------------------------------------

TEST(SamplerWindows, WindowsSumToFinalTotalsPerSm)
{
    MetricsSampler sampler(25);
    const GpuResult r = runMarkers(sampler, true, 2, 8);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    ASSERT_EQ(sampler.numSms(), 2u);
    ASSERT_EQ(sampler.droppedTotal(), 0u);
    for (unsigned sm = 0; sm < sampler.numSms(); ++sm) {
        SmStats sum;
        for (const MetricsWindow &win : sampler.windows(sm))
            sum.accumulate(win.delta);
        const SmStats &want = r.perSm[sm];
        EXPECT_EQ(sum.instrsIssued, want.instrsIssued);
        EXPECT_EQ(sum.warpsRetired, want.warpsRetired);
        EXPECT_EQ(sum.liveWarpCycles, want.liveWarpCycles);
        EXPECT_EQ(sum.arbLossCycles, want.arbLossCycles);
        for (unsigned k = 0; k < numStallReasons; ++k)
            EXPECT_EQ(sum.stallCyclesByReason[k],
                      want.stallCyclesByReason[k])
                << stallReasonName(StallReason(k));
        EXPECT_EQ(sum.warpCyclesSubwarpFull, want.warpCyclesSubwarpFull);
        EXPECT_EQ(sum.warpCyclesSubwarpPartial,
                  want.warpCyclesSubwarpPartial);
        EXPECT_EQ(sum.warpCyclesSubwarpNone, want.warpCyclesSubwarpNone);
        EXPECT_EQ(sum.l1dHits, want.l1dHits);
        EXPECT_EQ(sum.l1dMisses, want.l1dMisses);
        EXPECT_EQ(sum.l0iHits, want.l0iHits);
        EXPECT_EQ(sum.l0iMisses, want.l0iMisses);
        ASSERT_EQ(sum.regions.size(), want.regions.size());
        for (std::size_t i = 0; i < sum.regions.size(); ++i)
            EXPECT_TRUE(sum.regions[i] == want.regions[i]) << i;
    }
}

TEST(SamplerWindows, EveryWindowSatisfiesThePartitionIdentity)
{
    MetricsSampler sampler(20);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    unsigned windows = 0;
    for (unsigned sm = 0; sm < sampler.numSms(); ++sm) {
        for (const MetricsWindow &win : sampler.windows(sm)) {
            ++windows;
            const SmStats &d = win.delta;
            EXPECT_EQ(d.liveWarpCycles, accounted(d))
                << "window [" << win.start << ", " << win.end << ")";

            // Region entries partition the same counters again.
            RegionCounters region_sum;
            for (const RegionCounters &rc : d.regions)
                region_sum.accumulate(rc);
            EXPECT_EQ(region_sum.warpCycles, d.liveWarpCycles);
            EXPECT_EQ(region_sum.instrsIssued, d.instrsIssued);
            EXPECT_EQ(region_sum.arbLossCycles, d.arbLossCycles);
            for (unsigned k = 0; k < numStallReasons; ++k)
                EXPECT_EQ(region_sum.stallCyclesByReason[k],
                          d.stallCyclesByReason[k]);
        }
    }
    EXPECT_GT(windows, 2u) << "interval too coarse to exercise windows";
}

TEST(SamplerWindows, SpansAreContiguousAndCoverTheRun)
{
    MetricsSampler sampler(30);
    const GpuResult r = runMarkers(sampler, false);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    for (unsigned sm = 0; sm < sampler.numSms(); ++sm) {
        const auto &wins = sampler.windows(sm);
        ASSERT_FALSE(wins.empty());
        EXPECT_EQ(wins.front().start, 0u);
        for (std::size_t i = 1; i < wins.size(); ++i)
            EXPECT_EQ(wins[i].start, wins[i - 1].end);
        EXPECT_EQ(wins.back().end, r.cycles);
    }
}

TEST(SamplerWindows, IntervalZeroYieldsOneWholeRunWindow)
{
    MetricsSampler sampler(0);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    ASSERT_EQ(sampler.numSms(), 1u);
    ASSERT_EQ(sampler.windows(0).size(), 1u);
    const MetricsWindow &win = sampler.windows(0)[0];
    EXPECT_EQ(win.start, 0u);
    EXPECT_EQ(win.end, r.cycles);
    EXPECT_EQ(win.delta.liveWarpCycles, r.perSm[0].liveWarpCycles);
    EXPECT_EQ(win.delta.instrsIssued, r.perSm[0].instrsIssued);
}

TEST(SamplerWindows, RingEvictsOldestAndCountsDrops)
{
    MetricsSampler sampler(10, /*ring_capacity=*/2);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    ASSERT_EQ(sampler.numSms(), 1u);
    EXPECT_GT(sampler.dropped(0), 0u);
    EXPECT_EQ(sampler.droppedTotal(), sampler.dropped(0));
    ASSERT_EQ(sampler.windows(0).size(), 2u);
    // The retained windows are the newest: the last one was flushed by
    // finish() and ends at the final cycle.
    EXPECT_EQ(sampler.windows(0).back().end, r.cycles);
}

// ---------------------------------------------------------------------
// Exports: determinism, checkpoint/restore, counter tracks
// ---------------------------------------------------------------------

TEST(MetricsExport, JsonAndCsvDeterministicAcrossIdenticalRuns)
{
    MetricsSampler a(25), b(25);
    const GpuResult ra = runMarkers(a, true, 2, 8);
    const GpuResult rb = runMarkers(b, true, 2, 8);
    ASSERT_TRUE(ra.ok() && rb.ok());

    const std::vector<std::string> names =
        assembleOrDie(markers_src).regionNames();
    EXPECT_EQ(metricsJson(a, "markers", names),
              metricsJson(b, "markers", names));
    EXPECT_EQ(metricsCsv(a), metricsCsv(b));

    const json::ParseResult doc = json::parse(metricsJson(a, "markers",
                                                          names));
    ASSERT_TRUE(doc.ok) << doc.error;
    const json::Value *schema = doc.value.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "si-metrics-v1");
    const json::Value *regions = doc.value.find("regions");
    ASSERT_NE(regions, nullptr);
    ASSERT_EQ(regions->array.size(), 4u);
    EXPECT_EQ(regions->array[0].str, "_entry");
}

TEST(MetricsExport, EveryPartitionRowReachesWindowsAndCsv)
{
    // Each regionStatFields row appears in every si-metrics-v1 window
    // under its SM-wide key, and in the CSV header; a row missing from
    // the windows would read as 0 from every window in swprof --diff.
    MetricsSampler sampler(25);
    ASSERT_TRUE(runMarkers(sampler, true, 2, 8).ok());
    const json::ParseResult doc = json::parse(metricsJson(
        sampler, "markers", assembleOrDie(markers_src).regionNames()));
    ASSERT_TRUE(doc.ok) << doc.error;

    std::vector<std::string> columns;
    std::istringstream header(metricsCsv(sampler));
    std::string line;
    std::getline(header, line);
    std::istringstream cells(line);
    for (std::string col; std::getline(cells, col, ',');)
        columns.push_back(col);
    auto has_column = [&](const std::string &name) {
        return std::find(columns.begin(), columns.end(), name) !=
               columns.end();
    };

    const json::Value *sms = doc.value.find("sms");
    ASSERT_NE(sms, nullptr);
    std::vector<const json::Value *> windows;
    for (const json::Value &sm : sms->array) {
        for (const json::Value &win : sm.find("windows")->array)
            windows.push_back(&win);
    }
    ASSERT_GT(windows.size(), 2u);

    for (const StatField<RegionCounters> &f : regionStatFields) {
        const std::string key = f.u64 == &RegionCounters::warpCycles
                                    ? "live_warp_cycles"
                                    : f.key;
        for (const json::Value *win : windows) {
            const json::Value *v = win->find(key);
            ASSERT_NE(v, nullptr) << key;
            if (f.kind != StatKind::Reasons) {
                EXPECT_TRUE(v->isNumber()) << key;
                continue;
            }
            for (unsigned k = 0; k < numStallReasons; ++k)
                EXPECT_NE(v->find(stallReasonName(StallReason(k))), nullptr)
                    << key;
        }
        if (f.kind != StatKind::Reasons) {
            EXPECT_TRUE(has_column(key)) << key;
            continue;
        }
        for (unsigned k = 0; k < numStallReasons; ++k) {
            const std::string col =
                "stall_" + stallReasonKey(StallReason(k));
            EXPECT_TRUE(has_column(col)) << col;
        }
    }
}

TEST(MetricsExport, CheckpointRestoreIsByteIdentical)
{
    const Program prog = assembleOrDie(markers_src);
    const std::vector<std::string> names = prog.regionNames();

    // Uninterrupted reference run.
    MetricsSampler fresh(16);
    {
        GpuConfig cfg = baseConfig(true);
        cfg.metricsSampler = &fresh;
        Memory mem;
        const GpuResult r = simulate(cfg, mem, prog, {4, 4});
        ASSERT_TRUE(r.ok()) << r.status.summary();
    }

    // Same run, frozen at cycle 50 — the snapshot embeds the sampler
    // (baseline, ring, drop counts) via SnapTag::Metrics.
    std::string container;
    {
        MetricsSampler sampler(16);
        GpuConfig cfg = baseConfig(true);
        cfg.metricsSampler = &sampler;
        cfg.checkpointInterval = 1;
        cfg.checkpointHook = [&container](const Gpu &gpu, Cycle now) {
            if (now != 50 || !container.empty())
                return;
            SnapshotWriter w;
            gpu.save(w);
            container = w.finish();
        };
        Memory mem;
        const GpuResult r = simulate(cfg, mem, prog, {4, 4});
        ASSERT_TRUE(r.ok()) << r.status.summary();
    }
    ASSERT_FALSE(container.empty()) << "kernel retired before cycle 50";

    // Resume into a brand-new sampler; the export must not betray the
    // interruption.
    MetricsSampler resumed(16);
    {
        GpuConfig cfg = baseConfig(true);
        cfg.metricsSampler = &resumed;
        Memory mem;
        Gpu gpu(cfg, mem);
        const GpuResult r = gpu.runMulti({{&prog, {4, 4}}}, &container);
        ASSERT_TRUE(r.ok()) << r.status.summary();
    }

    EXPECT_EQ(metricsJson(fresh, "markers", names),
              metricsJson(resumed, "markers", names));
    EXPECT_EQ(metricsCsv(fresh), metricsCsv(resumed));
}

TEST(MetricsExport, CounterSamplesFeedTheChromeTrace)
{
    MetricsSampler sampler(25);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok()) << r.status.summary();

    const std::vector<CounterSample> counters =
        metricsCounterSamples(sampler);
    // Three tracks (ipc, occupancy, stacked stalls) per window per SM.
    std::size_t windows = 0;
    for (unsigned sm = 0; sm < sampler.numSms(); ++sm)
        windows += sampler.windows(sm).size();
    EXPECT_EQ(counters.size(), 3 * windows);

    const std::string trace = chromeTraceJson({}, nullptr, counters);
    const json::ParseResult doc = json::parse(trace);
    ASSERT_TRUE(doc.ok) << doc.error;
}

// Hostile names must come out as valid JSON — quotes, backslashes, and
// control characters in track or series names all escaped.
TEST(ChromeTrace, HostileCounterNamesAreEscaped)
{
    CounterSample sample;
    sample.name = "sm0 \"weird\\track\"\nname";
    sample.pid = 0;
    sample.cycle = 7;
    sample.values.emplace_back("ser\"ies\\one\t", 1.5);
    sample.values.emplace_back(std::string("nul\x01byte"), 2.0);

    const std::string trace = chromeTraceJson({}, nullptr, {sample});
    const json::ParseResult doc = json::parse(trace);
    ASSERT_TRUE(doc.ok) << doc.error << " at offset " << doc.offset;

    // The parsed document must round-trip the raw names unchanged.
    const json::Value *events = doc.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const json::Value &ev : events->array) {
        const json::Value *name = ev.find("name");
        if (name == nullptr || name->str != sample.name)
            continue;
        found = true;
        const json::Value *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_EQ(args->object.size(), 2u);
        EXPECT_EQ(args->object[0].first, sample.values[0].first);
        EXPECT_EQ(args->object[1].first, sample.values[1].first);
    }
    EXPECT_TRUE(found) << trace;
}

// ---------------------------------------------------------------------
// si-stats-v1 extensions: region array, partition scalars, trace block
// ---------------------------------------------------------------------

TEST(StatsJson, CarriesRegionsPartitionScalarsAndTraceBlock)
{
    const Program prog = assembleOrDie(markers_src);
    GpuConfig cfg = baseConfig(true);
    Memory mem;
    const GpuResult r = simulate(cfg, mem, prog, {4, 4});
    ASSERT_TRUE(r.ok()) << r.status.summary();

    StatsJsonOptions opts;
    opts.regionNames = prog.regionNames();
    opts.includeTrace = true;
    opts.traceRecorded = 123;
    opts.traceDropped = 4;
    const std::string text = statsJson(r, "markers", opts);
    const json::ParseResult doc = json::parse(text);
    ASSERT_TRUE(doc.ok) << doc.error;

    const json::Value *regions = doc.value.find("regions");
    ASSERT_NE(regions, nullptr);
    ASSERT_EQ(regions->array.size(), 4u);
    std::uint64_t warp_cycles = 0;
    for (const json::Value &region : regions->array) {
        const json::Value *wc = region.find("warp_cycles");
        ASSERT_NE(wc, nullptr);
        warp_cycles += std::uint64_t(wc->number);
    }
    EXPECT_EQ(warp_cycles, r.total.liveWarpCycles);

    const json::Value *trace = doc.value.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->find("recorded")->number, 123.0);
    EXPECT_EQ(trace->find("dropped")->number, 4.0);

    // The exported residual scalar is zero by construction.
    EXPECT_THAT(text, HasSubstr("\"warp_cycle_residual\":0"));
    EXPECT_THAT(text, HasSubstr("\"live_warp_cycles\""));
}

// ---------------------------------------------------------------------
// swprof --diff: the reconciliation gate
// ---------------------------------------------------------------------

// The acceptance criterion: per-region stall-delta contributions of an
// SI-off vs SI-on megakernel pair sum exactly — zero residual — to the
// end-of-run warp-cycle delta.
TEST(ProfDiff, MegakernelSiDeltaReconcilesExactly)
{
    const Workload wl = makeMegakernel();
    const GpuResult base = runWorkload(wl, baseConfig(false, 2));
    const GpuResult test = runWorkload(wl, baseConfig(true, 2));
    ASSERT_TRUE(base.ok()) << base.status.summary();
    ASSERT_TRUE(test.ok()) << test.status.summary();
    ASSERT_GT(wl.program.regionNames().size(), 2u);

    StatsJsonOptions opts;
    opts.regionNames = wl.program.regionNames();
    ProfSide sides[2];
    std::string error;
    ASSERT_TRUE(loadProfInput(statsJson(base, wl.name, opts),
                              "base.json", sides[0], error))
        << error;
    ASSERT_TRUE(loadProfInput(statsJson(test, wl.name, opts),
                              "si.json", sides[1], error))
        << error;

    const ProfDiff diff = diffProf(sides[0], sides[1]);
    EXPECT_EQ(diff.residual, 0);
    const std::int64_t delta_live = std::int64_t(diff.delta.warpCycles);
    EXPECT_EQ(delta_live, std::int64_t(test.total.liveWarpCycles) -
                              std::int64_t(base.total.liveWarpCycles));

    // Region deltas partition the total delta...
    std::int64_t region_sum = 0, stall_sum = 0;
    for (const RegionDelta &rd : diff.regions)
        region_sum += std::int64_t(rd.delta.warpCycles);
    EXPECT_EQ(region_sum, delta_live);

    // ...and so do the stall-reason deltas plus issue/arbitration.
    for (std::uint64_t n : diff.delta.stallCyclesByReason)
        stall_sum += std::int64_t(n);
    EXPECT_EQ(std::int64_t(diff.delta.instrsIssued) +
                  std::int64_t(diff.delta.arbLossCycles) + stall_sum,
              delta_live);
}

// Both input schemas must tell the same story: diffing the windowed
// si-metrics-v1 exports of the same two runs reproduces the
// si-stats-v1 diff exactly.
TEST(ProfDiff, MetricsAndStatsInputsAgree)
{
    const Program prog = assembleOrDie(markers_src);
    MetricsSampler base_sampler(40), test_sampler(40);
    const GpuResult base = runMarkers(base_sampler, false);
    const GpuResult test = runMarkers(test_sampler, true);
    ASSERT_TRUE(base.ok() && test.ok());

    StatsJsonOptions opts;
    opts.regionNames = prog.regionNames();
    ProfSide from_stats[2], from_metrics[2];
    std::string error;
    ASSERT_TRUE(loadProfInput(statsJson(base, "markers", opts), "b",
                              from_stats[0], error))
        << error;
    ASSERT_TRUE(loadProfInput(statsJson(test, "markers", opts), "t",
                              from_stats[1], error))
        << error;
    ASSERT_TRUE(loadProfInput(
        metricsJson(base_sampler, "markers", opts.regionNames), "b",
        from_metrics[0], error))
        << error;
    ASSERT_TRUE(loadProfInput(
        metricsJson(test_sampler, "markers", opts.regionNames), "t",
        from_metrics[1], error))
        << error;

    const ProfDiff ds = diffProf(from_stats[0], from_stats[1]);
    const ProfDiff dm = diffProf(from_metrics[0], from_metrics[1]);
    EXPECT_EQ(ds.residual, 0);
    EXPECT_EQ(dm.residual, 0);
    EXPECT_EQ(ds.deltaCycles, dm.deltaCycles);
    EXPECT_EQ(ds.delta.warpCycles, dm.delta.warpCycles);
    EXPECT_EQ(ds.delta.instrsIssued, dm.delta.instrsIssued);
    EXPECT_EQ(ds.delta.arbLossCycles, dm.delta.arbLossCycles);
    EXPECT_EQ(ds.delta.stallCyclesByReason, dm.delta.stallCyclesByReason);
    ASSERT_EQ(ds.regions.size(), dm.regions.size());
    for (std::size_t i = 0; i < ds.regions.size(); ++i) {
        EXPECT_EQ(ds.regions[i].name, dm.regions[i].name);
        EXPECT_EQ(ds.regions[i].delta.warpCycles,
                  dm.regions[i].delta.warpCycles);
        EXPECT_EQ(ds.regions[i].delta.stallCyclesByReason,
                  dm.regions[i].delta.stallCyclesByReason);
    }
}

TEST(ProfDiff, JsonExportRoundTrips)
{
    MetricsSampler base_sampler(0), test_sampler(0);
    const GpuResult base = runMarkers(base_sampler, false);
    const GpuResult test = runMarkers(test_sampler, true);
    ASSERT_TRUE(base.ok() && test.ok());

    const std::vector<std::string> names =
        assembleOrDie(markers_src).regionNames();
    ProfSide sides[2];
    std::string error;
    ASSERT_TRUE(loadProfInput(metricsJson(base_sampler, "markers", names),
                              "b", sides[0], error))
        << error;
    ASSERT_TRUE(loadProfInput(metricsJson(test_sampler, "markers", names),
                              "t", sides[1], error))
        << error;
    const ProfDiff diff = diffProf(sides[0], sides[1]);

    const json::ParseResult doc = json::parse(profDiffJson(diff));
    ASSERT_TRUE(doc.ok) << doc.error;
    EXPECT_EQ(doc.value.find("schema")->str, "si-profdiff-v1");
    EXPECT_EQ(doc.value.find("residual")->number, 0.0);
    const json::Value *delta = doc.value.find("delta");
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(std::int64_t(delta->find("live_warp_cycles")->number),
              std::int64_t(diff.delta.warpCycles));
    const json::Value *regions = doc.value.find("regions");
    ASSERT_NE(regions, nullptr);
    EXPECT_EQ(regions->array.size(), diff.regions.size());
}

TEST(ProfDiff, RefusesDroppedMetricsSeries)
{
    MetricsSampler sampler(10, /*ring_capacity=*/2);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(sampler.droppedTotal(), 0u);

    ProfSide side;
    std::string error;
    EXPECT_FALSE(loadProfInput(
        metricsJson(sampler, "markers",
                    assembleOrDie(markers_src).regionNames()),
        "dropped.json", side, error));
    EXPECT_THAT(error, HasSubstr("dropped"));
}

TEST(ProfDiff, RefusesStatsPredatingThePartition)
{
    // An si-stats-v1 document without the warp-cycle partition scalars
    // (an export from before this subsystem) cannot be diffed.
    const std::string old_export = R"({
        "schema": "si-stats-v1",
        "kernel": "old",
        "groups": [{"name": "gpu", "scalars": {"cycles": 100}}]
    })";
    ProfSide side;
    std::string error;
    EXPECT_FALSE(loadProfInput(old_export, "old.json", side, error));
    EXPECT_THAT(error, HasSubstr("warp-cycle partition"));
}

TEST(ProfDiff, RefusesCountsThatAreNotU64)
{
    // A count is an integer in [0, 2^64); anything else is a load
    // error naming the member, never a cast.
    const auto doc = [](const std::string &live) {
        return R"({"schema": "si-stats-v1", "kernel": "k", "cycles": 10,
            "groups": [{"name": "gpu", "scalars": {"live_warp_cycles": )" +
               live + R"(}}], "regions": []})";
    };
    ProfSide side;
    std::string error;
    ASSERT_TRUE(loadProfInput(doc("40"), "ok.json", side, error)) << error;
    EXPECT_EQ(side.totals.warpCycles, 40u);
    for (const char *bad : {"-1", "2.5", "1e30"}) {
        EXPECT_FALSE(loadProfInput(doc(bad), "bad.json", side, error))
            << bad;
        EXPECT_THAT(error, HasSubstr("\"live_warp_cycles\" is not an "
                                     "unsigned 64-bit integer"))
            << bad;
    }
}

namespace {

/**
 * Compare @p got with tests/golden/@p name, or rewrite the golden under
 * --update-golden. Regenerate after intentional timing-model or export
 * changes and review the diff.
 */
void
expectGolden(const std::string &got, const std::string &name)
{
    const std::string path = std::string(SI_GOLDEN_DIR) + "/" + name;
    if (update_golden) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got;
        return;
    }
    std::ifstream in(path);
    std::ostringstream want;
    want << in.rdbuf();
    ASSERT_FALSE(want.str().empty())
        << path << " missing — run with --update-golden to create it";
    EXPECT_EQ(got, want.str())
        << name << " changed; if intentional, regenerate with "
        << "--update-golden and review the diff";
}

/** The markers-kernel SI-off vs SI-on diff, from si-stats-v1 inputs. */
ProfDiff
markersDiff()
{
    const Program prog = assembleOrDie(markers_src);
    GpuConfig off = baseConfig(false), on = baseConfig(true);
    Memory mem_off, mem_on;
    const GpuResult base = simulate(off, mem_off, prog, {4, 4});
    const GpuResult test = simulate(on, mem_on, prog, {4, 4});
    EXPECT_TRUE(base.ok() && test.ok());

    StatsJsonOptions opts;
    opts.regionNames = prog.regionNames();
    ProfSide sides[2];
    std::string error;
    EXPECT_TRUE(loadProfInput(statsJson(base, "markers", opts),
                              "markers_base.json", sides[0], error))
        << error;
    EXPECT_TRUE(loadProfInput(statsJson(test, "markers", opts),
                              "markers_si.json", sides[1], error))
        << error;
    return diffProf(sides[0], sides[1]);
}

} // namespace

// Golden profdiff report and si-profdiff-v1 document: the deterministic
// renderings of the markers-kernel SI-off vs SI-on diff.
TEST(ProfDiff, GoldenMarkersReport)
{
    expectGolden(profDiffReport(markersDiff()), "profdiff_markers.txt");
}

TEST(ProfDiff, GoldenMarkersJson)
{
    expectGolden(profDiffJson(markersDiff()), "profdiff_markers.json");
}

// Golden si-metrics-v1 document of the SI-on markers run (interval 40).
TEST(MetricsExport, GoldenMarkersJson)
{
    MetricsSampler sampler(40);
    const GpuResult r = runMarkers(sampler, true);
    ASSERT_TRUE(r.ok()) << r.status.summary();
    expectGolden(metricsJson(sampler, "markers",
                             assembleOrDie(markers_src).regionNames()),
                 "metrics_markers.json");
}

// ---------------------------------------------------------------------
// MARKER plumbing
// ---------------------------------------------------------------------

TEST(Marker, AssemblerInternsRegionsInFirstOccurrenceOrder)
{
    const Program prog = assembleOrDie(markers_src);
    const std::vector<std::string> want = {"_entry", "then", "else",
                                           "join"};
    EXPECT_EQ(prog.regionNames(), want);

    // sourceText() emits the assembler grammar; reassembling must
    // reproduce the region table and the instruction stream.
    const Program again = assembleOrDie(prog.sourceText());
    EXPECT_EQ(again.regionNames(), prog.regionNames());
    ASSERT_EQ(again.size(), prog.size());
    for (std::uint32_t pc = 0; pc < prog.size(); ++pc)
        EXPECT_EQ(again.at(pc).disasm(), prog.at(pc).disasm()) << pc;
}

TEST(Marker, BuilderAndProgramShareTheInterningContract)
{
    KernelBuilder kb("builder_regions");
    kb.marker("hot");
    kb.marker("hot"); // re-entry reuses the index
    kb.marker("cold");
    kb.exit();
    const Program prog = kb.build(8);
    const std::vector<std::string> want = {"_entry", "hot", "cold"};
    EXPECT_EQ(prog.regionNames(), want);
    EXPECT_EQ(prog.at(0).imm, 1);
    EXPECT_EQ(prog.at(1).imm, 1);
    EXPECT_EQ(prog.at(2).imm, 2);
}

TEST(Marker, RunAttributesWarpCyclesToEveryRegion)
{
    const Program prog = assembleOrDie(markers_src);
    GpuConfig cfg = baseConfig(true);
    Memory mem;
    const GpuResult r = simulate(cfg, mem, prog, {4, 4});
    ASSERT_TRUE(r.ok()) << r.status.summary();

    ASSERT_EQ(r.total.regions.size(), 4u);
    std::uint64_t warp_cycles = 0;
    for (std::size_t i = 0; i < r.total.regions.size(); ++i) {
        // Every region of this kernel is reached and issues at least
        // its own MARKER (or, for _entry, the prologue).
        EXPECT_GT(r.total.regions[i].instrsIssued, 0u)
            << prog.regionNames()[i];
        warp_cycles += r.total.regions[i].warpCycles;
    }
    EXPECT_EQ(warp_cycles, r.total.liveWarpCycles);
}

// ---------------------------------------------------------------------
// Custom main: --update-golden / SI_UPDATE_GOLDEN regenerates goldens.
// ---------------------------------------------------------------------

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
