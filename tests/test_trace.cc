/**
 * @file
 * Tests for the observability layer (src/trace + the JSON exporters):
 *
 *  - event-stream sanity: monotone cycles, complete stamping, and an
 *    Issue event per issued instruction;
 *  - RingBufferSink wraparound/drop accounting;
 *  - Chrome trace_event export: parses back as JSON, carries the
 *    subwarp-residency slices ("a living Figure 10") and the schema tag;
 *  - the per-pc stall table's reconciliation identity against the
 *    SmStats stall counters — exactly, not approximately;
 *  - a golden stall report (regenerate with --update-golden or
 *    SI_UPDATE_GOLDEN=1, then review the diff);
 *  - the si-stats-v1 document;
 *  - failure events: Watchdog and FaultInject events fire when a run
 *    fails.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/sim_error.hh"
#include "core/gpu.hh"
#include "fault/injector.hh"
#include "harness/report.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "trace/chrome_trace.hh"
#include "trace/sinks.hh"

using namespace si;

namespace {

bool update_golden = false;

// The Figure 9 walkthrough kernel: divergent if/else with a
// long-latency op and a dependent use on each path.
const char *fig9 = R"(
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

GpuResult
runFig9(TraceSink &sink, bool si_on, unsigned warps = 4,
        unsigned num_sms = 1)
{
    GpuConfig cfg;
    cfg.numSms = num_sms;
    cfg.siEnabled = si_on;
    cfg.yieldEnabled = si_on;
    cfg.trigger = SelectTrigger::AllStalled;
    cfg.traceSink = &sink;
    Memory mem;
    return simulate(cfg, mem, assembleOrDie(fig9), {warps, 4});
}

TraceEvent
syntheticEvent(std::uint64_t cycle)
{
    TraceEvent ev;
    ev.cycle = cycle;
    ev.pc = std::uint32_t(cycle % 7);
    ev.mask = 0xffffffffu;
    ev.warpId = std::uint16_t(cycle % 3);
    ev.kind = TraceEventKind::Issue;
    return ev;
}

} // namespace

// ---------------------------------------------------------------------
// Event-stream sanity
// ---------------------------------------------------------------------

TEST(TraceStream, CyclesMonotoneAndStamped)
{
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(sink.events().empty());

    Cycle prev = 0;
    for (const TraceEvent &ev : sink.events()) {
        EXPECT_GE(ev.cycle, prev) << traceEventKindName(ev.kind);
        prev = ev.cycle;
        EXPECT_EQ(ev.smId, 0u);
        EXPECT_LT(ev.warpId, 4u);
    }
}

TEST(TraceStream, OneIssueEventPerIssuedInstruction)
{
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());

    std::uint64_t issues = 0, retires = 0;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.kind == TraceEventKind::Issue)
            ++issues;
        if (ev.kind == TraceEventKind::WarpRetire)
            ++retires;
    }
    EXPECT_EQ(issues, r.total.instrsIssued);
    EXPECT_EQ(retires, r.total.warpsRetired);
}

TEST(TraceStream, DivergenceEmitsSubwarpEvents)
{
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r.total.divergentBranches, 0u);

    std::uint64_t diverges = 0, reconverges = 0, selects = 0;
    for (const TraceEvent &ev : sink.events()) {
        switch (ev.kind) {
          case TraceEventKind::SubwarpDiverge: ++diverges; break;
          case TraceEventKind::SubwarpReconverge: ++reconverges; break;
          case TraceEventKind::SubwarpSelect: ++selects; break;
          default: break;
        }
    }
    EXPECT_EQ(diverges, r.total.divergentBranches);
    EXPECT_EQ(reconverges, r.total.reconvergences);
    EXPECT_EQ(selects, r.total.subwarpSelects);
}

// ---------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------

TEST(RingBuffer, WraparoundKeepsNewestAndCountsDrops)
{
    RingBufferSink ring(16);
    for (std::uint64_t c = 0; c < 100; ++c)
        ring.record(syntheticEvent(c));

    EXPECT_EQ(ring.capacity(), 16u);
    EXPECT_EQ(ring.recorded(), 100u);
    EXPECT_EQ(ring.dropped(), 84u);

    const std::vector<TraceEvent> got = ring.snapshot();
    ASSERT_EQ(got.size(), 16u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].cycle, 84 + i);
}

TEST(RingBuffer, PartialFillSnapshotsInOrder)
{
    RingBufferSink ring(16);
    for (std::uint64_t c = 0; c < 5; ++c)
        ring.record(syntheticEvent(c));
    EXPECT_EQ(ring.dropped(), 0u);
    const std::vector<TraceEvent> got = ring.snapshot();
    ASSERT_EQ(got.size(), 5u);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].cycle, i);
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

TEST(ChromeTrace, ParsesBackWithSchemaAndResidency)
{
    const Program prog = assembleOrDie(fig9);
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());

    const std::string doc = chromeTraceJson(sink.events(), &prog);
    const json::ParseResult parsed = json::parse(doc);
    ASSERT_TRUE(parsed.ok) << parsed.error << " @" << parsed.offset;

    const json::Value *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_FALSE(events->array.empty());

    const json::Value *other = parsed.value.find("otherData");
    ASSERT_NE(other, nullptr);
    const json::Value *schema = other->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "si-trace-v1");

    // The residency slices are what make the export "a living Fig. 10":
    // one "sw 0x<mask>" slice per contiguous same-mask execution run.
    bool saw_residency = false, saw_issue = false;
    for (const json::Value &ev : events->array) {
        const json::Value *name = ev.find("name");
        if (name && name->str.rfind("sw 0x", 0) == 0)
            saw_residency = true;
        const json::Value *cat = ev.find("cat");
        if (cat && cat->str == "issue")
            saw_issue = true;
    }
    EXPECT_TRUE(saw_residency);
    EXPECT_TRUE(saw_issue);
}

TEST(ChromeTrace, EmptyStreamStillValid)
{
    const std::string doc = chromeTraceJson({}, nullptr);
    const json::ParseResult parsed = json::parse(doc);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const json::Value *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array.empty());
}

// ---------------------------------------------------------------------
// Stall attribution: the core's per-pc table and the stall report
// ---------------------------------------------------------------------

// The reconciliation identity: the per-pc table is a *decomposition*
// of the SmStats stall counters, not a separate estimate. Run several
// machines and check exact equality on each.
TEST(StallAttribution, ReconcilesExactlyWithSmStats)
{
    struct Point
    {
        bool si;
        unsigned warps;
        unsigned sms;
    };
    const Point points[] = {
        {false, 4, 1}, {true, 4, 1}, {true, 8, 2}};

    for (const Point &p : points) {
        VectorSink sink;
        const GpuResult r = runFig9(sink, p.si, p.warps, p.sms);
        ASSERT_TRUE(r.ok());

        // The table's per-reason sums are the per-reason counters.
        StallCounts sums{};
        for (const PcStall &c : r.stallsByPc) {
            EXPECT_NE(c.slots, 0u) << "zero cells are dropped";
            sums[std::size_t(c.reason)] += c.slots;
        }
        EXPECT_EQ(sums, r.total.stallCyclesByReason);

        // The four per-status counters are their fixed sums.
        auto reason = [&](StallReason k) { return sums[std::size_t(k)]; };
        EXPECT_EQ(reason(StallReason::LoadToUse) +
                      reason(StallReason::Barrier) +
                      reason(StallReason::NoReadySubwarp),
                  r.total.warpScoreboardStallCycles());
        EXPECT_EQ(reason(StallReason::IFetch),
                  r.total.warpFetchStallCycles());
        EXPECT_EQ(reason(StallReason::Pipe), r.total.warpPipeStallCycles());
        EXPECT_EQ(reason(StallReason::Switch), r.total.warpSwitchCycles());

        // ... and with issues and arbitration losses they close the
        // warp-cycle partition.
        std::uint64_t accounted = r.total.instrsIssued +
                                  r.total.arbLossCycles;
        for (const std::uint64_t v : sums)
            accounted += v;
        EXPECT_EQ(accounted, r.total.liveWarpCycles);
    }
}

TEST(StallAttribution, ReportJsonParsesBack)
{
    const Program prog = assembleOrDie(fig9);
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());

    const json::ParseResult parsed = json::parse(stallReportJson(r, prog));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const json::Value *schema = parsed.value.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "si-stall-v1");
    const json::Value *by_reason = parsed.value.find("byReason");
    ASSERT_NE(by_reason, nullptr);
    ASSERT_TRUE(by_reason->isObject());
    double sum = 0;
    for (const auto &kv : by_reason->object)
        sum += kv.second.number;
    std::uint64_t total = 0;
    for (const std::uint64_t v : r.total.stallCyclesByReason)
        total += v;
    EXPECT_EQ(std::uint64_t(sum), total);
}

// Golden stall report: the deterministic text rendering of the
// Figure 9 profile. Regenerate with --update-golden after intentional
// timing-model changes and review the diff.
TEST(StallAttribution, GoldenFig9Report)
{
    const Program prog = assembleOrDie(fig9);
    VectorSink sink;
    const GpuResult r = runFig9(sink, true);
    ASSERT_TRUE(r.ok());

    const std::string got = stallReport(r, prog, 10);
    const std::string path =
        std::string(SI_GOLDEN_DIR) + "/stall_fig9.txt";
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
        << "stall report changed; if intentional, regenerate with "
        << "--update-golden and review the diff";
}

// ---------------------------------------------------------------------
// Failure events: watchdog + fault injection
// ---------------------------------------------------------------------

TEST(FailureEvents, WatchdogEventOnCycleLimit)
{
    VectorSink sink;
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.maxCycles = 50; // far below the fig9 runtime at lat 600
    cfg.traceSink = &sink;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, assembleOrDie(fig9), {4, 4});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::CycleLimit);

    bool saw = false;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.kind == TraceEventKind::Watchdog) {
            saw = true;
            EXPECT_EQ(ev.arg, std::uint32_t(ErrorKind::CycleLimit));
        }
    }
    EXPECT_TRUE(saw);
}

TEST(FailureEvents, InjectionCampaignEmitsFaultAndWatchdogEvents)
{
    const Program prog = assembleOrDie(fig9);
    Memory mem;
    RingBufferSink ring(1u << 16);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.traceSink = &ring;

    const auto injector =
        armFault(cfg, {FaultKind::DroppedWriteback, 100, 1});
    const GpuResult r = simulate(cfg, mem, prog, {4, 4});
    ASSERT_TRUE(injector->fired());
    ASSERT_FALSE(r.ok());

    bool saw_inject = false, saw_watchdog = false;
    for (const TraceEvent &ev : ring.snapshot()) {
        if (ev.kind == TraceEventKind::FaultInject) {
            saw_inject = true;
            EXPECT_EQ(ev.arg,
                      std::uint32_t(FaultKind::DroppedWriteback));
        }
        if (ev.kind == TraceEventKind::Watchdog)
            saw_watchdog = true;
    }
    EXPECT_TRUE(saw_inject);
    EXPECT_TRUE(saw_watchdog);
}

// ---------------------------------------------------------------------
// JSON exporters
// ---------------------------------------------------------------------

TEST(StatsJson, WellFormedAndComplete)
{
    VectorSink sink;
    const GpuResult r = runFig9(sink, true, 4, 2);
    ASSERT_TRUE(r.ok());

    const json::ParseResult parsed =
        json::parse(statsJson(r, "fig9"));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const json::Value *schema = parsed.value.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "si-stats-v1");
    const json::Value *kernel = parsed.value.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->str, "fig9");
    const json::Value *groups = parsed.value.find("groups");
    ASSERT_NE(groups, nullptr);
    // aggregate "gpu" + one group per SM
    ASSERT_EQ(groups->array.size(), 3u);
    const json::Value *name = groups->array[0].find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str, "gpu");

    const json::Value *scalars = groups->array[0].find("scalars");
    ASSERT_NE(scalars, nullptr);
    const json::Value *cycles = scalars->find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(std::uint64_t(cycles->number), r.total.cycles);
}

TEST(TableJson, ParsesBackWithCells)
{
    TablePrinter t("demo");
    t.header({"a", "b"});
    t.row({"1", "2"});
    t.row({"3", "4"});

    const json::ParseResult parsed = json::parse(t.json());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const json::Value *title = parsed.value.find("title");
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->str, "demo");
    const json::Value *rows = parsed.value.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 2u);
    ASSERT_EQ(rows->array[1].array.size(), 2u);
    EXPECT_EQ(rows->array[1].array[1].str, "4");
}

int
runAll(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-golden")
            update_golden = true;
    if (std::getenv("SI_UPDATE_GOLDEN") != nullptr)
        update_golden = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

int
main(int argc, char **argv)
{
    return runAll(argc, argv);
}
