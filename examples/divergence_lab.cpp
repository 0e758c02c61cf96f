/**
 * @file
 * Divergence lab: the paper's Figure 9 / Figure 10 walkthrough, live.
 *
 * Assembles the Figure 9 listing (a divergent if-then-else with a
 * load-to-use stall on each path), runs it on three machines —
 * baseline SIMT, Subwarp Interleaving (switch-on-stall), and SI with
 * subwarp-yield — and prints the per-cycle issue timeline of the warp
 * so the interleaving is directly visible, as in Figure 10.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/gpu.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "trace/events.hh"

namespace {

const char *fig9 = R"(
.kernel fig9
.regs 24
    S2R R0, LANEID
    S2R R8, TID
    SHL R9, R8, 8
    ISETP.LT P0, R0, 16   ; lanes 0..15 -> subwarp S1, 16..31 -> S0
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

struct TraceLine
{
    si::Cycle cycle;
    std::uint32_t pc;
    unsigned lanes;
};

/** Collect the issue timeline through the TraceSink observer. */
class TimelineSink : public si::TraceSink
{
  public:
    explicit TimelineSink(std::vector<TraceLine> &trace) : trace_(trace) {}

    void
    record(const si::TraceEvent &ev) override
    {
        if (ev.kind != si::TraceEventKind::Issue)
            return;
        trace_.push_back({ev.cycle, ev.pc, si::ThreadMask(ev.mask).count()});
    }

  private:
    std::vector<TraceLine> &trace_;
};

si::GpuResult
runTraced(const si::Program &prog, bool si_on, bool yield,
          std::vector<TraceLine> &trace)
{
    si::GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = si_on;
    cfg.yieldEnabled = yield;
    cfg.trigger = si::SelectTrigger::AllStalled;
    TimelineSink sink(trace);
    cfg.traceSink = &sink;
    si::Memory mem;
    return si::simulate(cfg, mem, prog, {1, 1});
}

void
printTimeline(const char *title, const si::Program &prog,
              const std::vector<TraceLine> &trace)
{
    std::printf("\n--- %s ---\n", title);
    si::Cycle prev = 0;
    for (const auto &t : trace) {
        const si::Cycle gap = t.cycle - prev;
        const char *note = gap > 100 ? "   <== long stall ends" : "";
        std::printf("  cycle %6llu  (+%4llu)  %2u lanes  pc %2u  %s%s\n",
                    static_cast<unsigned long long>(t.cycle),
                    static_cast<unsigned long long>(gap), t.lanes, t.pc,
                    prog.at(t.pc).disasm().c_str(), note);
        prev = t.cycle;
    }
}

} // namespace

int
main()
{
    const si::Program prog = si::assembleOrDie(fig9);

    std::printf("Figure 9 listing:\n%s", prog.disasm().c_str());

    std::vector<TraceLine> base_trace, sos_trace, both_trace;
    const si::GpuResult rb = runTraced(prog, false, false, base_trace);
    const si::GpuResult rs = runTraced(prog, true, false, sos_trace);
    const si::GpuResult ry = runTraced(prog, true, true, both_trace);

    printTimeline("Baseline SIMT (Figure 2a): subwarps serialized",
                  prog, base_trace);
    printTimeline("Subwarp Interleaving, switch-on-stall (Figure 10a)",
                  prog, sos_trace);
    printTimeline("SI + subwarp-yield (Figure 10b)", prog, both_trace);

    si::TablePrinter t("Figure 9 kernel: summary");
    t.header({"machine", "cycles", "subwarp stalls", "yields"});
    t.row({"baseline", std::to_string(rb.cycles),
           std::to_string(rb.total.subwarpStalls),
           std::to_string(rb.total.subwarpYields)});
    t.row({"SI (SOS)", std::to_string(rs.cycles),
           std::to_string(rs.total.subwarpStalls),
           std::to_string(rs.total.subwarpYields)});
    t.row({"SI (Both)", std::to_string(ry.cycles),
           std::to_string(ry.total.subwarpStalls),
           std::to_string(ry.total.subwarpYields)});
    t.print();
    return 0;
}
