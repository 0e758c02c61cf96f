/**
 * @file
 * swsim — run a SASS-like assembly kernel on the simulator from the
 * command line.
 *
 *   swsim KERNEL.sasm [options]
 *
 * Runs the kernel under one machine configuration, or injects a fault
 * (--inject), sweeps it as a resumable campaign (--campaign-state),
 * checkpoints and resumes it, attaches the race sanitizer, prints the
 * stall profile (lost issue slots per stall reason, pc and opcode), and
 * exports statistics, the profile, windowed metrics and traces.
 * `swsim --help` lists every option.
 *
 * Exit status: 0 on success (for --inject: fault caught), 1 on bad
 * usage, assembly error, or a failed/undetected run; in campaign mode
 * 2 while cells remain.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "fault/injector.hh"
#include "harness/campaign.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/stall_hints.hh"
#include "metrics/sampler.hh"
#include "race/detector.hh"
#include "snapshot/snapshot.hh"
#include "trace/chrome_trace.hh"
#include "trace/sinks.hh"

namespace {

/** What the machine-model options set. */
struct MachineOptions
{
    si::GpuConfig config;
    unsigned warps = 4; ///< warps to launch
    bool hints = false; ///< run the static stall-hint pass first
};

/**
 * Register the machine-model rows (--warps --lat --si --yield --trigger
 * --tst --sms --slots --mshrs --hints --sched), writing into @p m.
 */
void
addMachineOptions(si::cli::Parser &parser, MachineOptions &m)
{
    si::GpuConfig &c = m.config;
    const std::vector<std::pair<std::string, si::SelectTrigger>> triggers =
        {{"any", si::SelectTrigger::AnyStalled},
         {"half", si::SelectTrigger::HalfStalled},
         {"all", si::SelectTrigger::AllStalled}};
    const std::vector<std::pair<std::string, si::SchedPolicy>> scheds = {
        {"gto", si::SchedPolicy::GTO}, {"lrr", si::SchedPolicy::LRR}};
    parser.number("--warps", m.warps, "warps to launch (default 4)")
        .number("--lat", c.lat.l1Miss,
                "L1 miss latency in cycles (default 600)")
        .flag("--si", c.siEnabled, "enable Subwarp Interleaving (SOS)")
        .flag("--yield", [&c] { c.siEnabled = c.yieldEnabled = true; },
              "also enable subwarp-yield (implies --si)")
        .choice("--trigger", c.trigger, triggers,
                "selection trigger: N>0, N>=0.5 or N=1 of the live warps "
                "stalled (default half)")
        .number("--tst", c.maxSubwarps,
                "thread status table entries (default 32)")
        .number("--sms", c.numSms, "number of SMs (default 2)")
        .number("--slots", c.warpSlotsPerPb,
                "warp slots per processing block (default 8)")
        .number("--mshrs", c.maxOutstandingMisses,
                "outstanding-miss budget (default 0 = unlimited)")
        .flag("--hints", m.hints,
              "run the static stall-hint pass and the hint policy")
        .choice("--sched", c.sched, scheds, "warp scheduler (default gto)");
}

/** --trace: print each issue as it happens. */
class PrintSink : public si::TraceSink
{
  public:
    explicit PrintSink(const si::Program &prog) : prog_(prog) {}

    void
    record(const si::TraceEvent &ev) override
    {
        if (ev.kind != si::TraceEventKind::Issue)
            return;
        std::printf("  %8llu sm%u w%-3u %2u lanes  pc %3u  %s\n",
                    static_cast<unsigned long long>(ev.cycle), ev.smId,
                    ev.warpId, si::ThreadMask(ev.mask).count(), ev.pc,
                    prog_.at(ev.pc).disasm().c_str());
    }

  private:
    const si::Program &prog_;
};

/** Report a failed run on stderr; @return swsim's exit status for it. */
int
runFailed(const si::RunStatus &status)
{
    std::fprintf(stderr, "swsim: run failed [%s]: %s\n",
                 si::errorKindName(status.kind), status.message.c_str());
    if (!status.diagnostic.empty())
        std::fprintf(stderr, "%s", status.diagnostic.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    MachineOptions machine;
    si::GpuConfig &cfg = machine.config;
    std::vector<std::string> kernel;
    unsigned trace_ring = 1u << 20;
    bool dump_stats = false, trace = false, disasm = false;
    bool compare = false;
    bool race = false;
    bool ff_report = false;
    bool stall_report = false;
    std::string stats_json_path, stall_json_path, trace_out_path;
    std::string metrics_out_path, metrics_csv_path;
    unsigned metrics_interval = 0;
    unsigned metrics_ring = 4096;
    std::optional<si::FaultKind> inject;
    unsigned checkpoint_every = 0;
    std::string checkpoint_path, resume_path;
    std::string campaign_dir;
    bool campaign_resume = false;
    std::optional<si::FaultKind> campaign_inject;
    unsigned campaign_cells = 0, campaign_timeout = 0;
    unsigned campaign_retries = 2;
    unsigned campaign_jobs = 1;

    si::cli::Parser cli("swsim", "KERNEL.sasm [options]");
    cli.positional(kernel, "KERNEL.sasm", 1, 1);
    addMachineOptions(cli, machine);
    cli.flag("--check-invariants", cfg.checkInvariants,
             "run the opt-in machine-state audits")
        .flag("--race", race,
              "attach the happens-before race sanitizer: report every "
              "intra-warp subwarp-schedule-dependent access pair with both "
              "pcs, lanes, address and cycle; exit 1 when any race is found")
        .choice("--inject", inject, si::faultKindCliNames(),
                "corrupt live state mid-run and report whether the "
                "watchdog or checker caught it (exit 0 = caught)")
        .flag("--stats", dump_stats, "dump full statistics")
        .text("--stats-json", stats_json_path, "FILE",
              "write machine-readable statistics (si-stats-v1); - is "
              "stdout")
        .flag("--stall-report", stall_report,
              "print the stall profile: lost issue slots per stall "
              "reason, and the top 10 pcs and opcodes; printed even "
              "when the run fails")
        .text("--stall-json", stall_json_path, "FILE",
              "write every row of the stall profile (si-stall-v1); - is "
              "stdout")
        .text("--metrics-out", metrics_out_path, "FILE",
              "write windowed time-series metrics (si-metrics-v1); - is "
              "stdout")
        .text("--metrics-csv", metrics_csv_path, "FILE",
              "write the same series as CSV")
        .number("--metrics-interval", metrics_interval,
                "cycles per metrics window (default 0: one window spanning "
                "the whole run)")
        .number("--metrics-ring", metrics_ring,
                "windows retained per SM (default 4096); older windows are "
                "dropped (and counted) beyond this")
        .number("--checkpoint-every", checkpoint_every,
                "write a checkpoint every N cycles")
        .text("--checkpoint", checkpoint_path, "FILE",
              "checkpoint path (default KERNEL.sasm.ckpt)")
        .text("--resume", resume_path, "FILE",
              "restore a checkpoint and continue the run; the resumed run "
              "is bit-exact with an uninterrupted one")
        .text("--campaign-state", campaign_dir, "DIR",
              "campaign mode: sweep baseline + the six SI configurations "
              "over this kernel, one forked child per cell, with a "
              "resumable si-campaign-v1 manifest in DIR")
        .flag("--campaign-resume", campaign_resume,
              "continue the campaign recorded in DIR")
        .number("--campaign-cells", campaign_cells,
                "stop after N cells (forces a mid-campaign restart; finish "
                "later with --campaign-resume)")
        .number("--campaign-timeout", campaign_timeout,
                "per-cell wall budget in seconds (SIGKILL on overrun)")
        .number("--campaign-retries", campaign_retries,
                "retries for transiently-failed cells (default 2)")
        .choice("--campaign-inject", campaign_inject,
                si::faultKindCliNames(),
                "inject this fault into each cell's first attempt (soak "
                "testing: retries must recover)")
        .number("--campaign-jobs", campaign_jobs,
                "campaign cells run as up to N forked children at once, "
                "0.." + std::to_string(si::cli::maxJobs) +
                    " (default 1; 0 = all cores); the final manifest is "
                    "byte-identical at any N",
                0, si::cli::maxJobs)
        .fastForward(cfg.fastForward)
        .flag("--ff-report", ff_report,
              "print fast-forward diagnostics (leaps taken and cycles "
              "skipped) after the run")
        .flag("--trace", trace, "print the per-issue timeline")
        .text("--trace-out", trace_out_path, "FILE",
              "record the trace-event stream (bounded ring buffer) and "
              "write a Chrome trace_event JSON, loadable in Perfetto; "
              "written even when the run fails")
        .number("--trace-ring", trace_ring,
                "ring-buffer capacity in events, at most " +
                    std::to_string(si::cli::maxTraceRing) + " (default 1Mi)",
                0, si::cli::maxTraceRing)
        .flag("--disasm", disasm, "print the kernel listing before running")
        .flag("--compare", compare,
              "also run the baseline and report the speedup");
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;
    const std::string &path = kernel.front();
    const unsigned warps = machine.warps;

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "swsim: cannot open '%s'\n", path.c_str());
        return 1;
    }
    std::stringstream source;
    source << in.rdbuf();

    si::AsmResult assembled = si::assemble(source.str());
    if (!assembled.ok) {
        std::fprintf(stderr, "swsim: %s: %s\n", path.c_str(),
                     assembled.error.c_str());
        return 1;
    }
    si::Program prog = std::move(assembled.program);

    if (machine.hints) {
        const si::StallHintReport rep = si::annotateStallHints(prog);
        cfg.divergeOrder = si::DivergeOrder::HintStallFirst;
        std::printf("stall hints: %u/%u branches hinted\n",
                    rep.branchesHinted, rep.branchesAnalyzed);
    }
    if (disasm)
        std::printf("%s\n", prog.disasm().c_str());

    // Windowed metrics: a read-only observer on the clock loop.
    const bool metrics =
        !metrics_out_path.empty() || !metrics_csv_path.empty();
    if ((metrics || stall_report || !stall_json_path.empty()) &&
        (inject || !campaign_dir.empty())) {
        // Both modes run (or re-run) the kernel under several
        // configs/children; one series or profile would mix them.
        std::fprintf(stderr, "swsim: --metrics-out/--metrics-csv and "
                             "--stall-report/--stall-json are exclusive "
                             "with --inject and campaign mode\n");
        return 1;
    }
    si::MetricsSampler sampler(metrics_interval, metrics_ring);
    if (metrics)
        cfg.metricsSampler = &sampler;

    si::RaceDetector race_det;
    if (race) {
        if (inject || !campaign_dir.empty() || !resume_path.empty()) {
            // Injected faults corrupt live state (races on a corrupted
            // machine prove nothing); campaign cells run in forked
            // children whose detector state dies with them; a checkpoint
            // holds no sanitizer state, so a resumed run would miss
            // every race against an access made before it.
            std::fprintf(stderr, "swsim: --race is exclusive with "
                                 "--inject, campaign mode and --resume "
                                 "(a checkpoint holds no sanitizer "
                                 "state)\n");
            return 1;
        }
        cfg.raceHooks = &race_det;
    }

    // Trace plumbing: print-as-you-go and/or record into a bounded ring
    // buffer for the Chrome-trace export (sized only when recording).
    PrintSink print_sink(prog);
    const bool record = !trace_out_path.empty();
    si::RingBufferSink ring(record ? trace_ring : 1);
    si::TeeSink tee(print_sink, ring);
    if (trace && record)
        cfg.traceSink = &tee;
    else if (trace)
        cfg.traceSink = &print_sink;
    else if (record)
        cfg.traceSink = &ring;

    auto write_trace = [&]() {
        if (!record)
            return;
        // Metrics counter tracks ride along in the same timeline.
        if (si::cli::writeOutput(
                trace_out_path,
                si::chromeTraceJson(
                    ring.snapshot(), &prog,
                    metrics ? si::metricsCounterSamples(sampler)
                            : std::vector<si::CounterSample>{}),
                "swsim")) {
            std::fprintf(
                stderr, "trace: %s (%llu events, %llu dropped)\n",
                trace_out_path.c_str(),
                static_cast<unsigned long long>(ring.snapshot().size()),
                static_cast<unsigned long long>(ring.dropped()));
        }
        if (ring.dropped() > 0)
            std::fprintf(stderr,
                         "swsim: warning: trace ring dropped %llu "
                         "events; the timeline is incomplete (raise "
                         "--trace-ring)\n",
                         static_cast<unsigned long long>(ring.dropped()));
    };

    if (inject) {
        // Fault-injection mode: corrupt the machine mid-run and report
        // whether the fault-tolerance layer caught and classified it.
        si::Memory mem;
        const std::shared_ptr<const si::FaultInjector> injector =
            si::armFault(cfg, {*inject, 500, cfg.rngSeed});
        const si::GpuResult r = si::simulate(cfg, mem, prog, {warps, 4});
        write_trace(); // the damaged run's timeline, including FaultInject
        if (!injector->fired()) {
            // A run that failed before any injection point (a bad
            // config, say) reports that failure, not a missed point.
            if (!r.ok())
                return runFailed(r.status);
            std::fprintf(stderr,
                         "swsim: no %s injection point reached\n",
                         si::faultKindName(*inject));
            return 1;
        }
        std::printf("injected: %s\n", injector->description().c_str());
        if (r.ok()) {
            std::fprintf(stderr,
                         "swsim: fault NOT detected (run finished with "
                         "status '%s')\n",
                         r.status.summary().c_str());
            return 1;
        }
        // Name the detector that tripped, not just the error class: a
        // livelock watchdog catch and an invariant-checker catch demand
        // different follow-up.
        std::printf("caught: [%s] by %s: %s\n",
                    si::errorKindName(r.status.kind),
                    si::errorDetectorName(r.status.kind),
                    r.status.message.c_str());
        return 0;
    }

    if (!campaign_dir.empty()) {
        // Campaign mode: baseline + the paper's six SI points over this
        // kernel, each cell in a forked child, resumable via the
        // si-campaign-v1 manifest in campaign_dir.
        si::Workload wl;
        wl.name = prog.name();
        wl.program = prog;
        wl.launch = {warps, 4};
        wl.memory = std::make_shared<si::Memory>();

        si::GpuConfig base = cfg;
        base.siEnabled = false;
        base.yieldEnabled = false;
        base.traceSink = nullptr;
        std::vector<std::pair<std::string, si::GpuConfig>> configs;
        configs.emplace_back("baseline", base);
        for (const si::SiConfigPoint &p : si::siConfigPoints())
            configs.emplace_back(p.label, si::withSi(base, p));

        si::CampaignOptions opts;
        opts.stateDir = campaign_dir;
        opts.cellTimeoutSec = campaign_timeout;
        opts.maxRetries = campaign_retries;
        opts.checkpointEvery = checkpoint_every;
        opts.resume = campaign_resume;
        opts.maxCellsThisRun = campaign_cells;
        opts.jobs = campaign_jobs;
        if (campaign_inject) {
            // Soak mode: each cell's FIRST attempt gets a live fault
            // injected; the retry runs clean, so a healthy campaign
            // converges to all-done.
            opts.faultInjectionActive = true;
            opts.childConfigHook =
                si::faultFirstAttempt(*campaign_inject, 500);
        }

        si::CampaignRunner runner({wl}, configs, opts);
        si::CampaignReport report;
        try {
            report = runner.run();
        } catch (const si::SimError &e) {
            return runFailed(e.status());
        }
        for (const auto &cell : report.cells) {
            if (cell.done())
                std::printf("  %-12s %-12s done    %llu cycles "
                            "(%u attempt%s)\n",
                            cell.workload.c_str(),
                            cell.configLabel.c_str(),
                            static_cast<unsigned long long>(cell.cycles),
                            cell.attempts, cell.attempts == 1 ? "" : "s");
            else if (cell.failed())
                std::printf("  %-12s %-12s FAILED  [%s] %s "
                            "(flagged by %s)\n",
                            cell.workload.c_str(),
                            cell.configLabel.c_str(),
                            si::errorKindName(cell.kind),
                            cell.detail.c_str(), cell.diagnosis.c_str());
            else
                std::printf("  %-12s %-12s pending\n",
                            cell.workload.c_str(),
                            cell.configLabel.c_str());
        }
        std::printf("campaign: %u done, %u failed, %zu cells; "
                    "manifest %s\n",
                    report.numDone(), report.numFailed(),
                    report.cells.size(), report.manifestPath.c_str());
        if (!report.complete) {
            std::printf("campaign: cells remain; finish with "
                        "--campaign-resume\n");
            return 2;
        }
        return report.numFailed() ? 1 : 0;
    }

    if (checkpoint_every) {
        if (checkpoint_path.empty())
            checkpoint_path = path + ".ckpt";
        cfg.checkpointHook =
            si::checkpointEvery(checkpoint_every, checkpoint_path);
    }

    std::optional<std::string> container;
    if (!resume_path.empty()) {
        container = si::readWholeFile(resume_path);
        if (!container) {
            std::fprintf(stderr, "swsim: cannot read checkpoint '%s'\n",
                         resume_path.c_str());
            return 1;
        }
    }
    // An explicit machine, so --ff-report can read the leap
    // diagnostics after the run.
    si::Memory mem;
    si::Gpu gpu(cfg, mem);
    const si::GpuResult r = gpu.runMulti({{&prog, {warps, 4}}},
                                         container ? &*container : nullptr);
    if (ff_report)
        std::printf("fast-forward: %llu leaps, %llu cycles skipped%s\n",
                    static_cast<unsigned long long>(gpu.fastForwardLeaps()),
                    static_cast<unsigned long long>(
                        gpu.fastForwardCyclesSkipped()),
                    cfg.fastForward ? "" : " (faithful mode)");
    write_trace();
    if (!stats_json_path.empty()) {
        si::StatsJsonOptions opts;
        opts.regionNames = prog.regionNames();
        if (record) {
            opts.includeTrace = true;
            opts.traceRecorded = ring.snapshot().size();
            opts.traceDropped = ring.dropped();
        }
        si::cli::writeOutput(stats_json_path,
                             si::statsJson(r, prog.name(), opts), "swsim");
    }
    if (!stall_json_path.empty())
        si::cli::writeOutput(stall_json_path, si::stallReportJson(r, prog),
                             "swsim");
    if (metrics) {
        if (!metrics_out_path.empty())
            si::cli::writeOutput(metrics_out_path,
                                 si::metricsJson(sampler, prog.name(),
                                                 prog.regionNames()),
                                 "swsim");
        if (!metrics_csv_path.empty())
            si::cli::writeOutput(metrics_csv_path, si::metricsCsv(sampler),
                                 "swsim");
        if (sampler.droppedTotal() > 0)
            std::fprintf(stderr,
                         "swsim: warning: metrics ring dropped %llu "
                         "windows; the series is incomplete (raise "
                         "--metrics-ring or --metrics-interval)\n",
                         static_cast<unsigned long long>(
                             sampler.droppedTotal()));
    }
    if (!r.ok()) {
        // The partial profile is what a hang is diagnosed from.
        if (stall_report)
            std::printf("%s", si::stallReport(r, prog).c_str());
        return runFailed(r.status);
    }

    if (race) {
        if (!race_det.races().empty()) {
            std::fputs(race_det.report().c_str(), stdout);
            std::fprintf(stderr,
                         "swsim: %zu subwarp-schedule-dependent race "
                         "pair(s) detected\n",
                         race_det.races().size());
            return 1;
        }
        std::printf("race sanitizer: no races detected\n");
    }

    std::printf("%s: %llu cycles, %llu instructions, IPC %.3f, "
                "%.1f%% exposed on memory\n",
                prog.name().c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.total.instrsIssued),
                r.smCycleSum()
                    ? double(r.total.instrsIssued) / double(r.smCycleSum())
                    : 0.0,
                100.0 * r.exposedStallFraction());
    if (stall_report)
        std::printf("%s", si::stallReport(r, prog).c_str());

    if (compare) {
        si::GpuConfig base = cfg;
        base.siEnabled = false;
        base.yieldEnabled = false;
        base.dwsEnabled = false;
        base.traceSink = nullptr;
        base.raceHooks = nullptr;
        si::Memory mem2;
        const si::GpuResult rb = si::simulate(base, mem2, prog,
                                              {warps, 4});
        std::printf("baseline: %llu cycles -> speedup %.1f%%\n",
                    static_cast<unsigned long long>(rb.cycles),
                    si::speedupPct(rb, r));
    }

    if (dump_stats)
        std::printf("%s", si::statsReport(r).c_str());
    return 0;
}
