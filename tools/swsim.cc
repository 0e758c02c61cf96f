/**
 * @file
 * swsim — run a SASS-like assembly kernel on the simulator from the
 * command line.
 *
 *   swsim KERNEL.sasm [options]
 *
 * Options:
 *   --warps N          warps to launch (default 4)
 *   --lat N            L1 miss latency in cycles (default 600)
 *   --si               enable Subwarp Interleaving (SOS)
 *   --yield            also enable subwarp-yield (implies --si)
 *   --trigger any|half|all   selection trigger (default half)
 *   --tst N            thread status table entries (default 32)
 *   --sms N            number of SMs (default 2)
 *   --slots N          warp slots per processing block (default 8)
 *   --mshrs N          outstanding-miss budget (default unlimited)
 *   --hints            run the static stall-hint pass + hint policy
 *   --sched gto|lrr    warp scheduler (default gto)
 *   --check-invariants run the opt-in machine-state audits
 *   --race             attach the happens-before race sanitizer
 *                      (race/detector): report every intra-warp
 *                      subwarp-schedule-dependent access pair with both
 *                      pcs, lanes, address, and cycle; exit 1 when any
 *                      race is found
 *   --inject K         fault injection: K = scoreboard|dropwb|barrier;
 *                      corrupts live state mid-run and reports whether
 *                      the watchdog/checker caught it (exit 0 = caught)
 *   --stats            dump full statistics
 *   --stats-json FILE  write machine-readable statistics (si-stats-v1);
 *                      FILE = - writes to stdout
 *   --metrics-out FILE write windowed time-series metrics
 *                      (si-metrics-v1); FILE = - writes to stdout
 *   --metrics-csv FILE write the same series as CSV
 *   --metrics-interval N  cycles per metrics window (default 0: one
 *                      window spanning the whole run)
 *   --metrics-ring N   windows retained per SM (default 4096); older
 *                      windows are dropped (and counted) beyond this
 *   --checkpoint-every N  write a sisnap-v2 checkpoint every N cycles
 *   --checkpoint FILE  checkpoint path (default KERNEL.sasm.ckpt)
 *   --resume FILE      restore a checkpoint and continue the run; the
 *                      resumed run is bit-exact with an uninterrupted one
 *   --campaign-state DIR  campaign mode: sweep baseline + the six SI
 *                      configurations over this kernel, one forked child
 *                      per cell, with a resumable si-campaign-v1
 *                      manifest in DIR (exit 0 complete, 2 cells left)
 *   --campaign-resume  continue the campaign recorded in DIR
 *   --campaign-cells N stop after N cells (forces a mid-campaign
 *                      restart; finish later with --campaign-resume)
 *   --campaign-timeout SEC  per-cell wall budget (SIGKILL on overrun)
 *   --campaign-retries N    retries for transiently-failed cells
 *   --campaign-inject K     inject fault K into each cell's first
 *                      attempt (soak testing: retries must recover)
 *   --campaign-jobs N  run campaign cells on an in-process thread pool
 *                      with N workers instead of forking; the final
 *                      manifest is byte-identical to the fork path's
 *                      cell grid at any N (wall budgets classify as
 *                      WallClock instead of ChildTimeout)
 *   --fast-forward[=off]  event-driven cycle leaping (default on):
 *                      quiet stretches of the clock loop are skipped in
 *                      one step with exact stats back-fill; every
 *                      artifact is bit-identical either way. =off forces
 *                      faithful per-cycle execution. Auto-pinned to
 *                      faithful mode by --race and --inject
 *   --ff-report        print fast-forward diagnostics (leaps taken and
 *                      cycles skipped) after the run
 *   --trace            print the per-issue timeline
 *   --trace-out FILE   record the trace-event stream (bounded ring
 *                      buffer) and write a Chrome trace_event JSON,
 *                      loadable in Perfetto; written even when the run
 *                      fails, so livelock reports come with a timeline
 *   --trace-ring N     ring-buffer capacity in events (default 1Mi)
 *   --disasm           print the kernel listing before running
 *   --compare          also run the baseline and report the speedup
 *   --help, -h         print usage on stdout and exit 0
 *
 * Exit status: 0 on success (for --inject: fault caught), 1 on bad
 * usage, assembly error, or a failed/undetected run.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <memory>

#include "common/log.hh"
#include "common/rng.hh"
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

void
usage(std::FILE *out = stderr)
{
    std::fprintf(out,
                 "usage: swsim KERNEL.sasm [--warps N] [--lat N] [--si] "
                 "[--yield]\n"
                 "             [--trigger any|half|all] [--tst N] "
                 "[--sms N] [--slots N]\n"
                 "             [--mshrs N] [--hints] [--sched gto|lrr] "
                 "[--race] [--stats]\n"
                 "             [--stats-json FILE] [--metrics-out FILE] "
                 "[--metrics-csv FILE]\n"
                 "             [--metrics-interval N] [--metrics-ring N] "
                 "[--trace]\n"
                 "             [--trace-out FILE]\n"
                 "             [--trace-ring N] [--disasm] [--compare]\n"
                 "             [--checkpoint-every N] [--checkpoint FILE]"
                 " [--resume FILE]\n"
                 "             [--campaign-state DIR] [--campaign-resume]"
                 " [--campaign-cells N]\n"
                 "             [--campaign-timeout SEC] "
                 "[--campaign-retries N] [--campaign-inject K]\n"
                 "             [--campaign-jobs N] [--fast-forward[=off]]"
                 " [--ff-report]\n");
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

bool
writeFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "swsim: cannot write '%s'\n", path.c_str());
        return false;
    }
    f << content;
    return bool(f);
}

bool
parseUnsigned(const char *s, unsigned &out)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 0);
    if (end == s || *end != '\0')
        return false;
    out = unsigned(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(stdout);
            return 0;
        }
    }
    si::verboseLogging = false;
    if (argc < 2) {
        usage();
        return 1;
    }

    const std::string path = argv[1];
    si::GpuConfig cfg;
    unsigned warps = 4;
    unsigned mshrs = 0;
    unsigned trace_ring = 1u << 20;
    bool si_on = false, yield = false, hints = false;
    bool dump_stats = false, trace = false, disasm = false;
    bool compare = false;
    bool inject = false;
    bool race = false;
    bool ff_report = false;
    std::string stats_json_path, trace_out_path;
    std::string metrics_out_path, metrics_csv_path;
    unsigned metrics_interval = 0;
    unsigned metrics_ring = 4096;
    si::FaultKind fault_kind = si::FaultKind::ScoreboardCorruption;
    unsigned checkpoint_every = 0;
    std::string checkpoint_path, resume_path;
    std::string campaign_dir;
    bool campaign_resume = false;
    bool campaign_inject = false;
    si::FaultKind campaign_fault = si::FaultKind::DroppedWriteback;
    unsigned campaign_cells = 0, campaign_timeout = 0;
    unsigned campaign_retries = 2;
    unsigned campaign_jobs = 0;

    auto parse_fault_kind = [](const std::string &k,
                               si::FaultKind &out) {
        if (k == "scoreboard")
            out = si::FaultKind::ScoreboardCorruption;
        else if (k == "dropwb")
            out = si::FaultKind::DroppedWriteback;
        else if (k == "barrier")
            out = si::FaultKind::BarrierMaskCorruption;
        else
            return false;
        return true;
    };

    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next_uint = [&](unsigned &out) {
            if (i + 1 >= argc || !parseUnsigned(argv[++i], out)) {
                std::fprintf(stderr, "swsim: %s needs a number\n",
                             a.c_str());
                std::exit(1);
            }
        };
        if (a == "--warps") {
            next_uint(warps);
        } else if (a == "--lat") {
            unsigned v;
            next_uint(v);
            cfg.lat.l1Miss = v;
        } else if (a == "--si") {
            si_on = true;
        } else if (a == "--yield") {
            si_on = yield = true;
        } else if (a == "--trigger") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            const std::string t = argv[++i];
            if (t == "any")
                cfg.trigger = si::SelectTrigger::AnyStalled;
            else if (t == "half")
                cfg.trigger = si::SelectTrigger::HalfStalled;
            else if (t == "all")
                cfg.trigger = si::SelectTrigger::AllStalled;
            else {
                std::fprintf(stderr, "swsim: bad trigger '%s'\n",
                             t.c_str());
                return 1;
            }
        } else if (a == "--tst") {
            next_uint(cfg.maxSubwarps);
        } else if (a == "--sms") {
            next_uint(cfg.numSms);
        } else if (a == "--slots") {
            next_uint(cfg.warpSlotsPerPb);
        } else if (a == "--mshrs") {
            next_uint(mshrs);
        } else if (a == "--hints") {
            hints = true;
        } else if (a == "--sched") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            const std::string s = argv[++i];
            if (s == "gto")
                cfg.sched = si::SchedPolicy::GTO;
            else if (s == "lrr")
                cfg.sched = si::SchedPolicy::LRR;
            else {
                std::fprintf(stderr, "swsim: bad scheduler '%s'\n",
                             s.c_str());
                return 1;
            }
        } else if (a == "--check-invariants") {
            cfg.checkInvariants = true;
        } else if (a == "--race") {
            race = true;
        } else if (a == "--inject") {
            if (i + 1 >= argc || !parse_fault_kind(argv[++i],
                                                   fault_kind)) {
                std::fprintf(stderr, "swsim: --inject needs "
                                     "scoreboard|dropwb|barrier\n");
                return 1;
            }
            inject = true;
        } else if (a == "--checkpoint-every") {
            next_uint(checkpoint_every);
        } else if (a == "--checkpoint") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            checkpoint_path = argv[++i];
        } else if (a == "--resume") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            resume_path = argv[++i];
        } else if (a == "--campaign-state") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            campaign_dir = argv[++i];
        } else if (a == "--campaign-resume") {
            campaign_resume = true;
        } else if (a == "--campaign-cells") {
            next_uint(campaign_cells);
        } else if (a == "--campaign-timeout") {
            next_uint(campaign_timeout);
        } else if (a == "--campaign-retries") {
            next_uint(campaign_retries);
        } else if (a == "--campaign-jobs") {
            next_uint(campaign_jobs);
        } else if (a == "--campaign-inject") {
            if (i + 1 >= argc || !parse_fault_kind(argv[++i],
                                                   campaign_fault)) {
                std::fprintf(stderr, "swsim: --campaign-inject needs "
                                     "scoreboard|dropwb|barrier\n");
                return 1;
            }
            campaign_inject = true;
        } else if (a == "--stats") {
            dump_stats = true;
        } else if (a == "--stats-json") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            stats_json_path = argv[++i];
        } else if (a == "--metrics-out") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            metrics_out_path = argv[++i];
        } else if (a == "--metrics-csv") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            metrics_csv_path = argv[++i];
        } else if (a == "--metrics-interval") {
            next_uint(metrics_interval);
        } else if (a == "--metrics-ring") {
            next_uint(metrics_ring);
        } else if (a == "--fast-forward" || a == "--fast-forward=on") {
            cfg.fastForward = true;
        } else if (a == "--fast-forward=off") {
            cfg.fastForward = false;
        } else if (a == "--ff-report") {
            ff_report = true;
        } else if (a == "--trace") {
            trace = true;
        } else if (a == "--trace-out") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            trace_out_path = argv[++i];
        } else if (a == "--trace-ring") {
            next_uint(trace_ring);
        } else if (a == "--disasm") {
            disasm = true;
        } else if (a == "--compare") {
            compare = true;
        } else {
            std::fprintf(stderr, "swsim: unknown option '%s'\n",
                         a.c_str());
            usage();
            return 1;
        }
    }

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

    if (hints) {
        const si::StallHintReport rep = si::annotateStallHints(prog);
        cfg.divergeOrder = si::DivergeOrder::HintStallFirst;
        std::printf("stall hints: %u/%u branches hinted\n",
                    rep.branchesHinted, rep.branchesAnalyzed);
    }
    if (disasm)
        std::printf("%s\n", prog.disasm().c_str());

    cfg.siEnabled = si_on;
    cfg.yieldEnabled = yield;
    cfg.maxOutstandingMisses = mshrs;

    // Windowed metrics: a read-only observer on the clock loop.
    const bool metrics =
        !metrics_out_path.empty() || !metrics_csv_path.empty();
    si::MetricsSampler sampler(metrics_interval, metrics_ring);
    if (metrics) {
        if (inject || !campaign_dir.empty()) {
            // Both modes run (or re-run) the kernel under several
            // configs/children; one shared sampler would mix them.
            std::fprintf(stderr, "swsim: --metrics-out/--metrics-csv "
                                 "are exclusive with --inject and "
                                 "campaign mode\n");
            return 1;
        }
        cfg.metricsSampler = &sampler;
    }

    si::RaceDetector race_det;
    if (race) {
        if (inject || !campaign_dir.empty()) {
            // Injected faults corrupt live state (races on a corrupted
            // machine prove nothing); campaign cells run in forked
            // children whose detector state dies with them.
            std::fprintf(stderr, "swsim: --race is exclusive with "
                                 "--inject and campaign mode\n");
            return 1;
        }
        cfg.raceHooks = &race_det;
    }

    // Trace plumbing: print-as-you-go and/or record into a bounded ring
    // buffer for the Chrome-trace export.
    PrintSink print_sink(prog);
    si::RingBufferSink ring(trace_ring);
    si::TeeSink tee(print_sink, ring);
    const bool record = !trace_out_path.empty();
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
        if (writeFile(trace_out_path,
                      si::chromeTraceJson(
                          ring.snapshot(), &prog,
                          metrics ? si::metricsCounterSamples(sampler)
                                  : std::vector<si::CounterSample>{}))) {
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
        const std::vector<si::FaultSpec> specs = {
            {fault_kind, 500, cfg.rngSeed}};
        const std::vector<si::CampaignRun> runs = si::runCampaign(
            prog, {warps, 4}, mem, cfg, specs);
        const si::CampaignRun &run = runs.front();
        write_trace(); // the campaign timeline, including FaultInject
        if (!run.injected) {
            std::fprintf(stderr,
                         "swsim: no %s injection point reached\n",
                         si::faultKindName(fault_kind));
            return 1;
        }
        std::printf("injected: %s\n", run.description.c_str());
        if (!run.caught()) {
            std::fprintf(stderr,
                         "swsim: fault NOT detected (run finished with "
                         "status '%s')\n",
                         run.result.status.summary().c_str());
            return 1;
        }
        // Name the detector that tripped, not just the error class: a
        // livelock watchdog catch and an invariant-checker catch demand
        // different follow-up.
        std::printf("caught: [%s] by %s: %s\n",
                    si::errorKindName(run.result.status.kind),
                    si::errorDetectorName(run.result.status.kind),
                    run.result.status.message.c_str());
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
        opts.inProcessJobs = campaign_jobs;
        if (campaign_inject) {
            // Soak mode: each cell's FIRST attempt gets a live fault
            // injected; the retry runs clean, so a healthy campaign
            // converges to all-done. The injector leaks into the hook
            // on purpose — it must outlive the child's whole run.
            opts.faultInjectionActive = true;
            opts.childConfigHook =
                [campaign_fault](si::GpuConfig &c,
                                 const si::CampaignCellRecord &rec,
                                 unsigned attempt) {
                    if (attempt > 1)
                        return;
                    // Stream-seed by the cell's stable identity, not the
                    // shared base seed: every cell gets its own fault
                    // site, independent of execution order.
                    std::uint64_t ident = 1469598103934665603ull;
                    for (const std::string *s :
                         {&rec.workload, &rec.configLabel}) {
                        for (char ch : *s) {
                            ident ^= std::uint64_t(
                                static_cast<unsigned char>(ch));
                            ident *= 1099511628211ull;
                        }
                    }
                    const std::uint64_t seed =
                        si::Rng::streamSeed(c.rngSeed, ident);
                    auto inj = std::make_shared<si::FaultInjector>(
                        si::FaultSpec{campaign_fault, 500, seed});
                    c.faultHook = [inj, h = inj->hook()](
                                      si::Gpu &gpu, si::Cycle now) {
                        h(gpu, now);
                    };
                    c.checkInvariants = true;
                };
        }

        si::CampaignRunner runner({wl}, configs, opts);
        const si::CampaignReport report = runner.run();
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
        cfg.checkpointInterval = checkpoint_every;
        cfg.checkpointHook = [&checkpoint_path](const si::Gpu &gpu,
                                                si::Cycle) {
            si::SnapshotWriter w;
            gpu.save(w);
            si::writeSnapshotFile(checkpoint_path, w.finish());
        };
    }

    si::Memory mem;
    si::GpuResult r;
    if (!resume_path.empty() || checkpoint_every || ff_report) {
        // Explicit machine so the run can be frozen and/or thawed (and
        // so --ff-report can read the leap diagnostics afterwards).
        si::Gpu gpu(cfg, mem);
        const std::vector<si::KernelLaunch> kernels = {
            {&prog, {warps, 4}}};
        if (!resume_path.empty()) {
            try {
                const std::string container =
                    si::readSnapshotFile(resume_path);
                si::SnapshotReader reader(container);
                r = gpu.resumeMulti(kernels, reader);
            } catch (const si::SimError &e) {
                // Unreadable/corrupt container; resumeMulti itself
                // absorbs restore-time mismatches into r.status.
                std::fprintf(stderr, "swsim: %s\n",
                             e.status().summary().c_str());
                return 1;
            }
        } else {
            r = gpu.runMulti(kernels);
        }
        if (ff_report)
            std::printf("fast-forward: %llu leaps, %llu cycles "
                        "skipped%s\n",
                        static_cast<unsigned long long>(
                            gpu.fastForwardLeaps()),
                        static_cast<unsigned long long>(
                            gpu.fastForwardCyclesSkipped()),
                        gpu.fastForwardEligible() ? ""
                                                  : " (faithful mode)");
    } else {
        r = si::simulate(cfg, mem, prog, {warps, 4});
    }
    write_trace();
    if (!stats_json_path.empty()) {
        si::StatsJsonOptions opts;
        opts.regionNames = prog.regionNames();
        if (record) {
            opts.includeTrace = true;
            opts.traceRecorded = ring.snapshot().size();
            opts.traceDropped = ring.dropped();
        }
        writeFile(stats_json_path, si::statsJson(r, prog.name(), opts));
    }
    if (metrics) {
        if (!metrics_out_path.empty())
            writeFile(metrics_out_path,
                      si::metricsJson(sampler, prog.name(),
                                      prog.regionNames()));
        if (!metrics_csv_path.empty())
            writeFile(metrics_csv_path, si::metricsCsv(sampler));
        if (sampler.droppedTotal() > 0)
            std::fprintf(stderr,
                         "swsim: warning: metrics ring dropped %llu "
                         "windows; the series is incomplete (raise "
                         "--metrics-ring or --metrics-interval)\n",
                         static_cast<unsigned long long>(
                             sampler.droppedTotal()));
    }
    if (!r.ok()) {
        std::fprintf(stderr, "swsim: run failed [%s]: %s\n",
                     si::errorKindName(r.status.kind),
                     r.status.message.c_str());
        if (!r.status.diagnostic.empty())
            std::fprintf(stderr, "%s", r.status.diagnostic.c_str());
        return 1;
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
