/**
 * @file
 * swprof — stall-attribution profiler for SASS-like kernels.
 *
 *   swprof KERNEL.sasm [options]
 *
 * Runs the kernel and prints a per-reason / per-PC / per-opcode report
 * of lost issue slots, bucketed by the paper's Figure 3 stall reasons
 * from the core's own per-pc stall table (exact with fast-forward on).
 * Can also export the raw event timeline as a Chrome trace_event JSON
 * (loadable in Perfetto — one track per warp slot, so subwarp
 * interleaving is directly visible) or as the compact binary ring
 * format.
 *
 * Machine-model options (same meaning as swsim):
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
 *
 * Profiler options:
 *   --top N            rows per hotspot table (default 10)
 *   --json FILE        machine-readable stall report (si-stall-v1);
 *                      FILE = - writes to stdout
 *   --stats-json FILE  machine-readable run statistics (si-stats-v1)
 *   --trace FILE       Chrome trace_event JSON of the recorded timeline
 *   --trace-bin FILE   compact binary dump of the recorded timeline
 *   --ring N           ring-buffer capacity in events (default 1Mi)
 *   --help, -h         print usage on stdout and exit 0
 *
 * Diff mode:
 *   swprof --diff BASE.json TEST.json [--json FILE]
 *
 * Loads two exported documents (si-stats-v1 from --stats-json, or
 * si-metrics-v1 from swsim --metrics-out) of the same workload run
 * under two configurations — canonically SI off vs SI on — aligns
 * their kernel regions by name, and prints a per-region CPI-stack
 * difference: how each region's warp-cycles moved, decomposed into
 * issued / arbitration-loss / per-stall-reason contributions. The
 * decomposition is exact (zero residual) by the simulator's warp-cycle
 * partition identity. --json writes the same diff as si-profdiff-v1.
 *
 * Exit status: 0 on success, 1 on bad usage, assembly error, or a
 * failed run (the report and trace are still written on failure — a
 * livelock report comes with its timeline). Diff mode exits 1 on
 * unreadable inputs or a nonzero residual.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/stall_hints.hh"
#include "metrics/profdiff.hh"
#include "trace/chrome_trace.hh"
#include "trace/sinks.hh"

namespace {

void
usage(std::FILE *out = stderr)
{
    std::fprintf(out,
                 "usage: swprof KERNEL.sasm [--warps N] [--lat N] [--si] "
                 "[--yield]\n"
                 "              [--trigger any|half|all] [--tst N] "
                 "[--sms N] [--slots N]\n"
                 "              [--mshrs N] [--hints] [--sched gto|lrr] "
                 "[--top N]\n"
                 "              [--json FILE] [--stats-json FILE] "
                 "[--trace FILE]\n"
                 "              [--trace-bin FILE] [--ring N]\n"
                 "       swprof --diff BASE.json TEST.json [--json FILE]\n");
}

bool
writeFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return true;
    }
    std::ofstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "swprof: cannot write '%s'\n", path.c_str());
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

/** swprof --diff BASE.json TEST.json [--json FILE] */
int
diffMain(int argc, char **argv)
{
    std::string json_path;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            if (i + 1 >= argc) {
                usage();
                return 1;
            }
            json_path = argv[++i];
        } else if (!a.empty() && a[0] == '-' && a != "-") {
            std::fprintf(stderr, "swprof: unknown diff option '%s'\n",
                         a.c_str());
            usage();
            return 1;
        } else {
            files.push_back(a);
        }
    }
    if (files.size() != 2) {
        usage();
        return 1;
    }

    si::ProfSide sides[2];
    for (int s = 0; s < 2; ++s) {
        std::ifstream in(files[std::size_t(s)]);
        if (!in) {
            std::fprintf(stderr, "swprof: cannot open '%s'\n",
                         files[std::size_t(s)].c_str());
            return 1;
        }
        std::stringstream text;
        text << in.rdbuf();
        std::string error;
        if (!si::loadProfInput(text.str(), files[std::size_t(s)],
                               sides[s], error)) {
            std::fprintf(stderr, "swprof: %s\n", error.c_str());
            return 1;
        }
    }

    const si::ProfDiff diff = si::diffProf(sides[0], sides[1]);
    std::printf("%s", si::profDiffReport(diff).c_str());
    if (!json_path.empty() &&
        !writeFile(json_path, si::profDiffJson(diff)))
        return 1;
    if (diff.residual != 0) {
        std::fprintf(stderr,
                     "swprof: nonzero residual %lld — the inputs do not "
                     "reconcile with the warp-cycle partition\n",
                     static_cast<long long>(diff.residual));
        return 1;
    }
    return 0;
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
    if (std::strcmp(argv[1], "--diff") == 0)
        return diffMain(argc, argv);

    const std::string path = argv[1];
    si::GpuConfig cfg;
    unsigned warps = 4;
    unsigned mshrs = 0;
    unsigned ring_cap = 1u << 20;
    unsigned top_n = 10;
    bool si_on = false, yield = false, hints = false;
    std::string json_path, stats_json_path, trace_path, trace_bin_path;

    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto next_uint = [&](unsigned &out) {
            if (i + 1 >= argc || !parseUnsigned(argv[++i], out)) {
                std::fprintf(stderr, "swprof: %s needs a number\n",
                             a.c_str());
                std::exit(1);
            }
        };
        auto next_str = [&](std::string &out) {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            out = argv[++i];
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
            std::string t;
            next_str(t);
            if (t == "any")
                cfg.trigger = si::SelectTrigger::AnyStalled;
            else if (t == "half")
                cfg.trigger = si::SelectTrigger::HalfStalled;
            else if (t == "all")
                cfg.trigger = si::SelectTrigger::AllStalled;
            else {
                std::fprintf(stderr, "swprof: bad trigger '%s'\n",
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
            std::string s;
            next_str(s);
            if (s == "gto")
                cfg.sched = si::SchedPolicy::GTO;
            else if (s == "lrr")
                cfg.sched = si::SchedPolicy::LRR;
            else {
                std::fprintf(stderr, "swprof: bad scheduler '%s'\n",
                             s.c_str());
                return 1;
            }
        } else if (a == "--top") {
            next_uint(top_n);
        } else if (a == "--json") {
            next_str(json_path);
        } else if (a == "--stats-json") {
            next_str(stats_json_path);
        } else if (a == "--trace") {
            next_str(trace_path);
        } else if (a == "--trace-bin") {
            next_str(trace_bin_path);
        } else if (a == "--ring") {
            next_uint(ring_cap);
        } else {
            std::fprintf(stderr, "swprof: unknown option '%s'\n",
                         a.c_str());
            usage();
            return 1;
        }
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "swprof: cannot open '%s'\n", path.c_str());
        return 1;
    }
    std::stringstream source;
    source << in.rdbuf();

    si::AsmResult assembled = si::assemble(source.str());
    if (!assembled.ok) {
        std::fprintf(stderr, "swprof: %s: %s\n", path.c_str(),
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

    cfg.siEnabled = si_on;
    cfg.yieldEnabled = yield;
    cfg.maxOutstandingMisses = mshrs;

    // A sink only when a timeline export was requested (the ring is
    // the memory-heavy part); the stall report needs none.
    const bool record = !trace_path.empty() || !trace_bin_path.empty();
    si::RingBufferSink ring(record ? ring_cap : 1);
    if (record)
        cfg.traceSink = &ring;

    si::Memory mem;
    const si::GpuResult r = si::simulate(cfg, mem, prog, {warps, 4});

    if (!trace_path.empty() &&
        writeFile(trace_path, si::chromeTraceJson(ring.snapshot(), &prog))) {
        std::fprintf(stderr, "trace: %s (%llu events, %llu dropped)\n",
                     trace_path.c_str(),
                     static_cast<unsigned long long>(ring.snapshot().size()),
                     static_cast<unsigned long long>(ring.dropped()));
    }
    if (!trace_bin_path.empty()) {
        if (trace_bin_path == "-") {
            std::fprintf(stderr,
                         "swprof: --trace-bin cannot write to stdout\n");
        } else {
            std::ofstream f(trace_bin_path, std::ios::binary);
            if (f) {
                ring.writeBinary(f);
            } else {
                std::fprintf(stderr, "swprof: cannot write '%s'\n",
                             trace_bin_path.c_str());
            }
        }
    }
    if (!json_path.empty())
        writeFile(json_path, si::stallReportJson(r, prog));
    if (!stats_json_path.empty()) {
        si::StatsJsonOptions opts;
        opts.regionNames = prog.regionNames();
        writeFile(stats_json_path, si::statsJson(r, prog.name(), opts));
    }

    if (!r.ok()) {
        std::fprintf(stderr, "swprof: run failed [%s]: %s\n",
                     si::errorKindName(r.status.kind),
                     r.status.message.c_str());
        if (!r.status.diagnostic.empty())
            std::fprintf(stderr, "%s", r.status.diagnostic.c_str());
        // Fall through: the partial profile is exactly what you want
        // when diagnosing a hang.
    }

    std::printf("%s: %llu cycles, %llu instructions, IPC %.3f\n",
                prog.name().c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.total.instrsIssued),
                r.smCycleSum()
                    ? double(r.total.instrsIssued) / double(r.smCycleSum())
                    : 0.0);
    std::printf("%s", si::stallReport(r, prog, top_n).c_str());
    return r.ok() ? 0 : 1;
}
