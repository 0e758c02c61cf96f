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
 * `swprof --help` lists every option; the machine-model ones are
 * shared with swsim.
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
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/stall_hints.hh"
#include "metrics/profdiff.hh"
#include "trace/chrome_trace.hh"
#include "trace/sinks.hh"

namespace {

const char *const diffSynopsis = "--diff BASE.json TEST.json [--json FILE]";

/** swprof --diff BASE.json TEST.json [--json FILE] */
int
diffMain(int argc, char **argv)
{
    std::string json_path;
    std::vector<std::string> files;
    si::cli::Parser cli("swprof", diffSynopsis);
    cli.positional(files, "BASE.json TEST.json", 2, 2)
        .flag("--diff", [] {},
              "diff two si-stats-v1/si-metrics-v1 documents per region")
        .text("--json", json_path, "FILE",
              "also write the diff as si-profdiff-v1; - is stdout");
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;

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

    const si::ProfDiff result = si::diffProf(sides[0], sides[1]);
    std::printf("%s", si::profDiffReport(result).c_str());
    if (!json_path.empty() &&
        !si::cli::writeOutput(json_path, si::profDiffJson(result), "swprof"))
        return 1;
    if (result.residual != 0) {
        std::fprintf(stderr,
                     "swprof: nonzero residual %lld — the inputs do not "
                     "reconcile with the warp-cycle partition\n",
                     static_cast<long long>(result.residual));
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Diff mode has its own option table.
    if (argc > 1 && std::string(argv[1]) == "--diff")
        return diffMain(argc, argv);

    si::MachineOptions machine;
    si::GpuConfig &cfg = machine.config;
    std::vector<std::string> kernel;
    unsigned ring_cap = 1u << 20;
    unsigned top_n = 10;
    std::string json_path, stats_json_path, trace_path, trace_bin_path;

    si::cli::Parser cli("swprof", std::string("KERNEL.sasm [options]\n"
                                              "       swprof ") +
                                      diffSynopsis);
    cli.positional(kernel, "KERNEL.sasm", 1, 1);
    si::addMachineOptions(cli, machine);
    cli.number("--top", top_n, "rows per hotspot table (default 10)")
        .text("--json", json_path, "FILE",
              "machine-readable stall report (si-stall-v1); - is stdout")
        .text("--stats-json", stats_json_path, "FILE",
              "machine-readable run statistics (si-stats-v1)")
        .text("--trace", trace_path, "FILE",
              "Chrome trace_event JSON of the recorded timeline")
        .text("--trace-bin", trace_bin_path, "FILE",
              "compact binary dump of the recorded timeline")
        .number("--ring", ring_cap,
                "ring-buffer capacity in events, at most " +
                    std::to_string(si::cli::maxTraceRing) + " (default 1Mi)",
                0, si::cli::maxTraceRing);
    if (const std::optional<int> status = cli.parse(argc, argv))
        return *status;
    const std::string &path = kernel.front();

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

    if (machine.hints) {
        const si::StallHintReport rep = si::annotateStallHints(prog);
        cfg.divergeOrder = si::DivergeOrder::HintStallFirst;
        std::printf("stall hints: %u/%u branches hinted\n",
                    rep.branchesHinted, rep.branchesAnalyzed);
    }

    // A sink only when a timeline export was requested (the ring is
    // the memory-heavy part); the stall report needs none.
    const bool record = !trace_path.empty() || !trace_bin_path.empty();
    si::RingBufferSink ring(record ? ring_cap : 1);
    if (record)
        cfg.traceSink = &ring;

    si::Memory mem;
    const si::GpuResult r = si::simulate(cfg, mem, prog, {machine.warps, 4});

    if (!trace_path.empty() &&
        si::cli::writeOutput(trace_path,
                             si::chromeTraceJson(ring.snapshot(), &prog),
                             "swprof")) {
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
        si::cli::writeOutput(json_path, si::stallReportJson(r, prog),
                             "swprof");
    if (!stats_json_path.empty()) {
        si::StatsJsonOptions opts;
        opts.regionNames = prog.regionNames();
        si::cli::writeOutput(stats_json_path,
                             si::statsJson(r, prog.name(), opts), "swprof");
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
