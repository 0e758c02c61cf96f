/**
 * @file
 * Policy explorer: a CLI playground over the full SI design space on
 * any of the paper's application traces.
 *
 * Usage:
 *   policy_explorer [app] [latency] [--stats]
 *     app      one of AV1 AV2 BFV1 BFV2 Coll1 Coll2 Ctrl DDGI MC MW
 *              (default BFV1)
 *     latency  L1 miss latency in cycles (default 600)
 *
 * Prints a grid over {trigger} x {SOS, Both} x {TST budget}.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "rt/apps.hh"

namespace {

const char *
triggerName(si::SelectTrigger t)
{
    switch (t) {
      case si::SelectTrigger::AnyStalled: return "N>0";
      case si::SelectTrigger::HalfStalled: return "N>=0.5";
      case si::SelectTrigger::AllStalled: return "N=1";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app_name = argc > 1 ? argv[1] : "BFV1";
    const si::Cycle latency = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                       : 600;
    bool dump_stats = false;
    for (int i = 1; i < argc; ++i)
        dump_stats |= std::strcmp(argv[i], "--stats") == 0;

    const si::AppId *chosen = nullptr;
    for (const si::AppId &id : si::allApps()) {
        if (app_name == si::appName(id)) {
            chosen = &id;
            break;
        }
    }
    if (!chosen) {
        std::fprintf(stderr,
                     "unknown app '%s'; expected one of:", app_name.c_str());
        for (si::AppId id : si::allApps())
            std::fprintf(stderr, " %s", si::appName(id));
        std::fprintf(stderr, "\n");
        return 1;
    }

    std::printf("building %s...\n", app_name.c_str());
    const si::Workload wl = si::buildApp(*chosen);
    const si::GpuConfig base = si::baselineConfig(latency);
    const si::GpuResult rb = si::runWorkload(wl, base);
    std::printf("baseline: %llu cycles, %.1f%% of time exposed on "
                "memory (%.1f%% divergent)\n",
                static_cast<unsigned long long>(rb.cycles),
                100.0 * rb.exposedStallFraction(),
                100.0 * rb.divergentStallFraction());

    si::TablePrinter t(app_name + " @ lat " + std::to_string(latency) +
                       ": SI speedup over baseline");
    t.header({"trigger", "mode", "TST=2", "TST=4", "TST=6", "TST=32"});

    for (si::SelectTrigger trig :
         {si::SelectTrigger::AllStalled, si::SelectTrigger::HalfStalled,
          si::SelectTrigger::AnyStalled}) {
        for (bool yield : {false, true}) {
            std::vector<std::string> row = {triggerName(trig),
                                            yield ? "Both" : "SOS"};
            for (unsigned tst : {2u, 4u, 6u, 32u}) {
                si::GpuConfig cfg = base;
                cfg.siEnabled = true;
                cfg.yieldEnabled = yield;
                cfg.trigger = trig;
                cfg.maxSubwarps = tst;
                const si::GpuResult rs = si::runWorkload(wl, cfg);
                row.push_back(
                    si::TablePrinter::pct(si::speedupPct(rb, rs)));
            }
            t.row(row);
            std::fprintf(stderr, "  [%s %s done]\n", triggerName(trig),
                         yield ? "Both" : "SOS");
        }
    }
    t.print();

    if (dump_stats) {
        std::printf("\n-- full baseline statistics --\n%s",
                    si::statsReport(rb).c_str());
    }
    return 0;
}
