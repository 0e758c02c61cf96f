/**
 * @file
 * Figure 12b: percentage reduction in exposed load-to-use stalls
 * (total, and within divergent code blocks) from Subwarp Interleaving
 * relative to the baseline, at L1 miss latency 600.
 *
 * Paper shape: divergent stalls drop by ~26.5% on average, with more
 * than half the traces seeing only small reductions; total-stall
 * reductions are smaller than divergent-stall reductions because SI
 * cannot touch convergent stalls.
 */

#include "bench_common.hh"

#include <cctype>
#include <fstream>

#include "harness/report.hh"

namespace {

/** App name -> filesystem-safe fragment. */
std::string
slugOf(const std::string &name)
{
    std::string s = name;
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("fig12b_stall_reduction", argc, argv,
                            /*campaign_capable=*/false,
                            /*metrics_capable=*/true);
    const si::GpuConfig base = si::baselineConfig();
    const si::GpuConfig si_cfg = si::withSi(base, si::bestSiConfigPoint());

    si::TablePrinter t(
        "Figure 12b: reduction in exposed load-to-use stalls "
        "(Both,N>=0.5, lat=600)");
    t.header({"trace", "total stalls", "divergent stalls"});

    auto reduction = [](double before, double after) {
        if (before <= 0.0)
            return 0.0;
        return 100.0 * (before - after) / before;
    };

    const std::vector<si::AppId> &ids = si::allApps();
    struct AppPair
    {
        si::GpuResult base, si;
        std::vector<std::string> regions;
    };
    std::vector<double> totals, divergents;
    si::parallel::mapIndexed<AppPair>(
        bj.jobs(), ids.size(),
        [&](std::size_t i) {
            const si::Workload wl = si::buildApp(ids[i]);
            return AppPair{si::runWorkload(wl, base),
                           si::runWorkload(wl, si_cfg),
                           wl.program.regionNames()};
        },
        [&](std::size_t i, const AppPair &p) {
            // Per-config si-stats-v1 exports: the base/test input pair
            // for swprof --diff's per-region CPI-stack attribution.
            if (!bj.metricsOut().empty()) {
                si::StatsJsonOptions opts;
                opts.regionNames = p.regions;
                const std::string name = si::appName(ids[i]);
                const std::string slug =
                    bj.metricsOut() + "_" + slugOf(name);
                for (const auto &[suffix, r] :
                     {std::pair<const char *, const si::GpuResult *>{
                          "_base.json", &p.base},
                      {"_si.json", &p.si}}) {
                    std::ofstream f(slug + suffix, std::ios::binary);
                    if (f)
                        f << si::statsJson(*r, name, opts);
                    else
                        std::fprintf(stderr,
                                     "fig12b: cannot write '%s%s'\n",
                                     slug.c_str(), suffix);
                }
            }
            const double tot = reduction(
                double(p.base.total.exposedLoadStallCycles),
                double(p.si.total.exposedLoadStallCycles));
            const double div = reduction(
                p.base.total.exposedLoadStallCyclesDivergent,
                p.si.total.exposedLoadStallCyclesDivergent);
            totals.push_back(tot);
            divergents.push_back(div);
            t.row({si::appName(ids[i]), si::TablePrinter::pct(tot),
                   si::TablePrinter::pct(div)});
            std::fprintf(stderr, "  [ran %s]\n", si::appName(ids[i]));
        });
    t.row({"mean", si::TablePrinter::pct(si::mean(totals)),
           si::TablePrinter::pct(si::mean(divergents))});
    t.print();

    bj.table(t);
    bj.metric("mean_reduction_pct/total", si::mean(totals));
    bj.metric("mean_reduction_pct/divergent", si::mean(divergents));
    return bj.finish() ? 0 : 1;
}
