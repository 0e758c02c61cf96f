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

/**
 * Write row @p r's si-stats-v1 documents, SI off and on, to
 * PREFIX_<app>_base.json and PREFIX_<app>_si.json.
 */
void
writeStats(const std::string &prefix, const si::bench::Grid &grid,
           std::size_t r, std::size_t base, std::size_t si_col)
{
    si::StatsJsonOptions opts;
    opts.regionNames = grid.workload(r).program.regionNames();
    const std::string slug = prefix + "_" + slugOf(grid.name(r));
    for (const auto &[suffix, col] :
         {std::pair<const char *, std::size_t>{"_base.json", base},
          {"_si.json", si_col}}) {
        std::ofstream f(slug + suffix, std::ios::binary);
        if (f)
            f << si::statsJson(grid.result(r, col), grid.name(r), opts);
        else
            std::fprintf(stderr, "fig12b: cannot write '%s%s'\n",
                         slug.c_str(), suffix);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_out;
    si::bench::BenchJson bj(
        "fig12b_stall_reduction", argc, argv, [&](si::cli::Parser &cli) {
            cli.text("--metrics-out", metrics_out, "PREFIX",
                     "write each app's si-stats-v1 documents, SI off and "
                     "on, to PREFIX_<app>_base.json and PREFIX_<app>_si.json");
        });

    si::bench::Grid grid(bj);
    grid.apps();
    const std::size_t base = grid.column("baseline", bj.baseline());
    const std::size_t si_col = grid.column(
        si::bestSiConfigPoint().label,
        si::withSi(bj.baseline(), si::bestSiConfigPoint()));
    grid.run();

    // Per-config si-stats-v1 exports: the base/test input pair for
    // swprof --diff's per-region CPI-stack attribution.
    if (!metrics_out.empty()) {
        for (std::size_t r : grid.rows())
            writeStats(metrics_out, grid, r, base, si_col);
    }

    auto reduction = [&](auto stat) {
        return grid.perRow([&](std::size_t r) {
            const double before = double(stat(grid.result(r, base)));
            const double after = double(stat(grid.result(r, si_col)));
            return before <= 0.0 ? 0.0 : 100.0 * (before - after) / before;
        });
    };
    si::TablePrinter t(
        "Figure 12b: reduction in exposed load-to-use stalls "
        "(Both,N>=0.5, lat=600)");
    t.header({"trace", "total stalls", "divergent stalls"});
    const std::vector<double> means = grid.pctRows(
        t, {reduction([](const si::GpuResult &g) {
                return g.total.exposedLoadStallCycles;
            }),
            reduction([](const si::GpuResult &g) {
                return g.total.exposedLoadStallCyclesDivergent;
            })});
    t.print();

    bj.table(t);
    bj.metric("mean_reduction_pct/total", means[0]);
    bj.metric("mean_reduction_pct/divergent", means[1]);
    return bj.finish() ? 0 : 1;
}
