/**
 * @file
 * Figure 13: average Subwarp Interleaving speedup over baseline across
 * L1 miss latencies {300, 600, 900} for all six SI configurations plus
 * BestOf.
 *
 * Paper shape: speedups grow with miss latency — BestOf averages of
 * 4.2% / 6.6% / 7.6% at 300 / 600 / 900 cycles.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("fig13_latency_sweep", argc, argv);
    const auto &points = si::siConfigPoints();
    const unsigned lats[] = {300, 600, 900};

    // One grid: per latency, a baseline column followed by the six SI
    // points, so each app is built once for all three latencies.
    si::bench::Grid grid(bj);
    grid.apps();
    std::vector<std::size_t> bases;
    for (unsigned lat : lats) {
        const std::string tag = "lat" + std::to_string(lat);
        const si::GpuConfig base = bj.baseline(lat);
        bases.push_back(grid.column(tag + " baseline", base));
        for (const auto &pt : points)
            grid.column(tag + " " + pt.label, si::withSi(base, pt));
    }
    grid.run();

    si::TablePrinter t("Figure 13: average speedup vs L1 miss latency");
    std::vector<std::string> hdr = {"config"};
    for (unsigned lat : lats)
        hdr.push_back("lat" + std::to_string(lat));
    t.header(hdr);

    for (std::size_t c = 0; c < points.size(); ++c) {
        std::vector<std::string> row = {points[c].label};
        for (std::size_t b : bases) {
            row.push_back(si::TablePrinter::pct(
                si::mean(grid.speedups(b, b + 1 + c))));
        }
        t.row(row);
    }
    std::vector<std::string> best_row = {"BestOf"};
    std::vector<double> best_means;
    for (std::size_t b : bases) {
        best_means.push_back(si::mean(grid.perRow([&](std::size_t r) {
            return grid.bestOf(r, b, points.size());
        })));
        best_row.push_back(si::TablePrinter::pct(best_means.back()));
    }
    t.row(best_row);
    t.print();

    bj.table(t);
    for (std::size_t i = 0; i < best_means.size(); ++i) {
        bj.metric("bestof_speedup_pct/lat" + std::to_string(lats[i]),
                  best_means[i]);
    }
    return bj.finish() ? 0 : 1;
}
