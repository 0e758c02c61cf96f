/**
 * @file
 * Figure 15: sensitivity to the number of subwarps per warp the thread
 * status table supports ({2, 4, 6, unlimited}), at 32 peak warps per SM.
 *
 * Paper shape: 2 subwarps already capture an average ~4.2% speedup;
 * returns grow sub-linearly (4-subwarp config reaches ~82% of the
 * unlimited configuration's upside).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("fig15_subwarp_count", argc, argv);

    // One shared baseline, then SI at each TST subwarp budget.
    const std::vector<unsigned> budgets = {2, 4, 6, 32};
    si::bench::Grid grid(bj);
    grid.apps();
    const std::size_t base = grid.column("baseline", bj.baseline());
    for (unsigned budget : budgets) {
        si::GpuConfig si_cfg =
            si::withSi(bj.baseline(), si::bestSiConfigPoint());
        si_cfg.maxSubwarps = budget;
        grid.column("tst=" + std::to_string(budget), si_cfg);
    }
    grid.run();
    std::vector<std::vector<double>> cols;
    for (std::size_t i = 0; i < budgets.size(); ++i)
        cols.push_back(grid.speedups(base, base + 1 + i));

    si::TablePrinter t(
        "Figure 15: speedup vs TST subwarp budget "
        "(Both,N>=0.5, lat=600, 32 peak warps)");
    t.header({"trace", "2 subwarps", "4 subwarps", "6 subwarps",
              "unlimited"});
    const std::vector<double> means = grid.pctRows(t, cols);

    if (means.back() > 0) {
        std::printf("\n4-subwarp configuration captures %.0f%% of the "
                    "unlimited configuration's mean upside\n",
                    100.0 * means[1] / means.back());
    }
    t.print();

    bj.table(t);
    for (std::size_t i = 0; i < budgets.size(); ++i) {
        bj.metric("mean_speedup_pct/tst" + std::to_string(budgets[i]),
                  means[i]);
    }
    return bj.finish() ? 0 : 1;
}
