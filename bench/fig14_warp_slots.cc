/**
 * @file
 * Figure 14: sensitivity to the number of warp slots per SM. Peak warp
 * count is throttled to {8, 16, 32} per SM ({2, 4, 8} per processing
 * block) and SI (best setting) is compared against an identically
 * throttled baseline.
 *
 * Paper shape: SI keeps most of its benefit under throttling —
 * average speedups of 5.1% / 5.7% / 6.3% at 8 / 16 / 32 warps — since
 * warp throttling hurts baseline and SI latency tolerance alike.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("fig14_warp_slots", argc, argv);

    // Per slot budget, a throttled baseline and SI on top of it.
    const std::vector<unsigned> slot_cfgs = {2u, 4u, 8u};
    si::bench::Grid grid(bj);
    grid.apps();
    std::vector<std::size_t> bases;
    for (unsigned slots : slot_cfgs) {
        si::GpuConfig base = bj.baseline();
        base.warpSlotsPerPb = slots;
        const std::string tag = "slots=" + std::to_string(slots * 4);
        bases.push_back(grid.column(tag + " baseline", base));
        grid.column(tag + " SI", si::withSi(base, si::bestSiConfigPoint()));
    }
    grid.run();
    std::vector<std::vector<double>> cols;
    for (std::size_t b : bases)
        cols.push_back(grid.speedups(b, b + 1));

    si::TablePrinter t(
        "Figure 14: speedup vs equally-throttled baseline "
        "(Both,N>=0.5, lat=600)");
    t.header({"trace", "8 warps", "16 warps", "32 warps"});
    const std::vector<double> means = grid.pctRows(t, cols);
    t.print();

    bj.table(t);
    bj.metric("mean_speedup_pct/warps8", means[0]);
    bj.metric("mean_speedup_pct/warps16", means[1]);
    bj.metric("mean_speedup_pct/warps32", means[2]);
    return bj.finish() ? 0 : 1;
}
