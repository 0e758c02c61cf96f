/**
 * @file
 * Figure 3: exposed load-to-use stalls, total and within divergent code
 * blocks, normalized to kernel runtime, measured on the *baseline*
 * configuration across the ten raytracing traces.
 *
 * Paper shape: every trace spends a significant fraction of its time
 * (roughly 25%-70%) exposed on memory, and for most traces the
 * majority of those stall cycles occur in divergent code.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("fig03_characterization", argc, argv);

    si::bench::Grid grid(bj);
    grid.apps();
    const std::size_t base = grid.column("baseline", bj.baseline());
    grid.run();

    si::TablePrinter t(
        "Figure 3: stalls normalized to kernel time (baseline, lat=600)");
    t.header({"trace", "total exposed ld-to-use", "in divergent blocks"});
    const std::vector<double> means = grid.pctRows(
        t, {grid.perRow([&](std::size_t r) {
                return 100.0 * grid.result(r, base).exposedStallFraction();
            }),
            grid.perRow([&](std::size_t r) {
                return 100.0 *
                       grid.result(r, base).divergentStallFraction();
            })});
    t.print();

    bj.table(t);
    bj.metric("mean_exposed_pct/total", means[0]);
    bj.metric("mean_exposed_pct/divergent", means[1]);
    return bj.finish() ? 0 : 1;
}
