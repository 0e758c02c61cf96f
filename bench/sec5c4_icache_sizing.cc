/**
 * @file
 * Section V-C-4: instruction cache sizing. The baseline upsizes the
 * L0I/L1I to 16KB/64KB to cater to SI's multi-stream fetch behaviour;
 * this experiment shrinks both by 4x (4KB/16KB, mimicking shipping
 * GPUs) and measures how much of SI's benefit survives.
 *
 * Paper shape: the 4x-smaller configuration yields a 4.5% average
 * speedup — about 70% of the best full-size configuration's 6.3%.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("sec5c4_icache_sizing", argc, argv);

    // Per icache size, a baseline and SI on top of it.
    si::bench::Grid grid(bj);
    grid.apps();
    std::vector<std::size_t> bases;
    for (const bool small : {false, true}) {
        si::GpuConfig base = bj.baseline();
        if (small) {
            base.l0i.sizeBytes = 4 * 1024;
            base.l1i.sizeBytes = 16 * 1024;
        }
        const std::string tag = small ? "small icache" : "full icache";
        bases.push_back(grid.column(tag + " baseline", base));
        grid.column(tag + " SI", si::withSi(base, si::bestSiConfigPoint()));
    }
    grid.run();

    si::TablePrinter t(
        "Section V-C-4: SI speedup vs instruction cache size "
        "(Both,N>=0.5, lat=600)");
    t.header({"trace", "L0I 16KB / L1I 64KB", "L0I 4KB / L1I 16KB"});
    const std::vector<double> means = grid.pctRows(
        t, {grid.speedups(bases[0], bases[0] + 1),
            grid.speedups(bases[1], bases[1] + 1)});
    t.print();

    if (means[0] > 0) {
        std::printf("\n4x-smaller instruction caches retain %.0f%% of "
                    "the full-size configuration's mean speedup\n",
                    100.0 * means[1] / means[0]);
    }

    bj.table(t);
    bj.metric("mean_speedup_pct/full_icache", means[0]);
    bj.metric("mean_speedup_pct/small_icache", means[1]);
    return bj.finish() ? 0 : 1;
}
