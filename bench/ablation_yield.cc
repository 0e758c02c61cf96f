/**
 * @file
 * Ablation: the subwarp-yield hardware policy threshold (Section
 * III-B: "yield after issuing a configurable threshold of long-latency
 * operations"). Threshold 1 yields after every long-latency issue
 * (maximal eagerness, maximal switching); larger thresholds approach
 * plain switch-on-stall.
 *
 * Paper shape: eager yielding buys memory-level parallelism but pays
 * the 6-cycle switch and L0I refetches; "Both" is sometimes worse than
 * SOS — the sweet spot is workload dependent.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("ablation_yield", argc, argv);

    // One shared baseline, then SI (N>=0.5) at each yield threshold;
    // threshold 0 is switch-on-stall without yield.
    const int thresholds[] = {0, 1, 2, 4};
    si::bench::Grid grid(bj);
    grid.apps();
    const std::size_t base = grid.column("baseline", bj.baseline());
    for (int thr : thresholds) {
        si::GpuConfig cfg = bj.baseline();
        cfg.siEnabled = true;
        cfg.trigger = si::SelectTrigger::HalfStalled;
        cfg.yieldEnabled = thr > 0;
        if (thr > 0)
            cfg.yieldThreshold = unsigned(thr);
        grid.column("thr=" + std::to_string(thr), cfg);
    }
    grid.run();
    std::vector<std::vector<double>> cols;
    for (std::size_t i = 0; i < std::size(thresholds); ++i)
        cols.push_back(grid.speedups(base, base + 1 + i));

    si::TablePrinter t("Ablation: subwarp-yield threshold "
                       "(trigger N>=0.5, lat=600)");
    t.header({"trace", "SOS (no yield)", "thr=1", "thr=2", "thr=4"});
    const std::vector<double> means = grid.pctRows(t, cols);
    t.print();

    bj.table(t);
    const char *labels[] = {"sos", "thr1", "thr2", "thr4"};
    for (std::size_t i = 0; i < means.size(); ++i)
        bj.metric(std::string("mean_speedup_pct/") + labels[i], means[i]);
    return bj.finish() ? 0 : 1;
}
