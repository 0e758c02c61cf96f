/**
 * @file
 * Ablation beyond the paper: bounded memory-level parallelism. The
 * paper's fixed-latency stub grants unlimited outstanding misses; SI's
 * whole benefit is *more in-flight loads*, so a real memory system's
 * MSHR budget is a first-order headwind. This sweep bounds outstanding
 * L1D misses per SM and measures where SI's gain goes.
 *
 * Expected shape: with very few MSHRs the extra loads SI issues just
 * queue (benefit evaporates); the benefit saturates once the MSHR
 * budget covers the workload's natural MLP.
 */

#include "bench_common.hh"

#include "rt/microbench.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("ablation_mshr", argc, argv);

    const std::vector<unsigned> budgets = {4, 8, 16, 32, 0 /*unlimited*/};
    auto label = [](unsigned b) {
        return b == 0 ? std::string("unlimited") : std::to_string(b);
    };
    // Per MSHR budget, a bounded baseline and @p point on top of it.
    auto columns = [&](si::bench::Grid &grid, const si::SiConfigPoint &point) {
        std::vector<std::size_t> bases;
        for (unsigned b : budgets) {
            si::GpuConfig base = bj.baseline();
            base.maxOutstandingMisses = b;
            bases.push_back(grid.column("mshr=" + label(b), base));
            grid.column("mshr=" + label(b) + " SI", si::withSi(base, point));
        }
        return bases;
    };

    // ---- microbenchmark: SI's MLP demand is explicit ----
    si::bench::Grid micro(bj);
    micro.row("microbench (16-way)", [] {
        si::MicrobenchConfig mc;
        mc.subwarpSize = 2; // 16-way divergence
        return si::buildMicrobench(mc);
    });
    const std::vector<std::size_t> micro_bases = columns(
        micro,
        si::SiConfigPoint{"SOS,N=1", false, si::SelectTrigger::AllStalled});
    micro.run();

    si::TablePrinter t1("Ablation: microbench (16-way) SI speedup vs "
                        "MSHR budget (lat=600)");
    t1.header({"MSHRs", "baseline cycles", "SI cycles", "speedup (x)"});
    for (std::size_t r : micro.rows()) {
        for (std::size_t i = 0; i < budgets.size(); ++i) {
            const si::Cycle cb = micro.result(r, micro_bases[i]).cycles;
            const si::Cycle cs = micro.result(r, micro_bases[i] + 1).cycles;
            t1.row({label(budgets[i]), std::to_string(cb),
                    std::to_string(cs),
                    si::TablePrinter::num(double(cb) / double(cs))});
        }
    }
    t1.print();

    // ---- application suite means ----
    si::bench::Grid apps(bj);
    apps.apps();
    const std::vector<std::size_t> app_bases =
        columns(apps, si::bestSiConfigPoint());
    apps.run();

    si::TablePrinter t2("Ablation: mean app speedup vs MSHR budget "
                        "(Both,N>=0.5, lat=600)");
    t2.header({"MSHRs", "mean speedup"});
    for (std::size_t i = 0; i < budgets.size(); ++i) {
        const double m =
            si::mean(apps.speedups(app_bases[i], app_bases[i] + 1));
        t2.row({label(budgets[i]), si::TablePrinter::pct(m)});
        bj.metric("mean_speedup_pct/mshr_" + label(budgets[i]), m);
    }
    t2.print();

    bj.table(t1);
    bj.table(t2);
    return bj.finish() ? 0 : 1;
}
