/**
 * @file
 * Table III: Subwarp Interleaving speedup on the Figure 11 CUDA
 * microbenchmark at L1 miss latency 600, sweeping SUBWARP_SIZE over
 * {16, 8, 4, 2, 1} (divergence factors 2..32).
 *
 * Paper shape: near-linear speedups up to 16-way divergence
 * (1.98x / 3.95x / 7.84x / 15.22x), tapering at 32-way (12.66x) as
 * instruction-fetch stalls from L0I thrashing take over.
 */

#include "bench_common.hh"

#include "rt/microbench.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("table3_microbenchmark", argc, argv);

    const std::vector<unsigned> sizes = {16u, 8u, 4u, 2u, 1u};
    si::bench::Grid grid(bj);
    for (unsigned size : sizes) {
        si::MicrobenchConfig mc;
        mc.subwarpSize = size;
        grid.row("SUBWARP_SIZE=" + std::to_string(size),
                 [mc] { return si::buildMicrobench(mc); });
    }
    const std::size_t base = grid.column("baseline", bj.baseline());
    // SOS is sufficient for the microbenchmark; use the least
    // aggressive trigger (N=1), as a single warp per PB is resident.
    const std::size_t si_col = grid.column(
        "SOS,N=1",
        si::withSi(bj.baseline(),
                   si::SiConfigPoint{"SOS,N=1", false,
                                     si::SelectTrigger::AllStalled}));
    grid.run();

    si::TablePrinter t(
        "Table III: microbenchmark speedup vs divergence (lat=600)");
    t.header({"SUBWARP_SIZE", "divergence factor", "speedup (x)",
              "fetch-stall cycles (SI)"});
    for (std::size_t r : grid.rows()) {
        si::MicrobenchConfig mc;
        mc.subwarpSize = sizes[r];
        const unsigned divergence = si::divergenceFactor(mc);
        const si::GpuResult &rs = grid.result(r, si_col);
        const double speedup =
            double(grid.result(r, base).cycles) / double(rs.cycles);
        t.row({std::to_string(sizes[r]), std::to_string(divergence),
               si::TablePrinter::num(speedup),
               std::to_string(rs.total.exposedFetchStallCycles)});
        bj.metric("speedup_x/divergence" + std::to_string(divergence),
                  speedup);
    }
    t.print();

    bj.table(t);
    return bj.finish() ? 0 : 1;
}
