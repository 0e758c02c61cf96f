/**
 * @file
 * Section VI, fourth limiter: SI's narrow applicability beyond
 * raytracing, plus frame-level dilution.
 *
 * Part 1 — the paper profiled 400+ compute kernels and found almost
 * none with long stalls in divergent code; none benefited from SI.
 * Reproduced over six compute-kernel archetypes at lat 600.
 *
 * Part 2 — "current RT game titles are not fully raytraced ... which
 * dilute SI's gains at the frame level": a synthetic frame mixing one
 * raytracing kernel with rasterization-era compute passes, showing
 * the kernel-level gain shrinking at frame scope.
 */

#include "bench_common.hh"

#include "rt/compute.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("sec6_compute_kernels", argc, argv);
    const si::GpuConfig si_cfg =
        si::withSi(bj.baseline(), si::bestSiConfigPoint());

    // ---- part 1: the compute-kernel suite ----
    si::bench::Grid kernels(bj);
    for (si::ComputeKernel k : si::allComputeKernels()) {
        kernels.row(si::computeKernelName(k),
                    [k] { return si::buildComputeKernel(k); });
    }
    const std::size_t base = kernels.column("baseline", bj.baseline());
    const std::size_t si_col = kernels.column("SI", si_cfg);
    kernels.run();

    si::TablePrinter t1(
        "Section VI: SI on non-raytracing compute kernels (lat=600)");
    t1.header({"kernel", "baseline cycles", "SI cycles", "speedup",
               "divergent branches", "subwarp stalls"});
    // Runs are deterministic, so part 1's results also stand in for
    // the frame's compute passes.
    si::Cycle comp_b = 0, comp_s = 0;
    for (std::size_t r : kernels.rows()) {
        const si::GpuResult &rb = kernels.result(r, base);
        const si::GpuResult &rs = kernels.result(r, si_col);
        t1.row({kernels.name(r), std::to_string(rb.cycles),
                std::to_string(rs.cycles),
                si::TablePrinter::pct(si::speedupPct(rb, rs)),
                std::to_string(rb.total.divergentBranches),
                std::to_string(rs.total.subwarpStalls)});
        comp_b += rb.cycles;
        comp_s += rs.cycles;
    }
    t1.print();

    // ---- part 2: frame-level dilution ----
    si::bench::Grid frame(bj);
    frame.row("BFV1", [] { return si::buildApp(si::AppId::BFV1); });
    const std::size_t rt_base = frame.column("baseline", bj.baseline());
    const std::size_t rt_si = frame.column("SI", si_cfg);
    frame.run();

    si::TablePrinter t2("Section VI: frame-level dilution "
                        "(BFV1 RT pass + compute passes)");
    t2.header({"frame mix", "baseline cycles", "SI cycles",
               "frame speedup"});
    for (std::size_t r : frame.rows()) {
        auto frame_row = [&](const char *label, unsigned compute_repeats) {
            const si::Cycle fb =
                frame.result(r, rt_base).cycles + compute_repeats * comp_b;
            const si::Cycle fs =
                frame.result(r, rt_si).cycles + compute_repeats * comp_s;
            t2.row({label, std::to_string(fb), std::to_string(fs),
                    si::TablePrinter::pct(
                        (double(fb) / double(fs) - 1.0) * 100.0)});
        };
        frame_row("RT kernel only", 0);
        frame_row("RT + 1x compute passes", 1);
        frame_row("RT + 4x compute passes", 4);
    }
    t2.print();

    bj.table(t1);
    bj.table(t2);
    return bj.finish() ? 0 : 1;
}
