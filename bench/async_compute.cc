/**
 * @file
 * Async-compute co-scheduling study (paper Sections II-B, V-C-2,
 * VII-B): modern frames overlap raytracing with compute queues, so
 * warp slots are contended. This bench co-schedules a raytracing
 * megakernel with a streaming compute kernel and asks:
 *
 *   1. does SI keep its benefit when the RT kernel shares the machine
 *      with an async compute queue? (the paper argues yes — SI needs
 *      no free warp slots);
 *   2. does the DWS comparator lose it? (the paper argues yes — DWS
 *      needs free slots, and co-scheduling consumes them).
 */

#include "bench_common.hh"

#include "rt/compute.hh"

namespace {

/** Co-schedule @p rt with @p compute under @p cfg. */
si::GpuResult
runCosched(const si::Workload &rt, const si::Workload &compute,
           si::GpuConfig cfg)
{
    cfg.rtc = rt.rtc;
    // Merge the two memory images (disjoint segments by construction,
    // except the shared out buffer, which is indexed by global warp id
    // and therefore disjoint per warp).
    si::Memory mem = *rt.memory;
    si::Memory other = *compute.memory;
    // Compute kernels only add the data/out segments; copy data words.
    for (unsigned i = 0; i < compute.launch.numWarps * 32; ++i) {
        const si::Addr a = si::layout::dataBufBase + si::Addr(i) * 4;
        mem.write(a, other.read(a));
    }
    mem.writeConst(std::uint32_t(si::layout::cDataBuf),
                   std::uint32_t(si::layout::dataBufBase));

    si::Gpu gpu(cfg, mem, rt.bvh());
    return gpu.runMulti(
        {{&rt.program, rt.launch}, {&compute.program, compute.launch}});
}

} // namespace

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("async_compute", argc, argv);

    // A long-running compute companion: the async queue.
    const si::Workload compute =
        si::buildComputeKernel(si::ComputeKernel::MatMulTile, 96);

    si::bench::Grid grid(bj);
    for (si::AppId id : {si::AppId::BFV1, si::AppId::BFV2, si::AppId::MW,
                         si::AppId::AV1, si::AppId::MC})
        grid.row(si::appName(id), [id] { return si::buildApp(id); });
    grid.column("cosched baseline", bj.baseline());
    grid.column("cosched +SI",
                si::withSi(bj.baseline(), si::bestSiConfigPoint()));
    grid.column("cosched +DWS", si::withDws(bj.baseline()));
    grid.simulateWith(
        [&compute](const si::Workload &rt, const si::GpuConfig &cfg) {
            return runCosched(rt, compute, cfg);
        });
    grid.run();

    si::TablePrinter t("Async compute: RT kernel co-scheduled with a "
                       "compute queue (lat=600)");
    t.header({"trace", "cosched baseline", "cosched +SI", "SI gain",
              "cosched +DWS", "DWS gain"});
    auto cycles = [&](std::size_t r, std::size_t c) {
        return std::to_string(grid.result(r, c).cycles);
    };
    for (std::size_t r : grid.rows()) {
        t.row({grid.name(r), cycles(r, 0), cycles(r, 1),
               si::TablePrinter::pct(grid.speedup(r, 0, 1)), cycles(r, 2),
               si::TablePrinter::pct(grid.speedup(r, 0, 2))});
    }
    const double si_gain = si::mean(grid.speedups(0, 1));
    const double dws_gain = si::mean(grid.speedups(0, 2));
    t.row({"mean", "-", "-", si::TablePrinter::pct(si_gain), "-",
           si::TablePrinter::pct(dws_gain)});
    t.print();

    bj.table(t);
    bj.metric("mean_gain_pct/si", si_gain);
    bj.metric("mean_gain_pct/dws", dws_gain);
    return bj.finish() ? 0 : 1;
}
