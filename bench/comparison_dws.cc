/**
 * @file
 * Related Work (Section VII-B) comparison: Subwarp Interleaving vs a
 * Dynamic Warp Subdivision comparator, across warp-slot pressure.
 *
 * The paper's claim: "We believe that our approach will perform better
 * than DWS, especially when there are few unused warp slots as is
 * likely to be the case with effective asynchronous compute use."
 * DWS forks divergent subwarps into *free warp slots*; when occupancy
 * already fills the slots, it has nowhere to fork. SI's thread status
 * table needs no extra slots.
 *
 * Two residency regimes per slot configuration:
 *  - "occupied": the kernels' register demand fills all warp slots
 *    (async-compute-like pressure) -> DWS starved;
 *  - "spare": launch throttled to half the slots -> DWS has room.
 */

#include "bench_common.hh"

#include <map>

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("comparison_dws", argc, argv);
    const si::GpuConfig seed = bj.baseline();

    struct Regime
    {
        unsigned slotsPerPb;
        bool spare;
        si::bench::Grid *grid = nullptr;
        std::size_t base = 0; ///< then SI, then DWS
    };
    std::vector<Regime> regimes;
    for (unsigned slots_per_pb : {4u, 8u})
        for (bool spare : {false, true})
            regimes.push_back({slots_per_pb, spare});

    // One grid per launch size. "occupied": enough warps queued that
    // every free slot is refilled; "spare": throttle the launch so half
    // the slots stay empty for DWS to fork into.
    std::map<unsigned, si::bench::Grid> grids;
    for (Regime &rg : regimes) {
        const unsigned warps =
            rg.spare ? seed.numSms * seed.pbsPerSm * (rg.slotsPerPb / 2)
                     : 64;
        auto [it, fresh] = grids.try_emplace(warps, bj);
        rg.grid = &it->second;
        if (fresh)
            rg.grid->apps(warps);
        si::GpuConfig base = seed;
        base.warpSlotsPerPb = rg.slotsPerPb;
        const std::string tag = "slots=" + std::to_string(rg.slotsPerPb);
        rg.base = rg.grid->column(tag + " baseline", base);
        rg.grid->column(tag + " SI",
                        si::withSi(base, si::bestSiConfigPoint()));
        rg.grid->column(tag + " DWS", si::withDws(base));
    }
    for (auto &[warps, grid] : grids)
        grid.run();

    si::TablePrinter t("SI vs Dynamic Warp Subdivision "
                       "(mean app speedup, lat=600)");
    t.header({"warp slots/SM", "residency", "SI (Both,N>=0.5)",
              "DWS comparator"});
    for (const Regime &rg : regimes) {
        t.row({std::to_string(rg.slotsPerPb * 4),
               rg.spare ? "half-empty slots" : "slots saturated",
               si::TablePrinter::pct(
                   si::mean(rg.grid->speedups(rg.base, rg.base + 1))),
               si::TablePrinter::pct(
                   si::mean(rg.grid->speedups(rg.base, rg.base + 2)))});
    }
    t.print();

    bj.table(t);
    return bj.finish() ? 0 : 1;
}
