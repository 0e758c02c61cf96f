/**
 * @file
 * Quickstart: build a raytracing workload, run it on the baseline
 * Turing-like GPU and with Subwarp Interleaving, and compare.
 *
 * This is the 30-second tour of the public API:
 *   1. buildApp() / buildMegakernel() / buildMicrobench() make Workloads
 *   2. baselineConfig() + withSi() make GpuConfigs
 *   3. runWorkload() simulates and returns a GpuResult
 */

#include <cstdio>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "rt/apps.hh"

int
main()
{
    // 1. Build one of the paper's application traces (Battlefield V).
    si::Workload workload = si::buildApp(si::AppId::BFV1);
    std::printf("workload: %s (%u warps, %zu-instruction kernel, "
                "%zu-triangle scene)\n",
                workload.name.c_str(), workload.launch.numWarps,
                std::size_t(workload.program.size()),
                workload.scene->triangles.size());

    // 2. Simulate on the baseline SIMT architecture.
    si::GpuConfig base = si::baselineConfig();
    si::GpuResult base_result = si::runWorkload(workload, base);

    // 3. Simulate with Subwarp Interleaving (best setting: Both,N>=0.5).
    si::GpuConfig si_cfg = si::withSi(base, si::bestSiConfigPoint());
    si::GpuResult si_result = si::runWorkload(workload, si_cfg);

    // 4. Compare.
    si::TablePrinter t("quickstart: baseline vs Subwarp Interleaving");
    t.header({"metric", "baseline", "subwarp interleaving"});
    t.row({"cycles", std::to_string(base_result.cycles),
           std::to_string(si_result.cycles)});
    t.row({"instructions", std::to_string(base_result.total.instrsIssued),
           std::to_string(si_result.total.instrsIssued)});
    t.row({"exposed load-to-use stall cycles",
           std::to_string(base_result.total.exposedLoadStallCycles),
           std::to_string(si_result.total.exposedLoadStallCycles)});
    t.row({"...of which divergent",
           std::to_string(base_result.total.exposedLoadStallCyclesDivergent),
           std::to_string(si_result.total.exposedLoadStallCyclesDivergent)});
    t.row({"subwarp stalls/wakeups", "-",
           std::to_string(si_result.total.subwarpStalls) + "/" +
               std::to_string(si_result.total.subwarpWakeups)});
    t.row({"speedup", "-",
           si::TablePrinter::pct(si::speedupPct(base_result, si_result))});
    t.print();
    return 0;
}
