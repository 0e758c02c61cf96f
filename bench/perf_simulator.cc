/**
 * @file
 * google-benchmark per-layer probes of the simulator itself: BVH build
 * and trace rates, assembler throughput, and the parallel execution
 * engine's serial vs all-cores sweep. Whole-run throughput is measured
 * by perfbench (perfbench/run.py), compared same-host with
 * tools/perf_ab.sh.
 */

#include <benchmark/benchmark.h>

#include "common/log.hh"
#include "core/gpu.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "parallel/executor.hh"
#include "rt/microbench.hh"
#include "rt/scene.hh"

namespace {

/**
 * Throughput of a baseline + six-SI-point sweep through the parallel
 * execution engine. Arg(0) is the worker count passed to mapIndexed:
 * 1 = the inline serial path, 0 = all cores. The serial/parallel pair
 * shows the executor's overhead and scaling. Timed on the wall clock:
 * the workers, not the main thread, burn the CPU, so a CPU-time rate
 * would be meaningless.
 */
void
BM_ParallelSweep(benchmark::State &state)
{
    si::verboseLogging = false;
    si::MicrobenchConfig mc;
    mc.subwarpSize = 4;
    const si::Workload wl = si::buildMicrobench(mc);
    std::vector<si::GpuConfig> cfgs;
    cfgs.push_back(si::baselineConfig());
    for (const auto &pt : si::siConfigPoints())
        cfgs.push_back(si::withSi(si::baselineConfig(), pt));
    const unsigned jobs =
        si::parallel::resolveJobs(unsigned(state.range(0)));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto results =
            si::parallel::mapIndexed<si::GpuResult>(
                jobs, cfgs.size(), [&](std::size_t i) {
                    return si::runWorkload(wl, cfgs[i]);
                });
        for (const auto &r : results)
            cycles += r.cycles;
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_BvhBuild(benchmark::State &state)
{
    si::verboseLogging = false;
    si::SceneConfig sc;
    sc.targetTriangles = unsigned(state.range(0));
    sc.layout = si::SceneLayout::City;
    for (auto _ : state) {
        auto scene = si::makeScene(sc);
        benchmark::DoNotOptimize(scene->bvh.numNodes());
    }
    state.counters["tris/s"] = benchmark::Counter(
        double(state.range(0)) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BvhBuild)->Arg(4000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void
BM_BvhTrace(benchmark::State &state)
{
    si::verboseLogging = false;
    si::SceneConfig sc;
    sc.targetTriangles = 16000;
    sc.layout = si::SceneLayout::Terrain;
    auto scene = si::makeScene(sc);
    unsigned i = 0;
    for (auto _ : state) {
        const float sx = float(i % 101) / 101.0f;
        const float sy = float(i % 53) / 53.0f;
        const si::Hit h = scene->bvh.trace(scene->primaryRay(sx, sy));
        benchmark::DoNotOptimize(h.t);
        ++i;
    }
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BvhTrace);

void
BM_Assemble(benchmark::State &state)
{
    const std::string source = R"(
.kernel bench
.regs 32
top:
    S2R R0, TID
    IADD R1, R0, 42
    LDG R2, [R1+0] &wr=sb0
    FADD R3, R3, R2 &req=sb0
    ISETP.LT P0, R1, 100
    @P0 BRA top
    EXIT
)";
    for (auto _ : state) {
        si::AsmResult r = si::assemble(source);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_Assemble);

} // namespace

BENCHMARK_MAIN();
