/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: cycle
 * throughput on a full raytracing kernel, BVH build and trace rates,
 * and assembler throughput. These guard the simulator's own
 * performance, which bounds how large an experiment the harness can
 * sweep.
 */

#include <benchmark/benchmark.h>

#include "common/log.hh"
#include "core/gpu.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "parallel/executor.hh"
#include "rt/apps.hh"
#include "rt/microbench.hh"

namespace {

void
BM_SimulateApp(benchmark::State &state)
{
    si::verboseLogging = false;
    const si::Workload wl = si::buildApp(si::AppId::AV1);
    const si::GpuConfig cfg = si::baselineConfig();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const si::GpuResult r = si::runWorkload(wl, cfg);
        cycles += r.cycles;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateApp)->Unit(benchmark::kMillisecond);

void
BM_SimulateMicrobench(benchmark::State &state)
{
    si::verboseLogging = false;
    si::MicrobenchConfig mc;
    mc.subwarpSize = unsigned(state.range(0));
    const si::Workload wl = si::buildMicrobench(mc);
    const si::GpuConfig cfg =
        si::withSi(si::baselineConfig(), si::bestSiConfigPoint());
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const si::GpuResult r = si::runWorkload(wl, cfg);
        cycles += r.cycles;
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateMicrobench)->Arg(16)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Throughput of a baseline + six-SI-point sweep through the parallel
 * execution engine. Arg(0) is the worker count passed to mapIndexed:
 * 1 = the inline serial path, 0 = all cores. The serial/parallel pair
 * is the perf-regression gate's probe for both raw simulation speed
 * and executor overhead. Timed on the wall clock: the workers, not the
 * main thread, burn the CPU, so a CPU-time rate would be meaningless.
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

/**
 * Fast-forward engine throughput on a memory-latency-dominated load
 * chain (the inline source mirrors kernels/memlat.sasm) at a 2000-cycle
 * miss latency. Arg(0) selects the mode: 1 = event-driven fast-forward
 * (the default execution core), 0 = faithful per-cycle execution. The
 * pair is the perf gate's probe that cycle leaping keeps paying for
 * itself; the simulated results are bit-identical between the two.
 */
void
BM_FastForwardSweep(benchmark::State &state)
{
    si::verboseLogging = false;
    const std::string source = R"(
.kernel memlat
.regs 16
    S2R R0, TID
    SHL R1, R0, 12
    MOV R2, 0x20000000
    IADD R1, R1, R2
    MOV R10, 0.0
    MOV R3, 16
loop:
    LDG R4, [R1+0] &wr=sb0
    FADD R10, R10, R4 &req=sb0
    IADD R1, R1, 512
    IADD R3, R3, -1
    ISETP.GT P0, R3, 0
    @P0 BRA loop
    EXIT
)";
    si::AsmResult assembled = si::assemble(source);
    si::GpuConfig cfg = si::baselineConfig(2000);
    cfg.fastForward = state.range(0) != 0;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        si::Memory mem;
        const si::GpuResult r =
            si::simulate(cfg, mem, assembled.program, {8, 4});
        cycles += r.cycles;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FastForwardSweep)->Arg(1)->Arg(0)
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

/**
 * Custom main: stamp the context with the build type of the simulator
 * code under test. The stock "library_build_type" field only reports
 * how the google-benchmark *library* was compiled (Debian ships a
 * non-NDEBUG build, so it reads "debug" regardless of our flags);
 * tools/check_perf_regression.py gates on this field instead, refusing
 * to record or compare numbers from an unoptimized simulator.
 */
int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("simulator_build_type", "release");
#else
    benchmark::AddCustomContext("simulator_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
