/**
 * @file
 * google-benchmark per-layer probes of the simulator itself: BVH build
 * and trace rates, scoreboard readiness, LDG line coalescing, cache
 * accesses, assembler throughput, and the parallel execution engine's
 * serial vs all-cores sweep. Whole-run throughput is measured
 * by perfbench (perfbench/run.py), compared same-host with
 * tools/perf_ab.sh.
 */

#include <benchmark/benchmark.h>

#include <array>

#include "common/log.hh"
#include "core/gpu.hh"
#include "core/scoreboard.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "mem/cache.hh"
#include "mem/coalesce.hh"
#include "parallel/executor.hh"
#include "rt/apps.hh"
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

/**
 * The ten app scenes' BVH builds over pre-generated triangles: the
 * tree work that perfbench rt-sweep's setup_s pays for.
 */
void
BM_BvhBuildApps(benchmark::State &state)
{
    si::verboseLogging = false;
    std::vector<std::vector<si::Triangle>> scenes;
    std::size_t tris = 0;
    for (si::AppId id : si::allApps()) {
        scenes.push_back(si::makeScene(si::appBuildConfig(id).scene)
                             ->triangles);
        tris += scenes.back().size();
    }
    for (auto _ : state) {
        for (const auto &t : scenes) {
            const si::Bvh bvh(t);
            benchmark::DoNotOptimize(bvh.numNodes());
        }
    }
    state.counters["tris/s"] = benchmark::Counter(
        double(tris) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BvhBuildApps)->Unit(benchmark::kMillisecond);

/** One primary ray per iteration, traced with stats as RtCore::query does. */
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
        si::TraversalStats ts;
        const si::Hit h = scene->bvh.trace(scene->primaryRay(sx, sy), &ts);
        benchmark::DoNotOptimize(h.t);
        benchmark::DoNotOptimize(ts.nodesVisited);
        ++i;
    }
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BvhTrace);

/**
 * ScoreboardFile::ready over a full warp with Arg(0) required
 * scoreboards, all clear (the answer every issuable warp's evaluation
 * pays for); an unrequired scoreboard is busy on half the lanes.
 */
void
BM_ScoreboardReady(benchmark::State &state)
{
    si::ScoreboardFile sb;
    sb.incr(si::ThreadMask::firstN(16), si::SbIndex(7));
    const auto req = std::uint8_t((1u << state.range(0)) - 1);
    si::ThreadMask mask = si::ThreadMask::full();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mask);
        benchmark::DoNotOptimize(sb.ready(mask, req));
    }
}
BENCHMARK(BM_ScoreboardReady)->Arg(1)->Arg(2);

/**
 * coalesceLines over a full warp touching Arg(0) distinct lines, lane i
 * on line i mod Arg(0) (so repeats are not adjacent): the per-LDG line
 * deduplication of Sm::issue.
 */
void
BM_LdgCoalesce(benchmark::State &state)
{
    const unsigned distinct = unsigned(state.range(0));
    std::array<si::Addr, si::warpSize> addrs{};
    for (unsigned lane = 0; lane < si::warpSize; ++lane)
        addrs[lane] = 0x20000000 + si::Addr(lane % distinct) * 4096 + lane;
    std::array<si::Addr, si::warpSize> lines{};
    benchmark::DoNotOptimize(lines.data());
    for (auto _ : state) {
        benchmark::DoNotOptimize(addrs);
        benchmark::DoNotOptimize(si::coalesceLines(
            addrs, si::ThreadMask::full(), 128, lines));
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_LdgCoalesce)->Arg(1)->Arg(4)->Arg(32);

/**
 * Cache::accessEx under the default geometries: Arg(0) = 0 is an
 * all-hit L0I stream (64 lines cycling in a 16 KiB cache), 1 an
 * all-miss L1D stream (every access a new line, so every fill evicts
 * once the cache is warm).
 */
void
BM_CacheAccess(benchmark::State &state)
{
    const bool l1d_miss = state.range(0) != 0;
    const si::GpuConfig cfg;
    si::Cache cache(l1d_miss ? cfg.l1d : cfg.l0i);
    const si::Addr line = cache.lineBytes();
    si::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.accessEx(addr));
        addr = l1d_miss ? addr + line : (addr + line) % (64 * line);
    }
    state.counters["hit_ratio"] =
        double(cache.hits()) / double(cache.hits() + cache.misses());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

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
