/**
 * @file RT-core timing unit: latency model, pipe queueing, and the
 * per-thread trace memo behind RtCore::query.
 */

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>

#include "core/gpu.hh"
#include "harness/runner.hh"
#include "rt/apps.hh"
#include "rtcore/rtcore.hh"

using namespace si;

namespace {

Bvh &
testBvh()
{
    static Bvh bvh{{Triangle{{-5, -5, 10}, {5, -5, 10}, {0, 5, 10}, 1}}};
    return bvh;
}

std::array<Ray, warpSize>
forwardRays()
{
    std::array<Ray, warpSize> rays;
    for (auto &r : rays) {
        r.origin = {0, 0, 0};
        r.dir = {0, 0, 1};
    }
    return rays;
}

} // namespace

TEST(RtCore, FunctionalHitResults)
{
    RtCoreConfig cfg;
    RtCore rt(&testBvh(), cfg);
    const auto res = rt.query(0, ThreadMask::full(), forwardRays());
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        ASSERT_TRUE(res.hits[lane].valid);
        EXPECT_NEAR(res.hits[lane].t, 10.0f, 1e-4f);
        EXPECT_EQ(res.hits[lane].materialId, 1u);
    }
}

TEST(RtCore, OnlyMaskedLanesAreTraced)
{
    RtCoreConfig cfg;
    RtCore rt(&testBvh(), cfg);
    ThreadMask mask;
    mask.set(3);
    mask.set(17);
    rt.query(0, mask, forwardRays());
    EXPECT_EQ(rt.numRays(), 2u);
    EXPECT_EQ(rt.numQueries(), 1u);
}

TEST(RtCore, LatencyIncludesBaseAndPerNodeWork)
{
    RtCoreConfig cfg;
    cfg.baseLatency = 100;
    cfg.cyclesPerNode = 10.0f;
    RtCore rt(&testBvh(), cfg);
    const auto res = rt.query(0, ThreadMask::full(), forwardRays());
    EXPECT_GE(res.latency, 100u + 10u); // at least one node visited
    EXPECT_EQ(res.latency, 100u + 10u * res.maxNodesVisited);
}

TEST(RtCore, PipeQueueingSerializesBeyondConcurrency)
{
    RtCoreConfig cfg;
    cfg.baseLatency = 100;
    cfg.cyclesPerNode = 0.0f;
    cfg.numPipes = 2;
    RtCore rt(&testBvh(), cfg);
    const auto rays = forwardRays();

    // Two queries fill both pipes at the base latency...
    EXPECT_EQ(rt.query(0, ThreadMask::full(), rays).latency, 100u);
    EXPECT_EQ(rt.query(0, ThreadMask::full(), rays).latency, 100u);
    // ...the third queues behind the first.
    EXPECT_EQ(rt.query(0, ThreadMask::full(), rays).latency, 200u);
    // A later query grabs the earlier-free pipe (free at 100 < 150):
    // it starts immediately, so only the service time is charged.
    EXPECT_EQ(rt.query(150, ThreadMask::full(), rays).latency, 100u);
}

TEST(RtCore, ResetClearsPipesAndStats)
{
    RtCoreConfig cfg;
    cfg.numPipes = 1;
    RtCore rt(&testBvh(), cfg);
    const auto rays = forwardRays();
    rt.query(0, ThreadMask::full(), rays);
    rt.query(0, ThreadMask::full(), rays);
    rt.reset();
    EXPECT_EQ(rt.numQueries(), 0u);
    EXPECT_EQ(rt.numRays(), 0u);
    // Pipe occupancy is cleared: latency back to unqueued.
    const auto res = rt.query(0, ThreadMask::full(), rays);
    EXPECT_EQ(res.latency,
              cfg.baseLatency +
                  Cycle(cfg.cyclesPerNode * float(res.maxNodesVisited)));
}

TEST(RtCore, MissReturnsInvalidHit)
{
    RtCoreConfig cfg;
    RtCore rt(&testBvh(), cfg);
    auto rays = forwardRays();
    for (auto &r : rays)
        r.dir = {0, 0, -1}; // away from the triangle
    const auto res = rt.query(0, ThreadMask::full(), rays);
    EXPECT_FALSE(res.hits[0].valid);
}

TEST(RtCore, HasSceneReflectsAttachment)
{
    RtCoreConfig cfg;
    RtCore with(&testBvh(), cfg);
    RtCore without(nullptr, cfg);
    EXPECT_TRUE(with.hasScene());
    EXPECT_FALSE(without.hasScene());
}

// ---- The trace memo ----

namespace {

/** One triangle facing the origin at depth @p z. */
Bvh
wallAt(float z, std::uint32_t material = 1)
{
    return Bvh{{Triangle{{-5, -5, z}, {5, -5, z}, {0, 5, z}, material}}};
}

/** RtCore::query of the forward rays on every lane. */
WarpQueryResult
queryForward(const Bvh &bvh)
{
    RtCore rt(&bvh, RtCoreConfig{});
    return rt.query(0, ThreadMask::full(), forwardRays());
}

/** Points this thread's memo at a scene no test below uses. */
void
forgetScenes()
{
    static const Bvh elsewhere = wallAt(50);
    queryForward(elsewhere);
}

/** One column's result plus every SM's RT-core counters. */
struct ColumnRun
{
    GpuResult result;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> raysAndNodes;
};

ColumnRun
runColumn(const Workload &wl, GpuConfig config)
{
    config.rtc = wl.rtc;
    Memory mem = *wl.memory;
    Gpu gpu(config, mem, wl.bvh());
    ColumnRun run{gpu.runMulti({{&wl.program, wl.launch}}), {}};
    for (unsigned i = 0; i < gpu.numSms(); ++i) {
        const RtCore &rt = gpu.sm(i).rtCore();
        run.raysAndNodes.emplace_back(rt.numRays(), rt.totalNodesVisited());
    }
    return run;
}

void
expectSameRun(const ColumnRun &a, const ColumnRun &b)
{
    ASSERT_TRUE(a.result.ok()) << a.result.status.message;
    ASSERT_TRUE(b.result.ok()) << b.result.status.message;
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_TRUE(a.result.total == b.result.total);
    EXPECT_TRUE(a.result.perSm == b.result.perSm);
    EXPECT_TRUE(a.result.stallsByPc == b.result.stallsByPc);
    EXPECT_EQ(a.raysAndNodes, b.raysAndNodes);
}

} // namespace

TEST(TraceMemo, ColdWarmAndFreshThreadRunsAgreeForEveryApp)
{
    const GpuConfig config =
        withSi(baselineConfig(600), bestSiConfigPoint());
    for (AppId id : allApps()) {
        SCOPED_TRACE(appName(id));
        const Workload wl = buildApp(id);
        forgetScenes();
        const ColumnRun cold = runColumn(wl, config);
        const std::size_t memoized = RtCore::memoizedRays();
        ASSERT_GT(memoized, 0u);

        // A fresh thread starts cold while this one runs warm on the
        // same scene.
        ColumnRun fresh;
        std::thread other([&] { fresh = runColumn(wl, config); });
        const ColumnRun warm = runColumn(wl, config);
        other.join();

        // Every warm ray was already there: the memo answered them all.
        EXPECT_EQ(RtCore::memoizedRays(), memoized);
        expectSameRun(cold, warm);
        expectSameRun(cold, fresh);
    }
}

TEST(TraceMemo, NewSceneAtAFreedScenesAddressGetsItsOwnAnswers)
{
    std::optional<Bvh> scene;
    scene.emplace(wallAt(10, 1));
    const Bvh *first = &*scene;
    EXPECT_EQ(queryForward(*scene).hits[0].materialId, 1u);
    scene.reset();
    scene.emplace(wallAt(20, 2));
    ASSERT_EQ(&*scene, first);

    const auto res = queryForward(*scene);
    TraversalStats ts;
    const Hit traced = scene->trace(forwardRays()[0], &ts);
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        ASSERT_TRUE(res.hits[lane].valid);
        EXPECT_EQ(res.hits[lane].t, traced.t);
        EXPECT_EQ(res.hits[lane].materialId, 2u);
    }
    EXPECT_EQ(res.maxNodesVisited, ts.nodesVisited);
}

TEST(TraceMemo, MovedFromBvhIsNotAnsweredFromTheMemo)
{
    Bvh source = wallAt(10);
    const std::uint64_t serial = source.serial();
    ASSERT_TRUE(queryForward(source).hits[0].valid);

    const Bvh target = std::move(source);
    EXPECT_EQ(target.serial(), serial);
    EXPECT_NE(source.serial(), serial);
    // The moved-from tree is traced, not looked up under its old serial.
    const auto res = queryForward(source);
    EXPECT_EQ(res.hits[0].valid, source.trace(forwardRays()[0]).valid);
    EXPECT_EQ(res.maxNodesVisited, 0u);
    EXPECT_TRUE(queryForward(target).hits[0].valid);
}

TEST(TraceMemo, CopiedBvhSharesAnswers)
{
    const Bvh original = wallAt(10);
    const Bvh copy = original;
    EXPECT_EQ(copy.serial(), original.serial());

    const auto first = queryForward(original);
    const std::size_t memoized = RtCore::memoizedRays();
    EXPECT_EQ(memoized, 1u); // 32 lanes, one distinct ray
    const auto again = queryForward(copy);
    EXPECT_EQ(RtCore::memoizedRays(), memoized); // not emptied, not grown
    EXPECT_EQ(again.maxNodesVisited, first.maxNodesVisited);
    EXPECT_EQ(again.hits[0].t, first.hits[0].t);

    // A rebuild from the same triangles is a different scene.
    const Bvh rebuilt = wallAt(10);
    EXPECT_NE(rebuilt.serial(), original.serial());
}
