/** @file Procedural scene generation invariants. */

#include <gtest/gtest.h>

#include <bit>

#include "rt/apps.hh"
#include "rt/scene.hh"
#include "snapshot/snapshot.hh"

using namespace si;

namespace {

/** Each app's scene and a MedianSplit tree over its triangles. */
struct AppScene
{
    std::shared_ptr<Scene> scene;
    Bvh median;
};

const std::vector<AppScene> &
appScenes()
{
    static const std::vector<AppScene> scenes = [] {
        std::vector<AppScene> v;
        for (AppId id : allApps()) {
            auto scene = makeScene(appBuildConfig(id).scene);
            Bvh median(scene->triangles, BvhBuilder::MedianSplit);
            v.push_back({std::move(scene), std::move(median)});
        }
        return v;
    }();
    return scenes;
}

/**
 * FNV-1a over every Hit field and both TraversalStats counts of @p
 * bvh's answers to a fixed ray set: @p scene's 64x64 primary grid,
 * then axis rays whose other two direction components are +0 or -0,
 * with a finite tMax, from the eye and from the scene's centre.
 */
std::uint64_t
rayDigest(const Scene &scene, const Bvh &bvh)
{
    Fnv1a h;
    auto put = [&](float f) { h.update(std::bit_cast<std::uint32_t>(f)); };
    auto trace = [&](const Ray &r) {
        TraversalStats ts;
        const Hit hit = bvh.trace(r, &ts);
        h.update(std::uint64_t(hit.valid));
        put(hit.t);
        put(hit.u);
        put(hit.v);
        h.update(std::uint64_t(hit.primId));
        h.update(std::uint64_t(hit.materialId));
        h.update(std::uint64_t(ts.nodesVisited));
        h.update(std::uint64_t(ts.trianglesTested));
    };
    constexpr unsigned n = 64;
    for (unsigned y = 0; y < n; ++y) {
        for (unsigned x = 0; x < n; ++x) {
            trace(scene.primaryRay((float(x) + 0.5f) / float(n),
                                   (float(y) + 0.5f) / float(n)));
        }
    }
    for (const Vec3 &origin : {scene.eye, bvh.bounds().centroid()}) {
        for (int axis = 0; axis < 3; ++axis) {
            for (float sign : {1.0f, -1.0f}) {
                for (int zeros = 0; zeros < 4; ++zeros) {
                    float d[3];
                    d[axis] = sign;
                    d[(axis + 1) % 3] = (zeros & 1) ? -0.0f : 0.0f;
                    d[(axis + 2) % 3] = (zeros & 2) ? -0.0f : 0.0f;
                    Ray r;
                    r.origin = origin;
                    r.dir = {d[0], d[1], d[2]};
                    r.tMax = 0.5f * scene.config.extent;
                    trace(r);
                }
            }
        }
    }
    return h.digest();
}

} // namespace

class SceneLayoutTest : public ::testing::TestWithParam<SceneLayout>
{
};

TEST_P(SceneLayoutTest, RespectsTriangleBudgetAndMaterials)
{
    SceneConfig cfg;
    cfg.layout = GetParam();
    cfg.targetTriangles = 5000;
    cfg.numMaterials = 6;
    cfg.seed = 33;
    auto scene = makeScene(cfg);

    EXPECT_GT(scene->triangles.size(), 100u);
    EXPECT_LE(scene->triangles.size(), cfg.targetTriangles + 2);
    for (const auto &t : scene->triangles)
        EXPECT_LT(t.materialId, cfg.numMaterials);
    EXPECT_EQ(scene->bvh.numTriangles(), scene->triangles.size());
}

TEST_P(SceneLayoutTest, CameraSeesTheScene)
{
    SceneConfig cfg;
    cfg.layout = GetParam();
    cfg.targetTriangles = 4000;
    cfg.seed = 7;
    auto scene = makeScene(cfg);

    unsigned hits = 0;
    const unsigned n = 16;
    for (unsigned y = 0; y < n; ++y) {
        for (unsigned x = 0; x < n; ++x) {
            const Ray r = scene->primaryRay((float(x) + 0.5f) / float(n),
                                            (float(y) + 0.5f) / float(n));
            if (scene->bvh.trace(r).valid)
                ++hits;
        }
    }
    // A usable camera: at least a quarter of primary rays hit geometry.
    EXPECT_GT(hits, n * n / 4);
}

TEST_P(SceneLayoutTest, DeterministicInSeed)
{
    SceneConfig cfg;
    cfg.layout = GetParam();
    cfg.targetTriangles = 2000;
    cfg.seed = 5;
    auto a = makeScene(cfg);
    auto b = makeScene(cfg);
    ASSERT_EQ(a->triangles.size(), b->triangles.size());
    for (std::size_t i = 0; i < a->triangles.size(); ++i) {
        EXPECT_EQ(a->triangles[i].v0.x, b->triangles[i].v0.x);
        EXPECT_EQ(a->triangles[i].materialId, b->triangles[i].materialId);
    }

    cfg.seed = 6;
    auto c = makeScene(cfg);
    bool different = a->triangles.size() != c->triangles.size();
    for (std::size_t i = 0;
         !different && i < std::min(a->triangles.size(),
                                    c->triangles.size());
         ++i) {
        different = a->triangles[i].v0.x != c->triangles[i].v0.x;
    }
    EXPECT_TRUE(different);
}

TEST_P(SceneLayoutTest, MultipleMaterialsActuallyAppear)
{
    SceneConfig cfg;
    cfg.layout = GetParam();
    cfg.targetTriangles = 4000;
    cfg.numMaterials = 8;
    cfg.seed = 11;
    auto scene = makeScene(cfg);
    std::set<std::uint32_t> mats;
    for (const auto &t : scene->triangles)
        mats.insert(t.materialId);
    EXPECT_GE(mats.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SceneLayoutTest,
                         ::testing::Values(SceneLayout::Interior,
                                           SceneLayout::Terrain,
                                           SceneLayout::City,
                                           SceneLayout::Scatter));

/** Every app scene's BinnedSah and MedianSplit trees, bit for bit. */
TEST(Scene, AppBvhTreesPinned)
{
    const std::uint64_t sah[] = {
        0xf4b5810582ad58d9ull, 0x47b0b892934390b4ull,
        0x835ff43e454c4ff4ull, 0x441a0cd15b9679d3ull,
        0x5fe79e4800b1f902ull, 0xc00ff3a39b5cf30aull,
        0xcd185d7863b386d7ull, 0x136fd05d20199793ull,
        0xf3265e2fb062e3dcull, 0x467891545c03726bull,
    };
    const std::uint64_t median[] = {
        0x5f7f809546ed4c90ull, 0x7c89e8ceea25b993ull,
        0xbf2559a2d387b6e9ull, 0x9fe73e1a3224348aull,
        0xfb64453ef31085a7ull, 0x4e481b78466ebe7full,
        0x51ce7bf525f16240ull, 0xc68f77295e3620caull,
        0xca29ba96c379cbc9ull, 0xd196b6f51f8eca3full,
    };
    const auto &apps = appScenes();
    ASSERT_EQ(apps.size(), std::size(sah));
    for (std::size_t i = 0; i < apps.size(); ++i) {
        EXPECT_EQ(apps[i].scene->bvh.digest(), sah[i])
            << appName(allApps()[i]);
        EXPECT_EQ(apps[i].median.digest(), median[i])
            << appName(allApps()[i]);
    }
}

/**
 * Every app scene's ray answers through both trees: hit bits, nodes
 * visited (the RT-core latency) and triangles tested.
 */
TEST(Scene, AppBvhRaysPinned)
{
    const std::uint64_t sah[] = {
        0x6479b9605a801633ull, 0x52fc120ee51c7f50ull,
        0x2bc63927e5a9a492ull, 0x6ede12225ba2cfe5ull,
        0xe54a18ac1db6f34full, 0x502337a12f4852daull,
        0xbdba407301bcb901ull, 0x3ac7ec658c8edbe9ull,
        0x35b5d9a2e1e3d07aull, 0x1fa26ef64fb3ac5dull,
    };
    const std::uint64_t median[] = {
        0x6e831a9bd020f098ull, 0x903fd6cd7fb37d4full,
        0x2d38ca8e43a6e8b5ull, 0x8645524ea7030829ull,
        0x4b98fff9789313f8ull, 0xcb04f278d27be2fdull,
        0x3810b1edb7d2ea99ull, 0xddd06b3a2f45102bull,
        0x52bd56fb7ceb817full, 0xc629f4255302dd3cull,
    };
    const auto &apps = appScenes();
    ASSERT_EQ(apps.size(), std::size(sah));
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Scene &scene = *apps[i].scene;
        EXPECT_EQ(rayDigest(scene, scene.bvh), sah[i])
            << appName(allApps()[i]);
        EXPECT_EQ(rayDigest(scene, apps[i].median), median[i])
            << appName(allApps()[i]);
    }
}
