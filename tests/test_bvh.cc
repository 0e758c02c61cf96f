/** @file BVH correctness: traversal must agree with brute force. */

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "rtcore/bvh.hh"

using namespace si;

namespace {

std::vector<Triangle>
randomSoup(std::uint64_t seed, unsigned n, float extent)
{
    Rng rng(seed);
    std::vector<Triangle> tris;
    for (unsigned i = 0; i < n; ++i) {
        const Vec3 c{rng.uniform(0, extent), rng.uniform(0, extent),
                     rng.uniform(0, extent)};
        auto j = [&]() {
            return Vec3{rng.uniform(-2, 2), rng.uniform(-2, 2),
                        rng.uniform(-2, 2)};
        };
        tris.push_back({c + j(), c + j(), c + j(),
                        std::uint32_t(rng.below(8))});
    }
    return tris;
}

Hit
bruteForce(const std::vector<Triangle> &tris, const Ray &ray)
{
    Hit best;
    float t_max = ray.tMax;
    for (std::size_t i = 0; i < tris.size(); ++i) {
        Hit h = intersect(ray, tris[i], t_max);
        if (h.valid) {
            h.primId = std::uint32_t(i);
            best = h;
            t_max = h.t;
        }
    }
    return best;
}

} // namespace

TEST(Bvh, EmptySceneAlwaysMisses)
{
    Bvh bvh{std::vector<Triangle>{}};
    Ray r;
    r.origin = {0, 0, 0};
    r.dir = {0, 0, 1};
    EXPECT_FALSE(bvh.trace(r).valid);
}

TEST(Bvh, SingleTriangle)
{
    Bvh bvh{{Triangle{{-1, -1, 5}, {1, -1, 5}, {0, 1, 5}, 9}}};
    Ray r;
    r.origin = {0, 0, 0};
    r.dir = {0, 0, 1};
    const Hit h = bvh.trace(r);
    ASSERT_TRUE(h.valid);
    EXPECT_NEAR(h.t, 5.0f, 1e-5f);
    EXPECT_EQ(h.materialId, 9u);
    EXPECT_EQ(h.primId, 0u);
}

TEST(Bvh, NonFiniteVertexRejected)
{
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()}) {
        for (int coord = 0; coord < 9; ++coord) {
            Triangle t{{-1, -1, 5}, {1, -1, 5}, {0, 1, 5}, 0};
            Vec3 &v = coord < 3 ? t.v0 : coord < 6 ? t.v1 : t.v2;
            (coord % 3 == 0 ? v.x : coord % 3 == 1 ? v.y : v.z) = bad;
            try {
                Bvh bvh({Triangle{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0}, t});
                ADD_FAILURE() << "accepted " << bad << " at " << coord;
            } catch (const SimError &e) {
                EXPECT_EQ(e.kind(), ErrorKind::Config);
            }
        }
    }
}

TEST(Bvh, NearestOfTwoCollinearTriangles)
{
    std::vector<Triangle> tris = {
        {{-1, -1, 10}, {1, -1, 10}, {0, 1, 10}, 1},
        {{-1, -1, 4}, {1, -1, 4}, {0, 1, 4}, 2},
    };
    Bvh bvh(tris);
    Ray r;
    r.origin = {0, 0, 0};
    r.dir = {0, 0, 1};
    const Hit h = bvh.trace(r);
    ASSERT_TRUE(h.valid);
    EXPECT_EQ(h.materialId, 2u);
    EXPECT_NEAR(h.t, 4.0f, 1e-5f);
}

TEST(Bvh, NodeCountBounded)
{
    const auto tris = randomSoup(3, 1000, 50);
    Bvh bvh(tris);
    EXPECT_GT(bvh.numNodes(), 0u);
    EXPECT_LE(bvh.numNodes(), 2 * tris.size());
    EXPECT_EQ(bvh.numTriangles(), tris.size());
}

TEST(Bvh, TraversalCountsWork)
{
    const auto tris = randomSoup(5, 500, 30);
    Bvh bvh(tris);
    Ray r;
    r.origin = {-10, 15, 15};
    r.dir = {1, 0, 0};
    TraversalStats ts;
    bvh.trace(r, &ts);
    EXPECT_GT(ts.nodesVisited, 0u);
    // A reasonable BVH visits far fewer nodes than a linear scan
    // would test triangles.
    EXPECT_LT(ts.trianglesTested, tris.size());
}

/** Property: BVH trace agrees with brute force on random scenes/rays. */
class BvhAgreementTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BvhAgreementTest, MatchesBruteForce)
{
    const std::uint64_t seed = GetParam();
    const auto tris = randomSoup(seed, 300, 40);
    Bvh bvh(tris);
    Rng rng(seed * 31 + 7);

    for (int i = 0; i < 200; ++i) {
        Ray r;
        r.origin = {rng.uniform(-10, 50), rng.uniform(-10, 50),
                    rng.uniform(-10, 50)};
        r.dir = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1)}
                    .normalized();
        const Hit a = bvh.trace(r);
        const Hit b = bruteForce(tris, r);
        ASSERT_EQ(a.valid, b.valid) << "ray " << i;
        if (a.valid) {
            EXPECT_NEAR(a.t, b.t, 1e-4f) << "ray " << i;
            EXPECT_EQ(a.primId, b.primId) << "ray " << i;
            EXPECT_EQ(a.materialId, b.materialId) << "ray " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BvhAgreementTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

TEST(Bvh, DegenerateCoincidentCentroids)
{
    // All triangles stacked at the same centroid: the builder must fall
    // back to median splits and still answer queries correctly.
    std::vector<Triangle> tris;
    for (int i = 0; i < 64; ++i) {
        tris.push_back({{-1, -1, 5}, {1, -1, 5}, {0, 1, 5},
                        std::uint32_t(i % 4)});
    }
    Bvh bvh(tris);
    Ray r;
    r.origin = {0, 0, 0};
    r.dir = {0, 0, 1};
    EXPECT_TRUE(bvh.trace(r).valid);
}

TEST(BvhBuilder, MedianSplitAgreesWithBruteForce)
{
    const auto tris = randomSoup(7, 400, 40);
    Bvh sah(tris, BvhBuilder::BinnedSah);
    Bvh median(tris, BvhBuilder::MedianSplit);
    Rng rng(123);
    for (int i = 0; i < 100; ++i) {
        Ray r;
        r.origin = {rng.uniform(-10, 50), rng.uniform(-10, 50),
                    rng.uniform(-10, 50)};
        r.dir = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                     rng.uniform(-1, 1)}
                    .normalized();
        const Hit a = sah.trace(r);
        const Hit b = median.trace(r);
        ASSERT_EQ(a.valid, b.valid);
        if (a.valid) {
            EXPECT_NEAR(a.t, b.t, 1e-4f);
            EXPECT_EQ(a.primId, b.primId);
        }
    }
}

TEST(BvhBuilder, SahTraversesNoMoreWorkOnAverage)
{
    const auto tris = randomSoup(11, 2000, 60);
    Bvh sah(tris, BvhBuilder::BinnedSah);
    Bvh median(tris, BvhBuilder::MedianSplit);
    Rng rng(5);
    std::uint64_t sah_nodes = 0, median_nodes = 0;
    for (int i = 0; i < 300; ++i) {
        Ray r;
        r.origin = {rng.uniform(-10, 70), rng.uniform(-10, 70), -20};
        r.dir = Vec3{rng.uniform(-0.3f, 0.3f), rng.uniform(-0.3f, 0.3f),
                     1.0f}
                    .normalized();
        TraversalStats a, b;
        sah.trace(r, &a);
        median.trace(r, &b);
        sah_nodes += a.nodesVisited;
        median_nodes += b.nodesVisited;
    }
    // SAH should be at least as good in aggregate (usually much
    // better on clustered geometry).
    EXPECT_LE(sah_nodes, median_nodes + median_nodes / 10);
}
