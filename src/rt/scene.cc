#include "rt/scene.hh"

#include <cmath>

#include "common/rng.hh"
#include "common/sim_error.hh"

namespace si {

namespace {

/** Append a quad (two triangles) with one material. */
void
addQuad(std::vector<Triangle> &tris, const Vec3 &a, const Vec3 &b,
        const Vec3 &c, const Vec3 &d, std::uint32_t mat)
{
    tris.push_back({a, b, c, mat});
    tris.push_back({a, c, d, mat});
}

/** Append an axis-aligned box (12 triangles) with one material. */
void
addBox(std::vector<Triangle> &tris, const Vec3 &lo, const Vec3 &hi,
       std::uint32_t mat)
{
    const Vec3 v000{lo.x, lo.y, lo.z}, v100{hi.x, lo.y, lo.z};
    const Vec3 v010{lo.x, hi.y, lo.z}, v110{hi.x, hi.y, lo.z};
    const Vec3 v001{lo.x, lo.y, hi.z}, v101{hi.x, lo.y, hi.z};
    const Vec3 v011{lo.x, hi.y, hi.z}, v111{hi.x, hi.y, hi.z};
    addQuad(tris, v000, v100, v110, v010, mat); // -z
    addQuad(tris, v001, v011, v111, v101, mat); // +z
    addQuad(tris, v000, v001, v101, v100, mat); // -y
    addQuad(tris, v010, v110, v111, v011, mat); // +y
    addQuad(tris, v000, v010, v011, v001, mat); // -x
    addQuad(tris, v100, v101, v111, v110, mat); // +x
}

void
buildInterior(Scene &scene, Rng &rng)
{
    auto &tris = scene.triangles;
    const SceneConfig &cfg = scene.config;
    const float e = cfg.extent;

    // Shell: floor, ceiling, four walls.
    addQuad(tris, {0, 0, 0}, {e, 0, 0}, {e, 0, e}, {0, 0, e}, 0);
    addQuad(tris, {0, e * 0.4f, 0}, {0, e * 0.4f, e}, {e, e * 0.4f, e},
            {e, e * 0.4f, 0}, 1);
    addQuad(tris, {0, 0, 0}, {0, e * 0.4f, 0}, {e, e * 0.4f, 0},
            {e, 0, 0}, 2);
    addQuad(tris, {0, 0, e}, {e, 0, e}, {e, e * 0.4f, e},
            {0, e * 0.4f, e}, 2);
    addQuad(tris, {0, 0, 0}, {0, 0, e}, {0, e * 0.4f, e},
            {0, e * 0.4f, 0}, 3);
    addQuad(tris, {e, 0, 0}, {e, e * 0.4f, 0}, {e, e * 0.4f, e},
            {e, 0, e}, 3);

    // Furniture boxes until the triangle budget is spent.
    while (tris.size() + 12 <= cfg.targetTriangles) {
        const float w = rng.uniform(0.02f, 0.10f) * e;
        const float h = rng.uniform(0.02f, 0.15f) * e;
        const float d = rng.uniform(0.02f, 0.10f) * e;
        const float x = rng.uniform(0.05f, 0.90f) * e;
        const float z = rng.uniform(0.05f, 0.90f) * e;
        const std::uint32_t mat = std::uint32_t(
            rng.below(cfg.numMaterials));
        addBox(tris, {x, 0, z}, {x + w, h, z + d}, mat);
    }

    scene.eye = {e * 0.5f, e * 0.18f, e * 0.08f};
    scene.lookDir = Vec3{0.0f, -0.05f, 1.0f}.normalized();
    scene.rightDir = {0.9f, 0, 0};
    scene.upDir = {0, 0.6f, 0};
}

void
buildTerrain(Scene &scene, Rng &rng)
{
    auto &tris = scene.triangles;
    const SceneConfig &cfg = scene.config;
    const float e = cfg.extent;

    // Heightfield grid sized to roughly half of the triangle budget.
    const unsigned grid = std::max(
        4u, unsigned(std::sqrt(double(cfg.targetTriangles) / 4.0)));
    std::vector<float> height((grid + 1) * (grid + 1));
    for (auto &h : height)
        h = rng.uniform(0.0f, 0.12f) * e;
    auto h_at = [&](unsigned i, unsigned j) {
        return height[j * (grid + 1) + i];
    };

    const float cell = e / float(grid);
    for (unsigned j = 0; j < grid; ++j) {
        for (unsigned i = 0; i < grid; ++i) {
            const std::uint32_t mat = std::uint32_t(
                (i / 3 + j / 3) % cfg.numMaterials);
            const float fi = float(i);
            const float fj = float(j);
            const Vec3 a{fi * cell, h_at(i, j), fj * cell};
            const Vec3 b{(fi + 1) * cell, h_at(i + 1, j), fj * cell};
            const Vec3 c{(fi + 1) * cell, h_at(i + 1, j + 1),
                         (fj + 1) * cell};
            const Vec3 d{fi * cell, h_at(i, j + 1), (fj + 1) * cell};
            tris.push_back({a, b, c, mat});
            tris.push_back({a, c, d, mat});
        }
    }

    // Props (vehicles, rocks) until the budget is spent.
    while (tris.size() + 12 <= cfg.targetTriangles) {
        const float w = rng.uniform(0.01f, 0.05f) * e;
        const float x = rng.uniform(0.05f, 0.9f) * e;
        const float z = rng.uniform(0.05f, 0.9f) * e;
        const std::uint32_t mat =
            std::uint32_t(rng.below(cfg.numMaterials));
        addBox(tris, {x, 0.0f, z},
               {x + w, rng.uniform(0.02f, 0.10f) * e, z + w}, mat);
    }

    scene.eye = {e * 0.5f, e * 0.25f, -e * 0.15f};
    scene.lookDir = Vec3{0.0f, -0.25f, 1.0f}.normalized();
    scene.rightDir = {1.0f, 0, 0};
    scene.upDir = {0, 0.65f, 0};
}

void
buildCity(Scene &scene, Rng &rng)
{
    auto &tris = scene.triangles;
    const SceneConfig &cfg = scene.config;
    const float e = cfg.extent;

    // Ground plane.
    addQuad(tris, {0, 0, 0}, {e, 0, 0}, {e, 0, e}, {0, 0, e}, 0);

    const unsigned blocks = std::max(
        2u, unsigned(std::sqrt(double(cfg.targetTriangles) / 12.0)));
    const float cell = e / float(blocks);
    for (unsigned j = 0; j < blocks; ++j) {
        for (unsigned i = 0; i < blocks; ++i) {
            if (tris.size() + 12 > cfg.targetTriangles)
                return;
            if (rng.chance(0.2f))
                continue; // street gap
            const float h = rng.uniform(0.05f, 0.5f) * e;
            const float inset = cell * rng.uniform(0.05f, 0.2f);
            const std::uint32_t mat =
                std::uint32_t(rng.below(cfg.numMaterials));
            const float fi = float(i);
            const float fj = float(j);
            addBox(tris,
                   {fi * cell + inset, 0, fj * cell + inset},
                   {(fi + 1) * cell - inset, h,
                    (fj + 1) * cell - inset},
                   mat);
        }
    }

    scene.eye = {e * 0.5f, e * 0.35f, -e * 0.2f};
    scene.lookDir = Vec3{0.0f, -0.3f, 1.0f}.normalized();
    scene.rightDir = {1.0f, 0, 0};
    scene.upDir = {0, 0.65f, 0};
}

void
buildScatter(Scene &scene, Rng &rng)
{
    auto &tris = scene.triangles;
    const SceneConfig &cfg = scene.config;
    const float e = cfg.extent;

    while (tris.size() < cfg.targetTriangles) {
        const Vec3 center{rng.uniform(0, e), rng.uniform(0, e),
                          rng.uniform(0, e)};
        const float s = rng.uniform(0.01f, 0.04f) * e;
        auto jitter = [&]() {
            return Vec3{rng.uniform(-s, s), rng.uniform(-s, s),
                        rng.uniform(-s, s)};
        };
        const std::uint32_t mat =
            std::uint32_t(rng.below(cfg.numMaterials));
        tris.push_back({center + jitter(), center + jitter(),
                        center + jitter(), mat});
    }

    scene.eye = {e * 0.5f, e * 0.5f, -e * 0.4f};
    scene.lookDir = {0, 0, 1};
    scene.rightDir = {0.8f, 0, 0};
    scene.upDir = {0, 0.8f, 0};
}

} // namespace

std::shared_ptr<Scene>
makeScene(const SceneConfig &config)
{
    sim_throw_if(config.numMaterials == 0, ErrorKind::Config,
                 "scene '%s': need >= 1 material", config.name.c_str());
    sim_throw_if(config.targetTriangles < 2, ErrorKind::Config,
                 "scene '%s': triangle budget too small",
                 config.name.c_str());

    auto scene = std::make_shared<Scene>();
    scene->config = config;
    Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 0xdeadbeefull);

    switch (config.layout) {
      case SceneLayout::Interior:
        buildInterior(*scene, rng);
        break;
      case SceneLayout::Terrain:
        buildTerrain(*scene, rng);
        break;
      case SceneLayout::City:
        buildCity(*scene, rng);
        break;
      case SceneLayout::Scatter:
        buildScatter(*scene, rng);
        break;
    }

    scene->bvh = Bvh(scene->triangles);
    return scene;
}

} // namespace si
