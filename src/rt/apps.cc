#include "rt/apps.hh"

#include "common/sim_error.hh"

namespace si {

namespace {

/** Full static profile of one application trace. */
struct AppProfile
{
    AppId id;
    const char *name;
    SceneLayout layout;
    unsigned triangles;
    unsigned shaders;   ///< hit-shader count (== scene materials)
    unsigned bounces;
    unsigned math;      ///< FFMA-class ops per hit shader
    unsigned ldgRounds; ///< dependent attribute-load rounds
    unsigned tex;       ///< texture fetches per hit shader
    unsigned convLdg;   ///< convergent (pre-switch) loads
    unsigned convMath;
    unsigned regs;      ///< per-thread registers (occupancy lever)
    unsigned warps;
    float rtCyclesPerNode; ///< RT-core traversal weight
    unsigned rtPipes;
    std::uint64_t seed;
};

// Calibration targets (shape, not absolute numbers):
//  - BFV1/BFV2: large divergent load-to-use stalls -> top SI speedups.
//  - Coll1/Coll2: stalls mostly in convergent code -> tiny SI benefit.
//  - Ctrl: traversal-heavy (RT-core bound) -> Amdahl-limited benefit.
//  - AV2: short AO shaders -> modest benefit.
const AppProfile profiles[] = {
    // id        name    layout                tris   K  b  math ldg tex cvL cvM regs wrp  cpn pipes seed
    {AppId::AV1, "AV1", SceneLayout::Interior, 12000, 8, 2, 26, 1, 2, 0, 8, 96, 64, 7.0f, 2, 11},
    {AppId::AV2, "AV2", SceneLayout::Interior, 12000, 4, 1, 10, 0, 1, 3, 6, 80, 64, 14.0f, 2, 12},
    {AppId::BFV1, "BFV1", SceneLayout::Terrain, 16000, 12, 2, 44, 1, 2, 0, 6, 80, 64, 7.5f, 2, 13},
    {AppId::BFV2, "BFV2", SceneLayout::Terrain, 16000, 10, 2, 36, 1, 2, 0, 6, 80, 64, 8.0f, 2, 14},
    {AppId::Coll1, "Coll1", SceneLayout::Scatter, 10000, 2, 1, 8, 0, 1, 6, 4, 80, 64, 8.0f, 2, 15},
    {AppId::Coll2, "Coll2", SceneLayout::Scatter, 10000, 3, 1, 4, 0, 0, 8, 4, 96, 64, 8.0f, 2, 16},
    {AppId::Ctrl, "Ctrl", SceneLayout::Interior, 20000, 8, 2, 22, 1, 2, 0, 8, 112, 64, 10.0f, 2, 17},
    {AppId::DDGI, "DDGI", SceneLayout::Interior, 14000, 6, 2, 28, 1, 2, 0, 8, 96, 64, 5.5f, 2, 18},
    {AppId::MC, "MC", SceneLayout::City, 18000, 6, 3, 18, 1, 2, 0, 6, 80, 64, 8.0f, 2, 19},
    {AppId::MW, "MW", SceneLayout::Terrain, 16000, 10, 2, 26, 1, 2, 0, 6, 80, 64, 10.0f, 2, 20},
};

const AppProfile &
profileOf(AppId id)
{
    for (const auto &p : profiles) {
        if (p.id == id)
            return p;
    }
    sim_throw(ErrorKind::Internal, "unknown application id");
}

} // namespace

const char *
appName(AppId id)
{
    return profileOf(id).name;
}

const std::vector<AppId> &
allApps()
{
    static const std::vector<AppId> apps = {
        AppId::AV1, AppId::AV2, AppId::BFV1, AppId::BFV2, AppId::Coll1,
        AppId::Coll2, AppId::Ctrl, AppId::DDGI, AppId::MC, AppId::MW,
    };
    return apps;
}

AppBuild
appBuildConfig(AppId id)
{
    const AppProfile &p = profileOf(id);

    AppBuild b;
    b.scene.name = p.name;
    b.scene.layout = p.layout;
    b.scene.seed = p.seed;
    b.scene.targetTriangles = p.triangles;
    b.scene.numMaterials = p.shaders;

    b.kernel.name = p.name;
    b.kernel.seed = p.seed * 1000003ull;
    b.kernel.numShaders = p.shaders;
    b.kernel.bounces = p.bounces;
    b.kernel.mathPerShader = p.math;
    b.kernel.ldgRounds = p.ldgRounds;
    b.kernel.texPerShader = p.tex;
    b.kernel.convergentLdg = p.convLdg;
    b.kernel.convergentMath = p.convMath;
    b.kernel.numRegs = p.regs;
    b.kernel.numWarps = p.warps;

    b.rtc.cyclesPerNode = p.rtCyclesPerNode;
    b.rtc.numPipes = p.rtPipes;
    return b;
}

Workload
buildApp(AppId id)
{
    return buildApp(id, profileOf(id).warps);
}

Workload
buildApp(AppId id, unsigned num_warps)
{
    AppBuild b = appBuildConfig(id);
    b.kernel.numWarps = num_warps;

    Workload wl = buildMegakernel(b.kernel, makeScene(b.scene));
    wl.rtc = b.rtc;
    return wl;
}

} // namespace si
