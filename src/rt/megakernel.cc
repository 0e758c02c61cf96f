#include "rt/megakernel.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "isa/builder.hh"
#include "rt/shader_body.hh"

namespace si {

using namespace kregs;

Workload
buildMegakernel(const MegakernelConfig &config,
                std::shared_ptr<Scene> scene)
{
    sim_throw_if(!scene, ErrorKind::Config, "megakernel '%s' needs a scene",
                 config.name.c_str());
    sim_throw_if(config.numRegs < 48, ErrorKind::Config,
                 "megakernel '%s': need >= 48 registers",
                 config.name.c_str());
    sim_throw_if(config.bounces == 0, ErrorKind::Config,
                 "megakernel '%s': need >= 1 bounce", config.name.c_str());

    const unsigned num_shaders =
        std::min(config.numShaders, scene->config.numMaterials);
    sim_throw_if(num_shaders == 0, ErrorKind::Config,
                 "megakernel '%s': no shaders", config.name.c_str());

    const unsigned num_threads = config.numWarps * warpSize;
    Rng rng(config.seed * 0x2545f4914f6cdd1dull + 99);

    KernelBuilder kb(config.name);
    Label loop_top = kb.newLabel("loopTop");
    Label join = kb.newLabel("join");
    Label miss = kb.newLabel("miss");
    Label epilogue = kb.newLabel("epilogue");

    // ---- prologue: load the primary ray and per-thread RNG seed ----
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rConst, layout::cRayBuf);
    kb.imadi(rAddr, rTid, 32, rConst);
    for (unsigned c = 0; c < 6; ++c)
        kb.ldg(RegIndex(rRay + c), rAddr, std::int32_t(c * 4)).wr(sbRay);
    kb.ldg(rSeed, rAddr, 24).wr(sbRay);
    kb.movi(rBounce, std::int32_t(config.bounces));
    kb.movf(rAccum, 0.0f);
    kb.movf(rEps, 0.05f);

    // ---- path-trace loop ----
    kb.bind(loop_top);
    kb.marker("convergent");

    // Convergent ray cast: the RT core traverses the BVH while the SM
    // keeps executing the convergent section below (Section II-B).
    kb.rtquery(rHit, rRay).wr(sbRt).req(sbRay);

    // Convergent region (G-buffer traffic + setup math). Stalls here
    // cannot be hidden by SI: the warp has not diverged yet.
    if (config.convergentLdg > 0) {
        kb.ldc(rConst, layout::cGbuf);
        kb.imadi(rAddr, rTid, 64, rConst);
        kb.imuli(rOfs, rBounce, std::int32_t(num_threads * 64));
        kb.iadd(rAddr, rAddr, rOfs);
        for (unsigned j = 0; j < config.convergentLdg; ++j) {
            kb.ldg(RegIndex(rMath + (j % 4)), rAddr,
                   std::int32_t(j * 8)).wr(sbGbuf);
        }
        kb.fadd(rMath, rMath, RegIndex(rMath + 1)).req(sbGbuf);
    }
    emitMathChain(kb, config.convergentMath);

    // Consume the query (load-to-use on the RT result) and diverge.
    kb.isetpi(pMiss, CmpOp::EQ, rHit, 0).req(sbRt);
    kb.bssy(0, join);
    kb.bra(miss).pred(pMiss);

    // ---- binary dispatch over hit-shader id (1..num_shaders) ----
    std::function<void(unsigned, unsigned)> dispatch =
        [&](unsigned lo, unsigned hi) {
            if (lo == hi) {
                kb.marker("hit" + std::to_string(lo));
                emitHitShaderBody(kb, config, lo, rng);
                kb.bra(join);
                return;
            }
            const unsigned mid = lo + (hi - lo) / 2;
            Label right = kb.newLabel();
            kb.isetpi(pDispatch, CmpOp::GT, rHit, std::int32_t(mid));
            kb.bra(right).pred(pDispatch);
            dispatch(lo, mid);
            kb.bind(right);
            dispatch(mid + 1, hi);
        };
    dispatch(1, num_shaders);

    // ---- miss shader: sky contribution, path ends ----
    kb.bind(miss);
    kb.marker("miss");
    emitMissShaderBody(kb, config);
    kb.bra(join);

    // ---- reconvergence + loop control ----
    kb.bind(join);
    kb.marker("convergent");
    kb.bsync(0);
    kb.iaddi(rBounce, rBounce, -1);
    kb.isetpi(pLoop, CmpOp::GT, rBounce, 0);
    kb.bra(loop_top).pred(pLoop);

    kb.bind(epilogue);
    kb.ldc(rConst, layout::cOutBuf);
    kb.imadi(rAddr, rTid, 4, rConst);
    kb.stg(rAddr, 0, rAccum);
    kb.exit();

    Workload wl;
    wl.name = config.name;
    wl.program = kb.build(config.numRegs);
    wl.launch = {config.numWarps, config.warpsPerCta};
    wl.scene = scene;
    wl.memory = std::make_shared<Memory>();

    // ---- memory image ----
    Memory &mem = *wl.memory;
    mem.writeConst(std::uint32_t(layout::cRayBuf),
                   std::uint32_t(layout::rayBufBase));
    mem.writeConst(std::uint32_t(layout::cNormalBuf),
                   std::uint32_t(layout::normalBufBase));
    mem.writeConst(std::uint32_t(layout::cMatBuf),
                   std::uint32_t(layout::matBufBase));
    mem.writeConst(std::uint32_t(layout::cGbuf),
                   std::uint32_t(layout::gbufBase));
    mem.writeConst(std::uint32_t(layout::cAttrBuf),
                   std::uint32_t(layout::attrBufBase));
    mem.writeConst(std::uint32_t(layout::cOutBuf),
                   std::uint32_t(layout::outBufBase));

    // Primary rays: one pixel per thread over a square screen tile.
    const unsigned width = std::max(
        1u, unsigned(std::ceil(std::sqrt(double(num_threads)))));
    for (unsigned t = 0; t < num_threads; ++t) {
        const float sx = (float(t % width) + 0.5f) / float(width);
        const float sy = (float(t / width) + 0.5f) / float(width);
        const Ray r = scene->primaryRay(sx, sy);
        const Addr base = layout::rayBufBase + Addr(t) * 32;
        mem.writeF(base + 0, r.origin.x);
        mem.writeF(base + 4, r.origin.y);
        mem.writeF(base + 8, r.origin.z);
        mem.writeF(base + 12, r.dir.x);
        mem.writeF(base + 16, r.dir.y);
        mem.writeF(base + 20, r.dir.z);
        mem.write(base + 24, std::uint32_t(rng.next() | 1u));
    }

    // Per-triangle geometric normals.
    for (std::size_t i = 0; i < scene->triangles.size(); ++i) {
        const Vec3 n = scene->triangles[i].normal();
        const Addr base = layout::normalBufBase + Addr(i) * 16;
        mem.writeF(base + 0, n.x);
        mem.writeF(base + 4, n.y);
        mem.writeF(base + 8, n.z);
    }

    // Material table: albedo + emissive flag.
    for (unsigned m = 0; m < num_shaders; ++m) {
        const Addr base = layout::matBufBase + Addr(m) * 32;
        mem.writeF(base + 0, rng.uniform(0.3f, 0.9f));
        mem.writeF(base + 4, rng.chance(0.12f) ? 1.0f : 0.0f);
    }

    wl.rtc = RtCoreConfig{};
    return wl;
}

} // namespace si
