#include "rt/wavefront.hh"

#include <algorithm>
#include <cmath>

#include "common/sim_error.hh"
#include "rt/shader_body.hh"

namespace si {

using namespace kregs;

namespace {

/** Constant-bank slot holding the launch's element count. */
constexpr std::int32_t cCount = 28;

/** Registers private to the wavefront kernels. */
constexpr RegIndex rCount = 13, rRayIdx = 14, rFlag = 21;
constexpr PredIndex pOut = 0, pEmitted = 6;

/** Shared prologue: bounds-check the thread and load its ray index. */
void
emitQueuePrologue(KernelBuilder &kb)
{
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rCount, cCount);
    kb.isetp(pOut, CmpOp::GE, rTid, rCount);
    kb.exit().pred(pOut);
    kb.ldc(rConst, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 4, rConst);
    kb.ldg(rRayIdx, rAddr, 0).wr(sbRay);
}

/** Compute the ray-slot address of rRayIdx into rAddr. */
void
emitRayAddr(KernelBuilder &kb, std::uint8_t req_mask)
{
    Instr &in = kb.ldc(rConst, layout::cRayBuf);
    in.reqSbMask = req_mask;
    kb.imadi(rAddr, rRayIdx, 32, rConst);
}

/** The trace kernel: load ray, RTQUERY, store the hit record. */
Program
buildTraceKernel(unsigned num_regs)
{
    KernelBuilder kb("wf_trace");
    emitQueuePrologue(kb);
    emitRayAddr(kb, 1u << sbRay);
    for (unsigned c = 0; c < 6; ++c)
        kb.ldg(RegIndex(rRay + c), rAddr, std::int32_t(c * 4)).wr(1);
    kb.rtquery(rHit, rRay).wr(2).req(1);
    kb.ldc(rConst, layout::cGbuf);
    kb.imadi(rAddr, rRayIdx, 16, rConst);
    kb.stg(rAddr, 0, rHit).req(2);
    kb.stg(rAddr, 4, RegIndex(rHit + 1));
    kb.stg(rAddr, 8, RegIndex(rHit + 2));
    kb.exit();
    return kb.build(num_regs);
}

/** A shade kernel for one material: fully convergent. */
Program
buildShadeKernel(const MegakernelConfig &config, unsigned shader_k,
                 Rng &rng)
{
    KernelBuilder kb("wf_shade" + std::to_string(shader_k));
    emitQueuePrologue(kb);
    emitRayAddr(kb, 1u << sbRay);
    // Ray state: origin, direction, seed, accumulated radiance.
    for (unsigned c = 0; c < 6; ++c)
        kb.ldg(RegIndex(rRay + c), rAddr, std::int32_t(c * 4)).wr(1);
    kb.ldg(rSeed, rAddr, 24).wr(1);
    kb.ldg(rAccum, rAddr, 28).wr(1);
    // Hit record (t, primId).
    kb.ldc(rConst, layout::cGbuf);
    kb.imadi(rOfs, rRayIdx, 16, rConst);
    kb.ldg(RegIndex(rHit + 1), rOfs, 4).wr(2);
    kb.ldg(RegIndex(rHit + 2), rOfs, 8).wr(2);

    kb.movi(rBounce, 0); // emissive-termination flag target
    kb.movf(rEps, 0.05f);
    // Fence the state loads before the body consumes them.
    kb.iadd(rHash, rTid, 0).req(1).req(2);

    emitHitShaderBody(kb, config, shader_k, rng);

    // Continue flag: 1 unless the shader terminated the path.
    kb.movi(rFlag, 1);
    kb.isetpi(pEmitted, CmpOp::EQ, rBounce, 1);
    kb.movi(rFlag, 0).pred(pEmitted);

    // The shader body clobbers rAddr/rConst/rOfs for its own fetches;
    // recompute the slot addresses before persisting state.
    emitRayAddr(kb, 0);
    kb.ldc(rConst, layout::cGbuf);
    kb.imadi(rOfs, rRayIdx, 16, rConst);

    // Persist ray state and the flag.
    for (unsigned c = 0; c < 6; ++c)
        kb.stg(rAddr, std::int32_t(c * 4), RegIndex(rRay + c));
    kb.stg(rAddr, 24, rSeed);
    kb.stg(rAddr, 28, rAccum);
    kb.stg(rOfs, 12, rFlag);
    kb.exit();
    // A per-material kernel needs only its own registers — not the
    // megakernel's worst-case union across all shaders (Section II-B's
    // ABI argument). This occupancy win is a core wavefront advantage.
    return kb.build(48);
}

/** The miss kernel: sky radiance, path terminates. */
Program
buildMissKernel(const MegakernelConfig &config, unsigned num_regs)
{
    KernelBuilder kb("wf_miss");
    emitQueuePrologue(kb);
    emitRayAddr(kb, 1u << sbRay);
    kb.ldg(rAccum, rAddr, 28).wr(1);
    kb.movi(rBounce, 0);
    // Fence the accumulator load, then add the sky term.
    kb.iadd(rHash, rTid, 0).req(1);
    emitMissShaderBody(kb, config);
    kb.stg(rAddr, 28, rAccum);
    kb.ldc(rConst, layout::cGbuf);
    kb.imadi(rOfs, rRayIdx, 16, rConst);
    kb.movi(rFlag, 0);
    kb.stg(rOfs, 12, rFlag);
    kb.exit();
    return kb.build(num_regs);
}

/** Run one kernel over @p queue; returns the kernel's cycle count. */
Cycle
launch(const Program &prog, const std::vector<std::uint32_t> &queue,
       Memory &mem, const GpuConfig &gpu_config, const Bvh *bvh)
{
    if (queue.empty())
        return 0;
    // Stage the queue and its length.
    for (std::size_t i = 0; i < queue.size(); ++i)
        mem.write(layout::dataBufBase + Addr(i) * 4, queue[i]);
    mem.writeConst(std::uint32_t(cCount), std::uint32_t(queue.size()));

    LaunchParams lp;
    lp.numWarps = unsigned((queue.size() + warpSize - 1) / warpSize);
    lp.warpsPerCta = 4;
    const GpuResult r = simulate(gpu_config, mem, prog, lp, bvh);
    if (!r.ok()) {
        throw SimError(r.status.kind,
                       "wavefront kernel '" + prog.name() +
                           "' failed: " + r.status.message,
                       r.status.diagnostic);
    }
    return r.cycles;
}

} // namespace

WavefrontResult
runWavefront(const WavefrontConfig &config, const Workload &megakernel,
             const GpuConfig &gpu_config)
{
    const std::shared_ptr<Scene> &scene = megakernel.scene;
    sim_throw_if(!scene || !megakernel.memory, ErrorKind::Config,
                 "wavefront needs a megakernel");
    const MegakernelConfig &kc = config.kernel;
    const unsigned num_shaders =
        std::min(kc.numShaders, scene->config.numMaterials);
    const unsigned num_rays = kc.numWarps * warpSize;

    // Rays, normals, materials and constants: the megakernel's image.
    Memory mem = *megakernel.memory;
    // The queue segment is wavefront-specific.
    mem.writeConst(std::uint32_t(layout::cDataBuf),
                   std::uint32_t(layout::dataBufBase));

    // Kernel set: one trace, one miss, one shade kernel per material.
    // The shade-kernel RNG mirrors the megakernel generator's stream so
    // per-shader size jitter and roughness match exactly.
    Rng rng(kc.seed * 0x2545f4914f6cdd1dull + 99);
    const Program trace_kernel = buildTraceKernel(48);
    std::vector<Program> shade_kernels;
    for (unsigned k = 1; k <= num_shaders; ++k)
        shade_kernels.push_back(buildShadeKernel(kc, k, rng));
    const Program miss_kernel = buildMissKernel(kc, 48);

    WavefrontResult result;
    std::vector<std::uint32_t> alive(num_rays);
    for (unsigned i = 0; i < num_rays; ++i)
        alive[i] = i;

    for (unsigned bounce = 0; bounce < kc.bounces && !alive.empty();
         ++bounce) {
        ++result.bouncesRun;
        result.raysTraced += alive.size();

        // ---- trace pass ----
        result.traceCycles +=
            launch(trace_kernel, alive, mem, gpu_config, &scene->bvh);
        result.launchCycles += config.launchOverhead;
        ++result.kernelLaunches;

        // ---- compaction: sort rays into per-material queues ----
        std::vector<std::vector<std::uint32_t>> queues(num_shaders + 1);
        for (std::uint32_t ray : alive) {
            const std::uint32_t shader =
                mem.read(layout::gbufBase + Addr(ray) * 16);
            const std::uint32_t bin =
                std::min(shader, num_shaders); // 0 = miss
            queues[bin].push_back(ray);
        }
        result.compactionCycles +=
            Cycle(config.compactionCyclesPerRay * float(alive.size()));

        // ---- shade passes (each fully convergent) ----
        for (unsigned k = 1; k <= num_shaders; ++k) {
            if (queues[k].empty())
                continue;
            result.shadeCycles += launch(shade_kernels[k - 1], queues[k],
                                         mem, gpu_config, &scene->bvh);
            result.launchCycles += config.launchOverhead;
            ++result.kernelLaunches;
        }
        if (!queues[0].empty()) {
            result.shadeCycles += launch(miss_kernel, queues[0], mem,
                                         gpu_config, &scene->bvh);
            result.launchCycles += config.launchOverhead;
            ++result.kernelLaunches;
        }

        // ---- next wave: rays whose continue flag survived ----
        std::vector<std::uint32_t> next;
        for (std::uint32_t ray : alive) {
            if (mem.read(layout::gbufBase + Addr(ray) * 16 + 12) == 1)
                next.push_back(ray);
        }
        alive = std::move(next);
    }

    result.totalCycles = result.traceCycles + result.shadeCycles +
                         result.compactionCycles + result.launchCycles;
    result.radiance.resize(num_rays);
    for (unsigned i = 0; i < num_rays; ++i)
        result.radiance[i] =
            mem.read(layout::rayBufBase + Addr(i) * 32 + 28);
    return result;
}

} // namespace si
