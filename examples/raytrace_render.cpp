/**
 * @file
 * Full-pipeline raytrace example: build a procedural scene, generate a
 * megakernel for it, render an image *on the simulated GPU* (the
 * radiance values written by the kernel's STG instructions become the
 * pixels), and write it out as a PPM — once on the baseline machine
 * and once with Subwarp Interleaving, verifying the images match
 * bit-for-bit while SI finishes in fewer cycles.
 *
 * Usage: raytrace_render [out_prefix]
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "rt/megakernel.hh"

namespace {

/** Tone-map radiance values to an 8-bit grayscale PPM. */
void
writePpm(const std::string &path,
         const std::vector<std::uint32_t> &radiance, unsigned width,
         unsigned height)
{
    std::ofstream out(path, std::ios::binary);
    out << "P5\n" << width << " " << height << "\n255\n";
    for (unsigned i = 0; i < width * height; ++i) {
        float v = 0.0f;
        if (i < radiance.size()) {
            std::uint32_t bits = radiance[i];
            std::memcpy(&v, &bits, sizeof(v));
        }
        if (!std::isfinite(v))
            v = 1.0f;
        const float mapped = 1.0f - std::exp(-std::fabs(v));
        out.put(char(std::clamp(int(mapped * 255.0f), 0, 255)));
    }
}

/** Rendered pixels as raw 32-bit words, so NaNs compare bitwise. */
std::vector<std::uint32_t>
render(const si::Workload &wl, const si::GpuConfig &cfg,
       si::GpuResult *result)
{
    si::GpuConfig config = cfg;
    config.rtc = wl.rtc;
    si::Memory mem = *wl.memory;
    *result = si::simulate(config, mem, wl.program, wl.launch, wl.bvh());

    const unsigned threads = wl.launch.numWarps * si::warpSize;
    std::vector<std::uint32_t> radiance(threads);
    for (unsigned t = 0; t < threads; ++t)
        radiance[t] = mem.read(si::layout::outBufBase + si::Addr(t) * 4);
    return radiance;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string prefix = argc > 1 ? argv[1] : "render";

    // A 64x64 tile: 128 warps of primary rays.
    si::SceneConfig sc;
    sc.name = "villa";
    sc.layout = si::SceneLayout::Interior;
    sc.targetTriangles = 14000;
    sc.numMaterials = 8;
    sc.seed = 2022;

    si::MegakernelConfig mc;
    mc.name = "render";
    mc.numShaders = 8;
    mc.bounces = 2;
    mc.numWarps = 128;
    mc.numRegs = 96;

    const si::Workload wl = si::buildMegakernel(mc, si::makeScene(sc));
    const unsigned threads = mc.numWarps * si::warpSize;
    const unsigned width =
        unsigned(std::ceil(std::sqrt(double(threads))));

    std::printf("scene: %zu triangles, %zu BVH nodes\n",
                wl.scene->triangles.size(), wl.scene->bvh.numNodes());
    std::printf("kernel: %u instructions, %u regs/thread, %u warps\n",
                wl.program.size(), wl.program.numRegs(), mc.numWarps);

    si::GpuResult rb, rs;
    const auto img_base = render(wl, si::baselineConfig(), &rb);
    const auto img_si = render(
        wl, si::withSi(si::baselineConfig(), si::bestSiConfigPoint()),
        &rs);

    writePpm(prefix + "_baseline.ppm", img_base, width, width);
    writePpm(prefix + "_si.ppm", img_si, width, width);

    const bool identical = img_base == img_si;
    std::printf("\nbaseline: %llu cycles   SI: %llu cycles   "
                "speedup: %.1f%%\n",
                static_cast<unsigned long long>(rb.cycles),
                static_cast<unsigned long long>(rs.cycles),
                si::speedupPct(rb, rs));
    std::printf("images identical: %s\n", identical ? "yes" : "NO!");
    std::printf("wrote %s_baseline.ppm and %s_si.ppm (%ux%u)\n",
                prefix.c_str(), prefix.c_str(), width, width);
    return identical ? 0 : 1;
}
