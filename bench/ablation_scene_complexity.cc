/**
 * @file
 * Ablation: scene complexity vs SI benefit (the paper's Amdahl limiter,
 * Discussion point 2: "the latency of ray traversal operations is often
 * the dominant factor"). Growing the scene deepens the BVH, inflating
 * the RT core's convergent traversal time relative to the divergent
 * shading SI accelerates — the SI gain should shrink.
 *
 * Also compares the BVH construction strategies: a median-split BVH
 * traverses more nodes than binned-SAH, so the same scene becomes more
 * traversal-bound and less SI-friendly.
 */

#include "bench_common.hh"

namespace {

/**
 * The BFV1 megakernel over a @p tris-triangle scene, whose BVH is
 * binned-SAH when @p sah and median-split otherwise.
 */
si::Workload
buildBfv1(unsigned tris, bool sah)
{
    si::AppBuild build = si::appBuildConfig(si::AppId::BFV1);
    build.scene.targetTriangles = tris;
    auto scene = si::makeScene(build.scene);
    if (!sah)
        scene->bvh = si::Bvh(scene->triangles, si::BvhBuilder::MedianSplit);
    si::Workload wl = si::buildMegakernel(build.kernel, scene);
    wl.rtc = build.rtc;
    return wl;
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("ablation_scene_complexity", argc, argv);

    // Rows: triangle count major, BVH builder minor.
    const unsigned tri_counts[] = {2000u, 8000u, 32000u};
    si::bench::Grid grid(bj);
    for (unsigned tris : tri_counts) {
        for (const bool sah : {true, false}) {
            grid.row("tris=" + std::to_string(tris) +
                         (sah ? " sah" : " median"),
                     [tris, sah] { return buildBfv1(tris, sah); });
        }
    }
    grid.column("baseline", bj.baseline());
    grid.column("SI", si::withSi(bj.baseline(), si::bestSiConfigPoint()));
    grid.run();

    si::TablePrinter t("Ablation: scene complexity and BVH quality vs "
                       "SI benefit (BFV1 profile, lat=600)");
    t.header({"triangles", "BVH", "RT nodes/query", "baseline cycles",
              "SI speedup"});
    for (std::size_t r : grid.rows()) {
        // Average traversal work per query from the functional BVH.
        const si::Scene &scene = *grid.workload(r).scene;
        std::uint64_t nodes = 0;
        const unsigned probes = 256;
        for (unsigned i = 0; i < probes; ++i) {
            si::TraversalStats ts;
            scene.bvh.trace(
                scene.primaryRay((float(i % 16) + 0.5f) / 16.0f,
                                 (float(i / 16) + 0.5f) / 16.0f),
                &ts);
            nodes += ts.nodesVisited;
        }
        t.row({std::to_string(tri_counts[r / 2]),
               r % 2 == 0 ? "SAH" : "median",
               si::TablePrinter::num(double(nodes) / probes, 1),
               std::to_string(grid.result(r, 0).cycles),
               si::TablePrinter::pct(grid.speedup(r, 0, 1))});
    }
    t.print();

    bj.table(t);
    return bj.finish() ? 0 : 1;
}
