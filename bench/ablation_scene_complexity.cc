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

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("ablation_scene_complexity", argc, argv);

    si::TablePrinter t("Ablation: scene complexity and BVH quality vs "
                       "SI benefit (BFV1 profile, lat=600)");
    t.header({"triangles", "BVH", "RT nodes/query", "baseline cycles",
              "SI speedup"});

    // Flattened tris-major, builder-minor grid, matching the serial
    // loop nest's iteration order.
    const std::vector<unsigned> tri_counts = {2000u, 8000u, 32000u};
    const si::BvhBuilder builders[] = {si::BvhBuilder::BinnedSah,
                                       si::BvhBuilder::MedianSplit};
    struct Cell
    {
        si::GpuResult base, si;
        double nodesPerQuery;
    };
    si::parallel::mapIndexed<Cell>(
        bj.jobs(), tri_counts.size() * 2,
        [&](std::size_t k) {
            const unsigned tris = tri_counts[k / 2];
            const si::BvhBuilder builder = builders[k % 2];
            si::AppBuild build = si::appBuildConfig(si::AppId::BFV1);
            build.scene.targetTriangles = tris;
            auto scene = si::makeScene(build.scene);
            if (builder == si::BvhBuilder::MedianSplit)
                scene->bvh = si::Bvh(scene->triangles, builder);

            si::Workload wl = si::buildMegakernel(build.kernel, scene);
            wl.rtc = build.rtc;

            Cell c;
            c.base = si::runWorkload(wl, bj.baseline());
            c.si = si::runWorkload(wl,
                                   si::withSi(bj.baseline(),
                                              si::bestSiConfigPoint()));

            // Average traversal work per query from the functional BVH.
            std::uint64_t nodes = 0;
            unsigned probes = 0;
            for (unsigned i = 0; i < 256; ++i) {
                si::TraversalStats ts;
                scene->bvh.trace(
                    scene->primaryRay((float(i % 16) + 0.5f) / 16.0f,
                                      (float(i / 16) + 0.5f) / 16.0f),
                    &ts);
                nodes += ts.nodesVisited;
                ++probes;
            }
            c.nodesPerQuery = double(nodes) / probes;
            return c;
        },
        [&](std::size_t k, const Cell &c) {
            const unsigned tris = tri_counts[k / 2];
            const bool sah = k % 2 == 0;
            t.row({std::to_string(tris), sah ? "SAH" : "median",
                   si::TablePrinter::num(c.nodesPerQuery, 1),
                   std::to_string(c.base.cycles),
                   si::TablePrinter::pct(
                       si::speedupPct(c.base, c.si))});
            std::fprintf(stderr, "  [tris=%u %s done]\n", tris,
                         sah ? "sah" : "median");
        });
    t.print();

    bj.table(t);
    return bj.finish() ? 0 : 1;
}
