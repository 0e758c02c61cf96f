/**
 * @file
 * Discussion / Related Work VII-A comparison: megakernel (baseline and
 * with Subwarp Interleaving) versus the *software* wavefront
 * alternative (stream-compacted, fully convergent per-material shade
 * kernels — Laine et al.).
 *
 * This is the paper's "viable near-term algorithmic workarounds"
 * argument quantified: where the wavefront restructuring captures the
 * same divergence-serialization losses in software, a hardware feature
 * like SI is harder to justify — at the cost of kernel-launch,
 * compaction, and state round-trip overheads that SI avoids.
 */

#include "bench_common.hh"

#include "rt/wavefront.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("comparison_wavefront", argc, argv);

    si::TablePrinter t("Megakernel vs megakernel+SI vs wavefront "
                       "(cycles, lat=600)");
    t.header({"trace", "megakernel", "megakernel+SI", "wavefront",
              "SI speedup", "wavefront speedup", "wf launches"});

    std::vector<double> si_gains, wf_gains;
    // Wavefront pipelines live on large in-flight ray batches; give
    // both implementations the same 8K-ray frame.
    const unsigned frameWarps = 256;

    const std::vector<si::AppId> &ids = si::allApps();
    struct AppCell
    {
        si::GpuResult base, si;
        si::WavefrontResult wf;
    };
    si::parallel::mapIndexed<AppCell>(
        bj.jobs(), ids.size(),
        [&](std::size_t i) {
            si::AppBuild build = si::appBuildConfig(ids[i]);
            build.kernel.numWarps = frameWarps;
            auto scene = si::makeScene(build.scene);

            si::GpuConfig base = bj.baseline();
            base.rtc = build.rtc;

            // Megakernel: baseline and SI.
            const si::Workload mk = si::buildApp(ids[i], frameWarps);
            AppCell c;
            c.base = si::runWorkload(mk, bj.baseline());
            c.si = si::runWorkload(mk,
                                   si::withSi(bj.baseline(),
                                              si::bestSiConfigPoint()));

            // Wavefront pipeline over the same scene/shaders.
            si::WavefrontConfig wf;
            wf.kernel = build.kernel;
            c.wf = si::runWavefront(wf, scene, base);
            return c;
        },
        [&](std::size_t i, const AppCell &c) {
            const double si_gain = si::speedupPct(c.base, c.si);
            const double wf_gain =
                (double(c.base.cycles) / double(c.wf.totalCycles) -
                 1.0) *
                100.0;
            si_gains.push_back(si_gain);
            wf_gains.push_back(wf_gain);

            t.row({si::appName(ids[i]), std::to_string(c.base.cycles),
                   std::to_string(c.si.cycles),
                   std::to_string(c.wf.totalCycles),
                   si::TablePrinter::pct(si_gain),
                   si::TablePrinter::pct(wf_gain),
                   std::to_string(c.wf.kernelLaunches)});
            std::fprintf(stderr, "  [%s done]\n", si::appName(ids[i]));
        });
    t.row({"mean", "-", "-", "-",
           si::TablePrinter::pct(si::mean(si_gains)),
           si::TablePrinter::pct(si::mean(wf_gains)), "-"});
    t.print();

    std::printf("\nwavefront > 0%% means the software restructuring "
                "alone beats the divergent megakernel,\nwhich is the "
                "paper's 'algorithmic workaround' headwind for "
                "productizing SI.\n");

    // ---- part 2: batch-size sweep ----
    // Wavefront economics depend on queue sizes: per-material queues
    // must be deep enough to fill the machine. Sweep the in-flight ray
    // batch on the shading-heaviest trace.
    si::TablePrinter t2("BFV1: batch-size sweep (cycles)");
    t2.header({"rays in flight", "megakernel", "megakernel+SI",
               "wavefront", "wavefront vs megakernel"});
    const std::vector<unsigned> batches = {64u, 256u, 1024u};
    si::parallel::mapIndexed<AppCell>(
        bj.jobs(), batches.size(),
        [&](std::size_t i) {
            const unsigned warps = batches[i];
            si::AppBuild build = si::appBuildConfig(si::AppId::BFV1);
            build.kernel.numWarps = warps;
            auto scene = si::makeScene(build.scene);

            si::GpuConfig base = bj.baseline();
            base.rtc = build.rtc;

            const si::Workload mk =
                si::buildApp(si::AppId::BFV1, warps);
            AppCell c;
            c.base = si::runWorkload(mk, bj.baseline());
            c.si = si::runWorkload(mk,
                                   si::withSi(bj.baseline(),
                                              si::bestSiConfigPoint()));

            si::WavefrontConfig wf;
            wf.kernel = build.kernel;
            c.wf = si::runWavefront(wf, scene, base);
            return c;
        },
        [&](std::size_t i, const AppCell &c) {
            t2.row({std::to_string(batches[i] * 32),
                    std::to_string(c.base.cycles),
                    std::to_string(c.si.cycles),
                    std::to_string(c.wf.totalCycles),
                    si::TablePrinter::pct(
                        (double(c.base.cycles) /
                             double(c.wf.totalCycles) -
                         1.0) *
                        100.0)});
            std::fprintf(stderr, "[batch %u done]\n", batches[i] * 32);
        });
    t2.print();

    bj.table(t);
    bj.table(t2);
    bj.metric("mean_speedup_pct/si", si::mean(si_gains));
    bj.metric("mean_speedup_pct/wavefront", si::mean(wf_gains));
    return bj.finish() ? 0 : 1;
}
