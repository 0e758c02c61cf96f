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

#include <map>

#include "rt/wavefront.hh"

int
main(int argc, char **argv)
{
    si::bench::BenchJson bj("comparison_wavefront", argc, argv);

    // Part 1 renders every trace at the same 8K-ray frame: wavefront
    // pipelines live on large in-flight ray batches. Part 2 sweeps the
    // in-flight batch on the shading-heaviest trace, since per-material
    // queues must be deep enough to fill the machine. Its rows are
    // declared in batch order, the suite's BFV1 row among them.
    const unsigned frameWarps = 256;
    struct Frame
    {
        si::MegakernelConfig kernel;
        si::WavefrontResult wf; ///< written by the frame's wavefront cell
    };
    std::map<std::string, Frame> frames; // by row name
    si::bench::Grid mega(bj);
    auto frame = [&](const std::string &name, si::AppId id,
                     unsigned warps) {
        si::MegakernelConfig &kernel = frames[name].kernel;
        kernel = si::appBuildConfig(id).kernel;
        kernel.numWarps = warps;
        mega.row(name, [id, warps] { return si::buildApp(id, warps); });
    };
    frame("BFV1 x64", si::AppId::BFV1, 64);
    for (si::AppId id : si::allApps())
        frame(si::appName(id), id, frameWarps);
    frame("BFV1 x1024", si::AppId::BFV1, 1024);
    mega.column("megakernel", bj.baseline());
    mega.column("megakernel+SI",
                si::withSi(bj.baseline(), si::bestSiConfigPoint()));
    mega.run();

    // The wavefront pipeline renders each healthy row's frame: the same
    // scene, shaders and rays, so it reuses the megakernel's scene.
    si::bench::Grid wave(bj);
    for (std::size_t r : mega.rows())
        wave.row(mega.name(r), [&mega, r] { return mega.workload(r); });
    wave.column("wavefront", bj.baseline());
    wave.simulateWith(
        [&frames](const si::Workload &mk, si::GpuConfig config) {
            Frame &f = frames.at(mk.name);
            config.rtc = mk.rtc;
            f.wf = si::runWavefront({f.kernel}, mk, config);
            si::GpuResult result;
            result.cycles = f.wf.totalCycles;
            return result;
        });
    wave.run();

    si::TablePrinter t("Megakernel vs megakernel+SI vs wavefront "
                       "(cycles, lat=600)");
    t.header({"trace", "megakernel", "megakernel+SI", "wavefront",
              "SI speedup", "wavefront speedup", "wf launches"});
    si::TablePrinter t2("BFV1: batch-size sweep (cycles)");
    t2.header({"rays in flight", "megakernel", "megakernel+SI",
               "wavefront", "wavefront vs megakernel"});
    std::vector<double> si_gains, wf_gains;
    for (std::size_t w : wave.rows()) {
        const std::size_t r = mega.rows()[w];
        const Frame &f = frames.at(mega.name(r));
        const std::string base = std::to_string(mega.result(r, 0).cycles);
        const std::string si = std::to_string(mega.result(r, 1).cycles);
        const std::string wf = std::to_string(f.wf.totalCycles);
        const double wf_gain =
            si::speedupPct(mega.result(r, 0), wave.result(w, 0));
        if (f.kernel.name == si::appName(si::AppId::BFV1)) {
            t2.row({std::to_string(f.kernel.numWarps * 32), base, si, wf,
                    si::TablePrinter::pct(wf_gain)});
        }
        if (f.kernel.numWarps != frameWarps)
            continue;
        si_gains.push_back(mega.speedup(r, 0, 1));
        wf_gains.push_back(wf_gain);
        t.row({mega.name(r), base, si, wf,
               si::TablePrinter::pct(si_gains.back()),
               si::TablePrinter::pct(wf_gain),
               std::to_string(f.wf.kernelLaunches)});
    }
    t.row({"mean", "-", "-", "-",
           si::TablePrinter::pct(si::mean(si_gains)),
           si::TablePrinter::pct(si::mean(wf_gains)), "-"});
    t.print();

    std::printf("\nwavefront > 0%% means the software restructuring "
                "alone beats the divergent megakernel,\nwhich is the "
                "paper's 'algorithmic workaround' headwind for "
                "productizing SI.\n");
    t2.print();

    bj.table(t);
    bj.table(t2);
    bj.metric("mean_speedup_pct/si", si::mean(si_gains));
    bj.metric("mean_speedup_pct/wavefront", si::mean(wf_gains));
    return bj.finish() ? 0 : 1;
}
