#include "suites.hh"

#include <bit>
#include <memory>
#include <stdexcept>

#include "common/rng.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "rt/apps.hh"
#include "rt/microbench.hh"

namespace perfbench {

namespace {

using si::Rng;

// ---- rt-sweep: the Figure 12a grid ----

/** L1 miss latency of the Figure 12a sweep (Table I). */
constexpr si::Cycle rtSweepMissLatency = 600;

/**
 * Largest per-axis camera offset, as a share of the scene extent. A
 * nonzero seed renders a different frame of each calibrated scene: the
 * camera moves by up to this much, so every primary ray, hit and
 * shader mix changes while each app's work stays within a few percent.
 */
constexpr float cameraJitter = 0.01f;

struct AppInput
{
    si::AppBuild build;
    si::Vec3 eyeOffset; ///< added to the scene camera's eye
};

SuiteBuilder
rtSweep(std::uint64_t seed)
{
    std::vector<AppInput> inputs;
    for (std::size_t i = 0; i < si::allApps().size(); ++i) {
        AppInput in{si::appBuildConfig(si::allApps()[i]), {}};
        if (seed) {
            Rng rng(Rng::streamSeed(seed, i));
            const float r = cameraJitter * in.build.scene.extent;
            in.eyeOffset = {rng.uniform(-r, r), rng.uniform(-r, r),
                            rng.uniform(-r, r)};
        }
        inputs.push_back(in);
    }
    return [inputs](Tracer *tracer) {
        Suite s;
        const si::GpuConfig base = si::baselineConfig(rtSweepMissLatency);
        for (const AppInput &in : inputs) {
            const si::AppBuild &b = in.build;
            std::shared_ptr<si::Scene> scene;
            {
                Scope span(tracer, "rt.scene_build");
                scene = si::makeScene(b.scene);
            }
            scene->eye = scene->eye + in.eyeOffset;
            {
                Scope span(tracer, "rt.kernel_gen");
                s.workloads.push_back(si::buildMegakernel(b.kernel, scene));
            }
            s.workloads.back().rtc = b.rtc;

            const std::size_t w = s.workloads.size() - 1;
            const int app = int(w);
            s.cells.push_back({b.kernel.name + "/baseline", w, base, false,
                               0, app, -1});
            const auto &points = si::siConfigPoints();
            for (std::size_t p = 0; p < points.size(); ++p) {
                s.cells.push_back({b.kernel.name + "/" + points[p].label, w,
                                   si::withSi(base, points[p]), false, 0,
                                   app, int(p)});
            }
        }
        return s;
    };
}

// ---- memlat-ff: load chains in the shape of kernels/memlat.sasm ----

struct Chain
{
    unsigned trips;
    unsigned stride; ///< bytes between a lane's successive loads
};

constexpr unsigned memlatChains = 4;
constexpr unsigned memlatTrips = 64;
constexpr unsigned memlatWarps = 64; ///< every warp slot of the 2 SMs
const si::Cycle memlatLatencies[] = {900, 2000};

/**
 * One fresh-address LDG per trip with a dependent FADD, exactly the
 * memlat.sasm loop. Each lane owns a disjoint power-of-two span large
 * enough for all its trips, so no load ever hits in L1D.
 */
std::string
chainSource(const std::string &name, const Chain &c)
{
    const unsigned shift =
        unsigned(std::bit_width(std::bit_ceil(c.trips * c.stride) - 1));
    return ".kernel " + name + "\n.regs 16\n"
           "    S2R R0, TID\n"
           "    SHL R1, R0, " + std::to_string(shift) + "\n"
           "    MOV R2, 0x20000000\n"
           "    IADD R1, R1, R2\n"
           "    MOV R10, 0.0\n"
           "    MOV R3, " + std::to_string(c.trips) + "\n"
           "loop:\n"
           "    LDG R4, [R1+0] &wr=sb0\n"
           "    FADD R10, R10, R4 &req=sb0\n"
           "    IADD R1, R1, " + std::to_string(c.stride) + "\n"
           "    IADD R3, R3, -1\n"
           "    ISETP.GT P0, R3, 0\n"
           "    @P0 BRA loop\n"
           "    EXIT\n";
}

SuiteBuilder
memlatFf(std::uint64_t seed)
{
    // Seed 0: memlat.sasm's stride at the benchmark's trip and warp
    // counts. Other seeds pair the trip counts (+d, -d) and pick each
    // chain's stride; every chain keeps all 64 warps, so the sweep's
    // total load count is the same for every seed.
    std::vector<Chain> chains(memlatChains, Chain{memlatTrips, 512});
    if (seed) {
        Rng rng(seed);
        const unsigned strides[] = {128, 256, 512};
        for (unsigned i = 0; i < memlatChains; i += 2) {
            const auto d = unsigned(rng.range(0, 4));
            chains[i].trips = memlatTrips + d;
            chains[i + 1].trips = memlatTrips - d;
        }
        for (Chain &c : chains)
            c.stride = strides[rng.below(3)];
    }
    return [chains](Tracer *tracer) {
        Suite s;
        for (std::size_t i = 0; i < chains.size(); ++i) {
            const std::string name = "memlat" + std::to_string(i);
            si::Workload wl;
            wl.name = name;
            {
                Scope span(tracer, "isa.assemble");
                wl.program = si::assembleOrDie(chainSource(name, chains[i]));
            }
            wl.launch = {memlatWarps, 4};
            wl.memory = std::make_shared<si::Memory>();
            s.workloads.push_back(std::move(wl));
        }
        for (si::Cycle lat : memlatLatencies) {
            const si::GpuConfig config = si::baselineConfig(lat);
            for (std::size_t w = 0; w < s.workloads.size(); ++w) {
                const std::string label = s.workloads[w].name + "/lat" +
                                          std::to_string(lat);
                const std::size_t bare = s.cells.size();
                s.cells.push_back({label, w, config, false, 0, -1, -1});
                s.cells.push_back(
                    {label + "/sampled", w, config, true, bare, -1, -1});
            }
        }
        return s;
    };
}

// ---- subwarp-micro: the Figure 11 microbenchmark ----

/**
 * Bytes of the data slices a Figure 11 configuration reads: one
 * accessesPerCase-line slice per (warp, case, iteration).
 */
std::size_t
microDataBytes(const si::MicrobenchConfig &mc)
{
    return std::size_t(mc.numWarps) * si::divergenceFactor(mc) *
           mc.iterations * mc.accessesPerCase * 128;
}

SuiteBuilder
subwarpMicro(std::uint64_t seed)
{
    // Every seed runs the Figure 11 defaults and writes every word of
    // the data slices, so each seed's set-up does the same work. Seed 0
    // writes the calibrated all-zero data; other seeds write
    // seed-derived values, which the reduction consumes without any
    // effect on timing.
    std::vector<si::MicrobenchConfig> configs;
    std::vector<std::vector<std::uint32_t>> data;
    Rng rng(seed);
    for (unsigned size : {16u, 8u, 4u, 2u, 1u}) {
        si::MicrobenchConfig mc;
        mc.subwarpSize = size;
        configs.push_back(mc);
        data.emplace_back(microDataBytes(mc) / 4, 0u);
        if (seed) {
            for (std::uint32_t &word : data.back())
                word = std::bit_cast<std::uint32_t>(rng.uniform());
        }
    }
    return [configs, data](Tracer *tracer) {
        Suite s;
        const si::GpuConfig base = si::baselineConfig();
        const si::GpuConfig best =
            si::withSi(base, si::bestSiConfigPoint());
        for (std::size_t i = 0; i < configs.size(); ++i) {
            {
                Scope span(tracer, "rt.kernel_gen");
                s.workloads.push_back(si::buildMicrobench(configs[i]));
            }
            si::Memory &mem = *s.workloads.back().memory;
            for (std::size_t k = 0; k < data[i].size(); ++k)
                mem.write(si::layout::dataBufBase + 4 * k, data[i][k]);

            const std::size_t w = s.workloads.size() - 1;
            const std::string label =
                "sw" + std::to_string(configs[i].subwarpSize);
            s.cells.push_back({label + "/baseline", w, base, false, 0,
                               -1, -1});
            s.cells.push_back({label + "/" + si::bestSiConfigPoint().label,
                               w, best, false, 0, -1, -1});
        }
        return s;
    };
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"rt-sweep", "memlat-ff",
                                                   "subwarp-micro"};
    return names;
}

SuiteBuilder
makeSuiteBuilder(const std::string &workload, std::uint64_t seed)
{
    if (workload == "rt-sweep")
        return rtSweep(seed);
    if (workload == "memlat-ff")
        return memlatFf(seed);
    if (workload == "subwarp-micro")
        return subwarpMicro(seed);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
