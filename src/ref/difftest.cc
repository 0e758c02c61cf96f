#include "ref/difftest.hh"

#include <utility>

#include "core/gpu.hh"
#include "core/retire_trace.hh"
#include "verify/memdep.hh"

namespace si {

namespace {

/** Compare one finished cycle-model run against the reference. Returns
 *  "" on agreement, else a description of the first divergence. */
std::string
comparePoint(const RefResult &ref, const Memory &ref_mem,
             const GpuResult &res, const Memory &mem, Gpu &gpu,
             const RetireTraceCollector &col, const Program &prog)
{
    if (ref.deadlock) {
        if (res.ok()) {
            return "reference deadlocks (" + ref.error +
                   ") but the cycle model completed";
        }
        if (res.status.kind != ErrorKind::BarrierDeadlock) {
            return "reference deadlocks but the cycle model failed "
                   "differently: " +
                   res.status.summary();
        }
        return ""; // both sides agree the kernel deadlocks
    }

    if (!res.ok()) {
        return "cycle model failed: " + res.status.summary();
    }

    Addr diff_addr = 0;
    if (ref_mem.firstDifference(mem, diff_addr)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      (unsigned long long)diff_addr);
        return "memory differs at " + std::string(buf) + ": ref=" +
               std::to_string(ref_mem.read(diff_addr)) + " model=" +
               std::to_string(mem.read(diff_addr));
    }

    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        Sm &sm = gpu.sm(s);
        for (std::size_t i = 0; i < sm.numWarps(); ++i) {
            const Warp &w = sm.warpAt(i);
            if (w.logicalId >= ref.warps.size())
                return "warp logicalId out of range";
            const RefWarpResult &rw = ref.warps[w.logicalId];
            const std::string tag =
                "warp " + std::to_string(w.logicalId);

            for (unsigned r = 0; r < prog.numRegs(); ++r) {
                for (unsigned lane = 0; lane < warpSize; ++lane) {
                    const std::uint32_t a = rw.reg(lane, RegIndex(r));
                    const std::uint32_t b = w.reg(lane, RegIndex(r));
                    if (a != b) {
                        return tag + " lane " + std::to_string(lane) +
                               " R" + std::to_string(r) + ": ref=" +
                               std::to_string(a) + " model=" +
                               std::to_string(b);
                    }
                }
            }
            for (unsigned p = 0; p < numPredicates; ++p) {
                for (unsigned lane = 0; lane < warpSize; ++lane) {
                    if (rw.predicate(lane, PredIndex(p)) !=
                        w.predicate(lane, PredIndex(p))) {
                        return tag + " lane " + std::to_string(lane) +
                               " P" + std::to_string(p) + " differs";
                    }
                }
            }

            const WarpRetireTrace &mt = col.warp(w.id());
            for (unsigned lane = 0; lane < warpSize; ++lane) {
                const auto &a = rw.trace[lane];
                const auto &b = mt[lane];
                const std::size_t n = std::min(a.size(), b.size());
                for (std::size_t k = 0; k < n; ++k) {
                    if (!(a[k] == b[k])) {
                        return tag + " lane " + std::to_string(lane) +
                               " trace[" + std::to_string(k) +
                               "]: ref=(pc " + std::to_string(a[k].pc) +
                               (a[k].executed ? ", exec" : ", pred-off") +
                               ") model=(pc " + std::to_string(b[k].pc) +
                               (b[k].executed ? ", exec" : ", pred-off") +
                               ")";
                    }
                }
                if (a.size() != b.size()) {
                    return tag + " lane " + std::to_string(lane) +
                           " trace length: ref=" +
                           std::to_string(a.size()) + " model=" +
                           std::to_string(b.size());
                }
            }
        }
    }
    return "";
}

} // namespace

std::vector<DiffPoint>
diffMatrix()
{
    std::vector<DiffPoint> pts;
    for (unsigned slots : {2u, 4u, 8u}) {
        for (bool si : {false, true}) {
            GpuConfig cfg;
            cfg.numSms = 1;
            cfg.warpSlotsPerPb = slots;
            cfg.siEnabled = si;
            cfg.yieldEnabled = si;
            cfg.trigger = SelectTrigger::HalfStalled;
            pts.push_back({std::string(si ? "si" : "base") + "-slots" +
                               std::to_string(slots),
                           cfg});
        }
    }
    return pts;
}

RaceCheckResult
raceCheckProgram(const Program &program, const DiffOptions &opts)
{
    RaceCheckResult out;
    const MemDepResult dep = analyzeMemDep(program);
    out.staticPairs = dep.pairs.size();
    out.staticLaneShared = dep.laneShared.size();

    for (const DiffPoint &pt : diffMatrix()) {
        Memory mem = makeInputImage(opts.imageSeed);
        GpuConfig cfg = pt.config;
        cfg.fastForward = opts.fastForward;
        RaceDetector det;
        cfg.raceHooks = &det;

        Gpu gpu(cfg, mem);
        const GpuResult res = gpu.run(
            program, LaunchParams{opts.numWarps, opts.warpsPerCta});
        if (!res.ok() && out.runError.empty())
            out.runError = pt.name + ": " + res.status.summary();

        for (const RaceReport &r : det.races()) {
            bool seen = false;
            for (const RaceReport &have : out.dynamicRaces) {
                if (have.pcA == r.pcA && have.pcB == r.pcB &&
                    have.storeStore == r.storeStore) {
                    seen = true;
                    break;
                }
            }
            if (!seen)
                out.dynamicRaces.push_back(r);
        }
    }

    for (const RaceReport &r : out.dynamicRaces) {
        if (!dep.mayRace(r.pcA, r.pcB))
            out.unsound.push_back(r);
    }
    return out;
}

DiffResult
diffProgram(const Program &program, const DiffOptions &opts)
{
    DiffResult out;

    Memory ref_mem = makeInputImage(opts.imageSeed);
    const RefResult ref = interpret(
        program, ref_mem, RefLaunch{opts.numWarps, opts.warpsPerCta});
    if (!ref.ok && !ref.deadlock) {
        out.agree = false;
        out.point = "reference";
        out.detail = ref.error;
        return out;
    }

    for (const DiffPoint &pt : diffMatrix()) {
        Memory mem = makeInputImage(opts.imageSeed);
        GpuConfig cfg = pt.config;
        cfg.fastForward = opts.fastForward;
        RetireTraceCollector col;
        cfg.traceSink = &col;

        FaultInjector injector(
            FaultSpec{opts.injectKind, 1, opts.injectSeed});
        if (opts.inject) {
            cfg.faultHook = injector.hook();
            cfg.checkInvariants = true;
        }

        Gpu gpu(cfg, mem);
        const GpuResult res = gpu.run(
            program, LaunchParams{opts.numWarps, opts.warpsPerCta});
        if (opts.inject)
            out.faultFired |= injector.fired();

        const std::string detail =
            comparePoint(ref, ref_mem, res, mem, gpu, col, program);
        if (!detail.empty()) {
            out.agree = false;
            out.point = pt.name;
            out.detail = detail;
            return out;
        }
    }
    return out;
}

DiffResult
diffSeed(std::uint64_t seed, const DiffOptions &opts,
         const KernelGenOptions &gen)
{
    return diffProgram(generateKernel(seed, gen), opts);
}

Program
shrinkProgram(const Program &program,
              const std::function<bool(const Program &)> &fails)
{
    Program cur = program;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t pc = 0; pc < cur.size();) {
            Program cand = cur.withoutInstr(pc);
            if (cand.check().empty() && fails(cand)) {
                cur = std::move(cand);
                changed = true;
                // Same pc now holds the next instruction — retry it.
            } else {
                ++pc;
            }
        }
    }
    return cur;
}

} // namespace si
