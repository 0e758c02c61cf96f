#include "snapshot/replay.hh"

#include <cstdio>
#include <memory>
#include <string>

#include "core/retire_trace.hh"
#include "snapshot/snapshot.hh"

namespace si {

namespace {

/** One leg of the validation: a machine, its memory, and its outputs. */
struct Leg
{
    Memory memory;
    RetireTraceCollector traces;
    GpuResult result;
    std::unique_ptr<Gpu> gpu;
};

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * First architectural or statistical difference between two finished
 * legs, or empty when indistinguishable. @p what names the comparison
 * ("run-twice", "replay") in the report.
 */
std::string
compareLegs(const std::string &what, const Leg &a, const Leg &b)
{
    if (a.result.status.kind != b.result.status.kind) {
        return what + ": end status differs (" +
               errorKindName(a.result.status.kind) + " vs " +
               errorKindName(b.result.status.kind) + ")";
    }
    if (a.result.cycles != b.result.cycles) {
        return what + ": runtime differs (" +
               std::to_string(a.result.cycles) + " vs " +
               std::to_string(b.result.cycles) + " cycles)";
    }

    Addr diff_addr = 0;
    if (a.memory.firstDifference(b.memory, diff_addr)) {
        return what + ": final memory differs at " + hex(diff_addr) +
               " (" + hex(a.memory.read(diff_addr)) + " vs " +
               hex(b.memory.read(diff_addr)) + ")";
    }

    for (unsigned s = 0; s < a.gpu->numSms(); ++s) {
        Sm &sm_a = a.gpu->sm(s);
        Sm &sm_b = b.gpu->sm(s);
        if (!(sm_a.stats() == sm_b.stats()))
            return what + ": sm " + std::to_string(s) +
                   " statistics differ";
        if (sm_a.numWarps() != sm_b.numWarps())
            return what + ": sm " + std::to_string(s) +
                   " warp population differs";
        for (std::size_t i = 0; i < sm_a.numWarps(); ++i) {
            Warp &wa = sm_a.warpAt(i);
            Warp &wb = sm_b.warpAt(i);
            if (wa.live() != wb.live())
                return what + ": warp " + std::to_string(wa.id()) +
                       " live mask differs";
            const unsigned num_regs = wa.program().numRegs();
            for (unsigned lane = 0; lane < warpSize; ++lane) {
                for (unsigned reg = 0; reg < num_regs; ++reg) {
                    if (wa.reg(lane, RegIndex(reg)) !=
                        wb.reg(lane, RegIndex(reg))) {
                        return what + ": warp " +
                               std::to_string(wa.id()) + " lane " +
                               std::to_string(lane) + " R" +
                               std::to_string(reg) + " differs (" +
                               hex(wa.reg(lane, RegIndex(reg))) +
                               " vs " +
                               hex(wb.reg(lane, RegIndex(reg))) + ")";
                    }
                }
                for (unsigned p = 0; p < numPredicates; ++p) {
                    if (wa.predicate(lane, PredIndex(p)) !=
                        wb.predicate(lane, PredIndex(p))) {
                        return what + ": warp " +
                               std::to_string(wa.id()) + " lane " +
                               std::to_string(lane) + " P" +
                               std::to_string(p) + " differs";
                    }
                }
            }
        }
    }

    if (!(a.traces.traces() == b.traces.traces()))
        return what + ": per-lane retirement traces differ";

    return "";
}

} // namespace

ReplayCheckResult
validateDeterministicReplay(const GpuConfig &config,
                            const std::vector<KernelLaunch> &kernels,
                            const ReplayCheckOptions &opts)
{
    ReplayCheckResult out;

    auto makeLeg = [&](const GpuConfig &leg_config) {
        auto leg = std::make_unique<Leg>();
        if (opts.initMemory)
            opts.initMemory(leg->memory);
        GpuConfig cfg = leg_config;
        cfg.traceSink = &leg->traces;
        leg->gpu = std::make_unique<Gpu>(cfg, leg->memory, opts.scene);
        return leg;
    };

    // Leg A: fresh, to learn the runtime.
    GpuConfig base = config;
    base.checkpointHook = nullptr;
    base.checkpointInterval = 0;
    auto leg_a = makeLeg(base);
    leg_a->result = leg_a->gpu->runMulti(kernels);
    out.cycles = leg_a->result.cycles;

    const Cycle ckpt = opts.checkpointCycle
                           ? opts.checkpointCycle
                           : std::max<Cycle>(1, leg_a->result.cycles / 2);

    // Leg B: fresh again, freezing a one-shot checkpoint at `ckpt`
    // together with the retirement traces accumulated so far (the
    // resumed leg continues appending to a copy of them).
    std::string snapshot;
    RetireTraceCollector traces_at_ckpt;
    auto leg_b = std::make_unique<Leg>();
    if (opts.initMemory)
        opts.initMemory(leg_b->memory);
    {
        GpuConfig cfg = base;
        cfg.traceSink = &leg_b->traces;
        cfg.checkpointInterval = ckpt;
        Leg *raw = leg_b.get();
        cfg.checkpointHook = [&snapshot, &traces_at_ckpt,
                              raw](const Gpu &gpu, Cycle) {
            if (!snapshot.empty())
                return; // one-shot: later multiples are ignored
            SnapshotWriter w;
            gpu.save(w);
            snapshot = w.finish();
            traces_at_ckpt = raw->traces;
        };
        leg_b->gpu =
            std::make_unique<Gpu>(cfg, leg_b->memory, opts.scene);
    }
    leg_b->result = leg_b->gpu->runMulti(kernels);

    // Running the same launch twice must already agree.
    out.detail = compareLegs("run-twice", *leg_a, *leg_b);
    if (!out.detail.empty())
        return out;

    if (snapshot.empty()) {
        // Kernel retired before the checkpoint could fire (or the run
        // failed first). Run-twice agreement is all we can assert.
        out.deterministic = true;
        out.checkpointTaken = false;
        return out;
    }
    out.checkpointTaken = true;
    out.checkpointCycle = ckpt;

    // Leg C: a brand-new machine restored from B's checkpoint. Memory
    // starts EMPTY — restore must rebuild the full image — and the
    // trace collector starts from the checkpoint-time copy.
    auto leg_c = makeLeg(base);
    leg_c->traces = traces_at_ckpt;
    leg_c->result = leg_c->gpu->runMulti(kernels, &snapshot);
    if (leg_c->result.status.kind == ErrorKind::Snapshot) {
        out.detail =
            "replay: restore failed: " + leg_c->result.status.summary();
        return out;
    }

    out.detail = compareLegs("replay", *leg_a, *leg_c);
    out.deterministic = out.detail.empty();
    return out;
}

} // namespace si
