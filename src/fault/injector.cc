#include "fault/injector.hh"

#include <algorithm>
#include <cstdio>

#include "trace/events.hh"

namespace si {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ScoreboardCorruption:
        return "scoreboard-corruption";
      case FaultKind::DroppedWriteback:
        return "dropped-writeback";
      case FaultKind::BarrierMaskCorruption:
        return "barrier-mask-corruption";
    }
    return "?";
}

const std::vector<std::pair<std::string, FaultKind>> &
faultKindCliNames()
{
    static const std::vector<std::pair<std::string, FaultKind>> names = {
        {"scoreboard", FaultKind::ScoreboardCorruption},
        {"dropwb", FaultKind::DroppedWriteback},
        {"barrier", FaultKind::BarrierMaskCorruption},
    };
    return names;
}

Cycle
FaultInjector::onCycle(Gpu &gpu, Cycle now)
{
    if (fired_ || now < spec_.earliestCycle)
        return fired_ ? invalidCycle : spec_.earliestCycle;
    switch (spec_.kind) {
      case FaultKind::ScoreboardCorruption:
        tryScoreboard(gpu, now);
        break;
      case FaultKind::DroppedWriteback:
        tryDropWriteback(gpu, now);
        break;
      case FaultKind::BarrierMaskCorruption:
        tryBarrierMask(gpu, now);
        break;
    }

    // Stamp the corruption into the trace timeline so a campaign's
    // livelock report carries the moment of injection. The fired_ guard
    // above makes this fire exactly once.
    if (fired_) {
        if (TraceSink *sink = gpu.config().traceSink) {
            TraceEvent ev;
            ev.cycle = now;
            ev.arg = std::uint32_t(spec_.kind);
            ev.kind = TraceEventKind::FaultInject;
            sink->record(ev);
        }
    }
    return fired_ ? invalidCycle : spec_.earliestCycle;
}

void
FaultInjector::tryScoreboard(Gpu &gpu, Cycle now)
{
    // Victims: (sm, warp, lane, sb) with an outstanding count — the
    // extra increment then has no matching writeback.
    struct Victim
    {
        unsigned sm, warp, lane, sb;
    };
    std::vector<Victim> victims;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        Sm &sm = gpu.sm(s);
        for (std::size_t w = 0; w < sm.numWarps(); ++w) {
            const Warp &warp = sm.warpAt(w);
            if (warp.done())
                continue;
            const ScoreboardFile &sbf = warp.scoreboards();
            for (unsigned lane : lanesOf(warp.live())) {
                for (unsigned sb = 0; sb < ScoreboardFile::numSb; ++sb) {
                    if (sbf.busy(SbIndex(sb)).test(lane))
                        victims.push_back({s, unsigned(w), lane, sb});
                }
            }
        }
    }
    if (victims.empty())
        return;

    const Victim &v = victims[rng_.below(victims.size())];
    Warp &warp = gpu.sm(v.sm).warpAt(v.warp);
    ThreadMask mask;
    mask.set(v.lane);
    warp.scoreboards().incr(mask, SbIndex(v.sb));

    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "cycle %llu: phantom increment of sb%u lane %u "
                  "(sm%u warp %u)",
                  static_cast<unsigned long long>(now), v.sb, v.lane,
                  v.sm, warp.id());
    description_ = buf;
    fired_ = true;
}

void
FaultInjector::tryDropWriteback(Gpu &gpu, Cycle now)
{
    std::vector<unsigned> candidates;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        if (gpu.sm(s).hasPendingWritebacks())
            candidates.push_back(s);
    }
    if (candidates.empty())
        return;

    const unsigned s = candidates[rng_.below(candidates.size())];
    description_ = "cycle " + std::to_string(now) +
                   ": dropped writeback " +
                   gpu.sm(s).dropPendingWriteback();
    fired_ = true;
}

void
FaultInjector::tryBarrierMask(Gpu &gpu, Cycle now)
{
    struct Victim
    {
        unsigned sm, warp, lane;
        BarIndex bar;
    };
    std::vector<Victim> victims;
    for (unsigned s = 0; s < gpu.numSms(); ++s) {
        Sm &sm = gpu.sm(s);
        for (std::size_t w = 0; w < sm.numWarps(); ++w) {
            const Warp &warp = sm.warpAt(w);
            if (warp.done())
                continue;
            for (unsigned lane :
                 lanesOf(warp.lanesInState(ThreadState::Blocked))) {
                const BarIndex b = warp.blockedOn(lane);
                if (b != barNone && warp.barrier(b).test(lane))
                    victims.push_back({s, unsigned(w), lane, b});
            }
        }
    }
    if (victims.empty())
        return;

    const Victim &v = victims[rng_.below(victims.size())];
    Warp &warp = gpu.sm(v.sm).warpAt(v.warp);
    ThreadMask mask;
    mask.set(v.lane);
    warp.setBarrier(v.bar, warp.barrier(v.bar) - mask);

    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "cycle %llu: lane %u erased from barrier B%u "
                  "participation (sm%u warp %u)",
                  static_cast<unsigned long long>(now), v.lane, v.bar,
                  v.sm, warp.id());
    description_ = buf;
    fired_ = true;
}

std::vector<CampaignRun>
runCampaign(const Program &program, const LaunchParams &launch,
            const Memory &memory, GpuConfig config,
            const std::vector<FaultSpec> &specs, const Bvh *scene)
{
    // Harden: every fault class needs its detector armed.
    config.checkInvariants = true;
    if (config.livelockCycles == 0)
        config.livelockCycles = 50'000;

    std::vector<CampaignRun> runs;
    runs.reserve(specs.size());
    for (const FaultSpec &spec : specs) {
        FaultInjector injector(spec);
        GpuConfig run_config = config;
        run_config.faultHook = injector.hook();
        Memory mem = memory; // fresh copy per run

        CampaignRun run;
        run.spec = spec;
        run.result = simulate(run_config, mem, program, launch, scene);
        run.injected = injector.fired();
        run.description = injector.description();
        runs.push_back(std::move(run));
    }
    return runs;
}

} // namespace si
