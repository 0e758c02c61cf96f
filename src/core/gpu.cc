#include "core/gpu.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <type_traits>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"
#include "trace/events.hh"

namespace si {

namespace {

/** Smallest multiple of @p step at or after @p now (step != 0). */
Cycle
nextBoundary(Cycle now, std::uint64_t step)
{
    return (now + step - 1) / step * step;
}

/**
 * configFingerprint's visitor: every Fingerprint::Hash row, integers as
 * u64, floats by their bits, strings as bytes.
 */
struct RowHasher
{
    Fnv1a h;

    template <class T>
    void
    row(const char *key, const T &member, std::type_identity_t<T>,
        std::type_identity_t<T>, Fingerprint fp = Fingerprint::Hash)
    {
        row(key, member, fp);
    }

    template <class T>
    void
    row(const char *, const T &member, Fingerprint fp = Fingerprint::Hash)
    {
        if (fp == Fingerprint::Skip)
            return;
        if constexpr (std::is_same_v<T, std::string>)
            h.update(member);
        else if constexpr (std::is_same_v<T, float>)
            h.update(std::uint64_t(std::bit_cast<std::uint32_t>(member)));
        else
            h.update(std::uint64_t(member));
    }

    void constant(const char *, std::uint64_t value) { h.update(value); }
};

/** A bounded row's value as text (an enum as its underlying value). */
template <class T>
std::string
rowText(T value)
{
    if constexpr (std::is_same_v<T, float>) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", double(value));
        return buf;
    } else {
        return std::to_string(std::uint64_t(value));
    }
}

/** validate()'s visitor: throws at the first row outside its bounds. */
struct RowChecker
{
    template <class T>
    void
    row(const char *key, const T &member, std::type_identity_t<T> lo,
        std::type_identity_t<T> hi, Fingerprint = Fingerprint::Hash)
    {
        // Written so a NaN fails too.
        sim_throw_if(!(member >= lo && member <= hi), ErrorKind::Config,
                     "%s = %s is out of range %s..%s", key,
                     rowText(member).c_str(), rowText(lo).c_str(),
                     rowText(hi).c_str());
    }

    template <class T>
    void row(const char *, const T &, Fingerprint = Fingerprint::Hash)
    {
    }

    void constant(const char *, std::uint64_t) {}
};

} // namespace

std::uint64_t
configFingerprint(const GpuConfig &c)
{
    RowHasher hasher;
    GpuConfig::walk(c, hasher);
    return hasher.h.digest();
}

void
GpuConfig::validate() const
{
    RowChecker checker;
    walk(*this, checker);
    sim_throw_if(siEnabled && maxSubwarps == 0, ErrorKind::Config,
                 "subwarp interleaving needs at least one TST entry");
    sim_throw_if(checkInvariants && invariantCheckInterval == 0,
                 ErrorKind::Config,
                 "the invariant audit needs a nonzero interval");
    for (const CacheConfig *cache : {&l1d, &l1i, &l0i})
        checkCacheGeometry(*cache);
}

std::uint64_t
programFingerprint(const Program &p)
{
    Fnv1a h;
    h.update(p.name());
    h.update(std::uint64_t(p.numRegs()));
    h.update(p.sourceText());
    return h.digest();
}

Gpu::Gpu(const GpuConfig &config, Memory &memory, const Bvh *scene)
    : config_(config), memory_(memory), scene_(scene)
{
}

GpuResult
Gpu::run(const Program &program, const LaunchParams &launch)
{
    return runMulti({KernelLaunch{&program, launch}});
}

void
Gpu::launchMachine(const std::vector<KernelLaunch> &kernels,
                   const std::string *checkpoint)
{
    sms_.clear();
    config_.validate();
    // Built aside so an SM that fails to build leaves no half-built
    // machine to finalize.
    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(config_.numSms);
    for (unsigned s = 0; s < config_.numSms; ++s)
        sms.push_back(std::make_unique<Sm>(s, config_, memory_, scene_));
    sms_ = std::move(sms);

    sim_throw_if(kernels.empty(), ErrorKind::Config,
                 "no kernels to launch");
    unsigned max_warps = 0;
    std::uint64_t total_warps = 0;
    for (const auto &k : kernels) {
        sim_throw_if(k.program == nullptr, ErrorKind::Config,
                     "kernel without a program");
        k.program->validate();
        sim_throw_if(k.launch.numWarps == 0, ErrorKind::Config,
                     "launch with zero warps");
        sim_throw_if(k.launch.warpsPerCta == 0, ErrorKind::Config,
                     "warpsPerCta must be nonzero");
        max_warps = std::max(max_warps, k.launch.numWarps);
        total_warps += k.launch.numWarps;
    }
    // Checked before any warp is allocated: an absurd launch is a
    // configuration error, not an out-of-memory abort.
    sim_throw_if(total_warps > traceMaxWarps, ErrorKind::Config,
                 "launch of %llu warps exceeds the %llu that trace "
                 "events can name",
                 static_cast<unsigned long long>(total_warps),
                 static_cast<unsigned long long>(traceMaxWarps));
    kernels_ = kernels;
    now_ = 0;
    lastIssued_ = 0;
    lastProgress_ = 0;
    ffLeaps_ = 0;
    ffSkipped_ = 0;

    // Interleave warps across kernels so co-scheduled queues contend
    // for slots from the start, then round-robin across SMs.
    unsigned wid = 0;
    for (unsigned i = 0; i < max_warps; ++i) {
        for (const auto &k : kernels) {
            if (i >= k.launch.numWarps)
                continue;
            auto warp =
                std::make_unique<Warp>(wid, 0, k.program, warpSize);
            warp->logicalId = i;
            warp->ctaId = i / k.launch.warpsPerCta;
            sms_[wid % sms_.size()]->addWarp(std::move(warp));
            ++wid;
        }
    }

    if (checkpoint) {
        SnapshotReader reader(*checkpoint);
        restore(reader);
    }
}

void
Gpu::runLoop()
{
    // Forward-progress tracking: cycles since the last issue anywhere
    // on the GPU. A long quiet spell is only a livelock when no
    // writeback is in flight — pending events always fire at a bounded
    // future cycle, so a stalled-but-live machine keeps its wakeups
    // queued. The counters are members so a checkpoint freezes them
    // with the rest of the machine and a resumed run re-enters this
    // loop exactly where the checkpoint left it.
    while (true) {
        if (allDone())
            break;
        if (now_ >= config_.maxCycles) {
            throw SimError(ErrorKind::CycleLimit,
                           "kernel '" + kernels_.front().program->name() +
                               "' exceeded the " +
                               std::to_string(config_.maxCycles) +
                               "-cycle cap");
        }

        // Checkpoint before any other hook mutates or observes state:
        // what save() captures here is exactly what a resumed loop sees
        // on its first iteration.
        if (config_.checkpointHook && config_.checkpointInterval &&
            now_ != 0 && now_ % config_.checkpointInterval == 0) {
            (config_.checkpointHook)(*this, now_);
        }

        // Sample after the checkpoint hook: a snapshot taken at cycle N
        // holds the sampler state from before onCycle(N), and the
        // resumed loop re-fires onCycle(N) exactly once — so a resumed
        // run's window series is bit-identical to an uninterrupted one.
        if (config_.metricsSampler)
            config_.metricsSampler->onCycle(*this, now_);

        // The hook's pin is recomputed by every call, so nothing about
        // it is saved: a resumed loop's first iteration re-derives it.
        Cycle hook_pin = invalidCycle;
        if (config_.faultHook)
            hook_pin = (config_.faultHook)(*this, now_);

        for (auto &sm : sms_)
            sm->tick(now_);
        ++now_;

        std::uint64_t issued = 0;
        bool events_pending = false;
        for (const auto &sm : sms_) {
            issued += sm->stats().instrsIssued;
            events_pending |= sm->hasPendingWritebacks();
        }
        if (issued != lastIssued_ || events_pending) {
            lastIssued_ = issued;
            lastProgress_ = now_;
        }

        // Event-driven fast-forward: when no SM has an event before
        // the next cycle, leap straight to the event horizon. Runs
        // after the progress update (so the livelock deadline below is
        // final for this quiet spell) and before the livelock and
        // invariant checks (both horizon-pinned, so they observe the
        // same cycles as a per-cycle run).
        maybeFastForward(hook_pin, events_pending);

        // Livelock check in unconditional form: after a progress update
        // now_ == lastProgress_, so with livelockCycles != 0 this is
        // exactly the old else-branch; after a livelock-bounded leap it
        // trips at the identical cycle the per-cycle run would.
        if (config_.livelockCycles &&
            now_ - lastProgress_ >= config_.livelockCycles) {
            std::string dump;
            for (const auto &sm : sms_)
                dump += sm->dumpState();
            throw SimError(
                ErrorKind::Livelock,
                "no instruction issued and no writeback in flight "
                "for " +
                    std::to_string(now_ - lastProgress_) +
                    " cycles (cycle " + std::to_string(now_) + ")",
                dump);
        }

        if (config_.checkInvariants &&
            now_ % config_.invariantCheckInterval == 0) {
            for (const auto &sm : sms_) {
                std::string violation = sm->auditInvariants();
                if (!violation.empty()) {
                    throw SimError(ErrorKind::InvariantViolation,
                                   "invariant audit failed at cycle " +
                                       std::to_string(now_),
                                   violation);
                }
            }
        }
    }
}

bool
Gpu::allDone() const
{
    return std::all_of(sms_.begin(), sms_.end(),
                       [](const auto &sm) { return sm->done(); });
}

void
Gpu::maybeFastForward(Cycle hook_pin, bool events_pending)
{
    if (!config_.fastForward)
        return;

    // Each SM ticks identically until its event horizon (read from the
    // warp spans and the writeback queue), so the machine's state is a
    // pure function of the clock until the earliest one. Checked before
    // the clamps below: most ticks leave a warp due at now_.
    Cycle horizon = invalidCycle;
    for (const auto &sm : sms_)
        horizon = std::min(horizon, sm->nextEventAt());
    if (horizon <= now_)
        return;
    // After the final EXIT every SM is done and the horizon is
    // invalidCycle; the loop ends on its next check instead.
    if (allDone())
        return;

    // Clamp to every cycle the loop itself must observe: the watchdog
    // cap, the livelock deadline (only binding when no writeback is in
    // flight), each hook/sampler boundary, and the fault hook's pin.
    // nextBoundary() returns now_ when now_ is already a boundary, which
    // yields h == now_ and no leap — the hook then fires normally on the
    // next iteration; a pin at or below now_ does the same.
    Cycle h = std::min(horizon, config_.maxCycles);
    if (!events_pending && config_.livelockCycles)
        h = std::min(h, lastProgress_ + config_.livelockCycles);
    if (config_.checkpointHook && config_.checkpointInterval)
        h = std::min(h, nextBoundary(now_, config_.checkpointInterval));
    if (config_.metricsSampler)
        h = std::min(h, config_.metricsSampler->horizonPin(now_));
    h = std::min(h, hook_pin);
    if (config_.checkInvariants)
        h = std::min(h,
                     nextBoundary(now_, config_.invariantCheckInterval));
    if (h == invalidCycle || h <= now_)
        return;

    const std::uint64_t n = h - now_;
    for (auto &sm : sms_)
        sm->applyQuietCycles(n);
    now_ = h;

    // With a writeback in flight every skipped iteration would have
    // taken the progress branch; replicate its final effect. (Without
    // one, lastProgress_ stays put — exactly as per-cycle execution
    // would leave it.)
    if (events_pending)
        lastProgress_ = now_;

    ++ffLeaps_;
    ffSkipped_ += n;
}

void
Gpu::finalize(GpuResult &result)
{
    if (sms_.empty())
        return;

    // A failed run stamps its timeline with the watchdog verdict, so
    // livelock/deadlock reports come with trace context.
    if (!result.status.ok()) {
        if (TraceSink *sink = config_.traceSink) {
            TraceEvent ev;
            ev.cycle = now_;
            ev.arg = std::uint32_t(result.status.kind);
            ev.kind = TraceEventKind::Watchdog;
            sink->record(ev);
        }
    }

    if (config_.metricsSampler)
        config_.metricsSampler->finish(*this, now_);

    std::map<std::pair<std::uint32_t, StallReason>, std::uint64_t> cells;
    for (auto &sm : sms_) {
        sm->finalizeStats();
        result.perSm.push_back(sm->stats());
        result.total.accumulate(sm->stats());
        // Each table's last row is its "(no subwarp)" row.
        const std::vector<StallCounts> &t = sm->stallsByPc();
        for (std::size_t i = 0; i < t.size(); ++i) {
            for (std::size_t k = 0; k < numStallReasons; ++k) {
                if (t[i][k] != 0) {
                    cells[{i + 1 == t.size() ? noSubwarpPc
                                             : std::uint32_t(i),
                           StallReason(k)}] += t[i][k];
                }
            }
        }
    }
    result.cycles = result.total.cycles;
    for (const auto &[key, slots] : cells)
        result.stallsByPc.push_back({key.first, key.second, slots});
}

GpuResult
Gpu::runMulti(const std::vector<KernelLaunch> &kernels,
              const std::string *checkpoint)
{
    GpuResult result;
    try {
        launchMachine(kernels, checkpoint);
        runLoop();
    } catch (const SimError &e) {
        result.status = e.status();
    }
    finalize(result);
    return result;
}

template <class Self, class Ar>
void
Gpu::walk(Self &self, Ar &ar)
{
    ar.tag(SnapTag::Meta);
    ar.fixed("checkpoint", "config fingerprint",
             configFingerprint(self.config_));
    ar.fixed("checkpoint", "kernels", self.kernels_.size());
    for (const KernelLaunch &k : self.kernels_) {
        const std::string &name = k.program->name();
        ar.fixed("checkpoint kernel", "name", name);
        ar.fixed(name, "program fingerprint", programFingerprint(*k.program));
        ar.fixed(name, "warps", k.launch.numWarps);
        ar.fixed(name, "warps per CTA", k.launch.warpsPerCta);
    }

    ar.tag(SnapTag::Clock);
    ar.io(self.now_, self.lastIssued_, self.lastProgress_, self.memory_);
    ar.fixed("checkpoint", "SMs", self.sms_.size());
    for (const auto &sm : self.sms_)
        ar.io(*sm);

    // Sampler presence is part of the format: restoring under a
    // different sampler setup would silently desynchronize the window
    // series, so mismatches fail loudly instead.
    ar.tag(SnapTag::Metrics);
    CycleSampler *sampler = self.config_.metricsSampler;
    ar.fixed("checkpoint", "metrics sampler installed", sampler != nullptr);
    if (sampler)
        ar.io(*sampler);

    ar.tag(SnapTag::End);
    if constexpr (Ar::restoring)
        ar.expectEnd();
}

void
Gpu::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
Gpu::restore(SnapshotReader &r)
{
    walk(*this, r);
}

GpuResult
simulate(const GpuConfig &config, Memory &memory, const Program &program,
         const LaunchParams &launch, const Bvh *scene)
{
    Gpu gpu(config, memory, scene);
    return gpu.run(program, launch);
}

} // namespace si
