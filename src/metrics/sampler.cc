#include "metrics/sampler.hh"

#include <cstdio>

#include "common/json.hh"
#include "snapshot/snapshot.hh"

namespace si {

namespace {

/** "load-to-use" -> "load_to_use": CSV/scalar-safe reason name. */
std::string
reasonKey(unsigned reason)
{
    std::string s = stallReasonName(StallReason(reason));
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

/** Payload bytes of the smallest saved SmStats (no regions). */
std::size_t
minStatsBytes()
{
    SnapshotWriter w;
    SmStats().save(w);
    return w.payloadSize();
}

} // namespace

SmStats
statsDelta(const SmStats &prev, const SmStats &cur)
{
    SmStats d;
    d.cycles = cur.cycles - prev.cycles;
    d.instrsIssued = cur.instrsIssued - prev.instrsIssued;
    d.warpsRetired = cur.warpsRetired - prev.warpsRetired;
    d.noIssueCycles = cur.noIssueCycles - prev.noIssueCycles;
    d.exposedLoadStallCycles =
        cur.exposedLoadStallCycles - prev.exposedLoadStallCycles;
    d.exposedLoadStallCyclesDivergent =
        cur.exposedLoadStallCyclesDivergent -
        prev.exposedLoadStallCyclesDivergent;
    d.exposedFetchStallCycles =
        cur.exposedFetchStallCycles - prev.exposedFetchStallCycles;
    d.ldgIssued = cur.ldgIssued - prev.ldgIssued;
    d.gmemTransactions = cur.gmemTransactions - prev.gmemTransactions;
    d.texIssued = cur.texIssued - prev.texIssued;
    d.rtQueriesIssued = cur.rtQueriesIssued - prev.rtQueriesIssued;
    d.stgIssued = cur.stgIssued - prev.stgIssued;
    d.divergentBranches = cur.divergentBranches - prev.divergentBranches;
    d.reconvergences = cur.reconvergences - prev.reconvergences;
    d.subwarpSelects = cur.subwarpSelects - prev.subwarpSelects;
    d.subwarpStalls = cur.subwarpStalls - prev.subwarpStalls;
    d.subwarpWakeups = cur.subwarpWakeups - prev.subwarpWakeups;
    d.subwarpYields = cur.subwarpYields - prev.subwarpYields;
    d.tstFullDenials = cur.tstFullDenials - prev.tstFullDenials;
    d.l1dHits = cur.l1dHits - prev.l1dHits;
    d.l1dMisses = cur.l1dMisses - prev.l1dMisses;
    d.l1iHits = cur.l1iHits - prev.l1iHits;
    d.l1iMisses = cur.l1iMisses - prev.l1iMisses;
    d.l0iHits = cur.l0iHits - prev.l0iHits;
    d.l0iMisses = cur.l0iMisses - prev.l0iMisses;
    d.liveWarpCycles = cur.liveWarpCycles - prev.liveWarpCycles;
    d.arbLossCycles = cur.arbLossCycles - prev.arbLossCycles;
    for (std::size_t i = 0; i < d.stallCyclesByReason.size(); ++i)
        d.stallCyclesByReason[i] =
            cur.stallCyclesByReason[i] - prev.stallCyclesByReason[i];
    d.warpCyclesSubwarpFull =
        cur.warpCyclesSubwarpFull - prev.warpCyclesSubwarpFull;
    d.warpCyclesSubwarpPartial =
        cur.warpCyclesSubwarpPartial - prev.warpCyclesSubwarpPartial;
    d.warpCyclesSubwarpNone =
        cur.warpCyclesSubwarpNone - prev.warpCyclesSubwarpNone;
    // The region table only ever grows; a region absent from prev had
    // all-zero counters at the window's start.
    d.regions.resize(cur.regions.size());
    for (std::size_t i = 0; i < cur.regions.size(); ++i) {
        const RegionCounters zero;
        const RegionCounters &p =
            i < prev.regions.size() ? prev.regions[i] : zero;
        d.regions[i].warpCycles = cur.regions[i].warpCycles - p.warpCycles;
        d.regions[i].instrsIssued =
            cur.regions[i].instrsIssued - p.instrsIssued;
        d.regions[i].arbLossCycles =
            cur.regions[i].arbLossCycles - p.arbLossCycles;
        for (std::size_t k = 0; k < numStallReasons; ++k)
            d.regions[i].stallCyclesByReason[k] =
                cur.regions[i].stallCyclesByReason[k] -
                p.stallCyclesByReason[k];
    }
    return d;
}

MetricsSampler::MetricsSampler(Cycle interval, std::size_t ring_capacity)
    : interval_(interval), cap_(ring_capacity ? ring_capacity : 1)
{
}

void
MetricsSampler::sampleAll(const Gpu &gpu, Cycle now)
{
    for (unsigned i = 0; i < unsigned(sms_.size()); ++i) {
        PerSm &ps = sms_[i];
        MetricsWindow win;
        win.start = lastSampleCycle_;
        win.end = now;
        SmStats cur = gpu.sm(i).liveStats();
        win.delta = statsDelta(ps.prev, cur);
        if (ps.ring.size() >= cap_) {
            ps.ring.erase(ps.ring.begin());
            ++ps.dropped;
        }
        ps.ring.push_back(std::move(win));
        ps.prev = std::move(cur);
    }
    lastSampleCycle_ = now;
}

Cycle
MetricsSampler::horizonPin(Cycle now) const
{
    // onCycle() acts only when now is a nonzero interval multiple (the
    // resume guard can only suppress, never add, a sample), so the next
    // multiple at or after now is the only cycle the leap must not skip.
    if (interval_ == 0)
        return invalidCycle;
    return (now + interval_ - 1) / interval_ * interval_;
}

void
MetricsSampler::onCycle(const Gpu &gpu, Cycle now)
{
    if (sms_.empty()) {
        sms_.resize(gpu.numSms());
        warpSlotsPerSm_ = gpu.config().warpSlotsPerSm();
    }
    if (interval_ == 0 || now == 0 || now % interval_ != 0)
        return;
    // A restored run re-fires onCycle at the checkpoint cycle; the
    // guard keeps an already-recorded window from repeating.
    if (now <= lastSampleCycle_)
        return;
    sampleAll(gpu, now);
}

void
MetricsSampler::finish(const Gpu &gpu, Cycle now)
{
    if (sms_.empty()) {
        sms_.resize(gpu.numSms());
        warpSlotsPerSm_ = gpu.config().warpSlotsPerSm();
    }
    // Flush the open partial window (the whole run when interval is 0)
    // so the windows of each SM sum exactly to its final statistics.
    if (now > lastSampleCycle_ || sms_[0].ring.empty())
        sampleAll(gpu, now);
}

std::uint64_t
MetricsSampler::droppedTotal() const
{
    std::uint64_t n = 0;
    for (const PerSm &ps : sms_)
        n += ps.dropped;
    return n;
}

void
MetricsSampler::save(SnapshotWriter &w) const
{
    w.u64(interval_);
    w.u64(cap_);
    w.u64(lastSampleCycle_);
    w.u32(warpSlotsPerSm_);
    w.u64(sms_.size());
    for (const PerSm &ps : sms_) {
        ps.prev.save(w);
        w.u64(ps.dropped);
        w.u64(ps.ring.size());
        for (const MetricsWindow &win : ps.ring) {
            w.u64(win.start);
            w.u64(win.end);
            win.delta.save(w);
        }
    }
}

void
MetricsSampler::restore(SnapshotReader &r)
{
    interval_ = r.u64();
    cap_ = std::size_t(r.u64());
    lastSampleCycle_ = r.u64();
    warpSlotsPerSm_ = r.u32();
    // prev + dropped + ring count; start + end + delta per window.
    const std::size_t stats_bytes = minStatsBytes();
    sms_.clear();
    sms_.resize(r.count(stats_bytes + 8 + 8));
    for (PerSm &ps : sms_) {
        ps.prev.restore(r);
        ps.dropped = r.u64();
        ps.ring.resize(r.count(8 + 8 + stats_bytes));
        for (MetricsWindow &win : ps.ring) {
            win.start = r.u64();
            win.end = r.u64();
            win.delta.restore(r);
        }
    }
}

namespace {

/** True when a region contributed nothing to this window. */
bool
regionZero(const RegionCounters &rc)
{
    return rc == RegionCounters{};
}

void
writeWindow(json::Writer &w, const MetricsWindow &win,
            unsigned warp_slots_per_sm)
{
    const SmStats &d = win.delta;
    w.beginObject();
    w.key("start").value(std::uint64_t(win.start));
    w.key("end").value(std::uint64_t(win.end));
    w.key("cycles").value(d.cycles);
    w.key("instrs_issued").value(d.instrsIssued);
    w.key("ipc").value(ratio(d.instrsIssued, d.cycles));
    w.key("live_warp_cycles").value(d.liveWarpCycles);
    w.key("arb_loss_cycles").value(d.arbLossCycles);
    w.key("stall_cycles").beginObject();
    for (unsigned k = 0; k < numStallReasons; ++k)
        w.key(stallReasonName(StallReason(k)))
            .value(d.stallCyclesByReason[k]);
    w.endObject();
    w.key("subwarp_full").value(d.warpCyclesSubwarpFull);
    w.key("subwarp_partial").value(d.warpCyclesSubwarpPartial);
    w.key("subwarp_none").value(d.warpCyclesSubwarpNone);
    w.key("occupancy")
        .value(ratio(d.liveWarpCycles, d.cycles * warp_slots_per_sm));
    w.key("l1d_hits").value(d.l1dHits);
    w.key("l1d_misses").value(d.l1dMisses);
    w.key("l1d_hit_rate").value(ratio(d.l1dHits, d.l1dHits + d.l1dMisses));
    w.key("l0i_hits").value(d.l0iHits);
    w.key("l0i_misses").value(d.l0iMisses);
    w.key("l0i_hit_rate").value(ratio(d.l0iHits, d.l0iHits + d.l0iMisses));
    w.key("regions").beginArray();
    for (std::size_t i = 0; i < d.regions.size(); ++i) {
        const RegionCounters &rc = d.regions[i];
        if (regionZero(rc))
            continue;
        w.beginObject();
        w.key("region").value(std::uint64_t(i));
        w.key("warp_cycles").value(rc.warpCycles);
        w.key("instrs_issued").value(rc.instrsIssued);
        w.key("arb_loss_cycles").value(rc.arbLossCycles);
        w.key("stall_cycles").beginObject();
        for (unsigned k = 0; k < numStallReasons; ++k)
            w.key(stallReasonName(StallReason(k)))
                .value(rc.stallCyclesByReason[k]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
metricsJson(const MetricsSampler &sampler, const std::string &kernel,
            const std::vector<std::string> &region_names)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").value("si-metrics-v1");
    w.key("kernel").value(kernel);
    w.key("interval").value(std::uint64_t(sampler.interval()));
    w.key("warp_slots_per_sm").value(sampler.warpSlotsPerSm());
    w.key("num_sms").value(sampler.numSms());
    w.key("stall_reasons").beginArray();
    for (unsigned k = 0; k < numStallReasons; ++k)
        w.value(stallReasonName(StallReason(k)));
    w.endArray();
    w.key("regions").beginArray();
    for (const std::string &name : region_names)
        w.value(name);
    w.endArray();
    w.key("dropped_total").value(sampler.droppedTotal());
    w.key("sms").beginArray();
    for (unsigned i = 0; i < sampler.numSms(); ++i) {
        w.beginObject();
        w.key("sm").value(i);
        w.key("dropped").value(sampler.dropped(i));
        w.key("windows").beginArray();
        for (const MetricsWindow &win : sampler.windows(i))
            writeWindow(w, win, sampler.warpSlotsPerSm());
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

std::string
metricsCsv(const MetricsSampler &sampler)
{
    std::string out = "sm,start,end,cycles,instrs_issued,ipc,"
                      "live_warp_cycles,arb_loss_cycles";
    for (unsigned k = 0; k < numStallReasons; ++k)
        out += ",stall_" + reasonKey(k);
    out += ",subwarp_full,subwarp_partial,subwarp_none,occupancy,"
           "l1d_hits,l1d_misses,l1d_hit_rate,l0i_hits,l0i_misses,"
           "l0i_hit_rate\n";
    for (unsigned i = 0; i < sampler.numSms(); ++i) {
        for (const MetricsWindow &win : sampler.windows(i)) {
            const SmStats &d = win.delta;
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%u,%llu,%llu,%llu,%llu,",
                          i, (unsigned long long)(win.start),
                          (unsigned long long)(win.end),
                          (unsigned long long)(d.cycles),
                          (unsigned long long)(d.instrsIssued));
            out += buf;
            out += json::formatNumber(ratio(d.instrsIssued, d.cycles));
            std::snprintf(buf, sizeof(buf), ",%llu,%llu",
                          (unsigned long long)(d.liveWarpCycles),
                          (unsigned long long)(d.arbLossCycles));
            out += buf;
            for (unsigned k = 0; k < numStallReasons; ++k) {
                std::snprintf(
                    buf, sizeof(buf), ",%llu",
                    (unsigned long long)(d.stallCyclesByReason[k]));
                out += buf;
            }
            std::snprintf(buf, sizeof(buf), ",%llu,%llu,%llu,",
                          (unsigned long long)(d.warpCyclesSubwarpFull),
                          (unsigned long long)(d.warpCyclesSubwarpPartial),
                          (unsigned long long)(d.warpCyclesSubwarpNone));
            out += buf;
            out += json::formatNumber(ratio(
                d.liveWarpCycles,
                d.cycles * sampler.warpSlotsPerSm()));
            std::snprintf(buf, sizeof(buf), ",%llu,%llu,",
                          (unsigned long long)(d.l1dHits),
                          (unsigned long long)(d.l1dMisses));
            out += buf;
            out += json::formatNumber(
                ratio(d.l1dHits, d.l1dHits + d.l1dMisses));
            std::snprintf(buf, sizeof(buf), ",%llu,%llu,",
                          (unsigned long long)(d.l0iHits),
                          (unsigned long long)(d.l0iMisses));
            out += buf;
            out += json::formatNumber(
                ratio(d.l0iHits, d.l0iHits + d.l0iMisses));
            out += '\n';
        }
    }
    return out;
}

std::vector<CounterSample>
metricsCounterSamples(const MetricsSampler &sampler)
{
    std::vector<CounterSample> out;
    for (unsigned i = 0; i < sampler.numSms(); ++i) {
        const std::string sm = "sm" + std::to_string(i);
        for (const MetricsWindow &win : sampler.windows(i)) {
            const SmStats &d = win.delta;
            CounterSample ipc;
            ipc.name = sm + " ipc";
            ipc.pid = i;
            ipc.cycle = win.start;
            ipc.values.emplace_back("ipc", ratio(d.instrsIssued, d.cycles));
            out.push_back(std::move(ipc));

            CounterSample occ;
            occ.name = sm + " occupancy";
            occ.pid = i;
            occ.cycle = win.start;
            occ.values.emplace_back(
                "occupancy",
                ratio(d.liveWarpCycles,
                      d.cycles * sampler.warpSlotsPerSm()));
            out.push_back(std::move(occ));

            CounterSample stalls;
            stalls.name = sm + " stall cycles";
            stalls.pid = i;
            stalls.cycle = win.start;
            for (unsigned k = 0; k < numStallReasons; ++k)
                stalls.values.emplace_back(
                    stallReasonName(StallReason(k)),
                    double(d.stallCyclesByReason[k]));
            out.push_back(std::move(stalls));
        }
    }
    return out;
}

} // namespace si
