#include "metrics/sampler.hh"

#include <cstdio>

#include "common/json.hh"
#include "metrics/partition_json.hh"
#include "snapshot/snapshot.hh"

namespace si {

namespace {

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
    const auto minus = [](StatKind, auto p, auto c) { return c - p; };
    SmStats d;
    zipStatFields(smStatFields, d, prev, cur, minus);
    // The region table only ever grows; a region absent from prev had
    // all-zero counters at the window's start.
    d.regions.resize(cur.regions.size());
    for (std::size_t i = 0; i < cur.regions.size(); ++i) {
        const RegionCounters zero;
        zipStatFields(regionStatFields, d.regions[i],
                      i < prev.regions.size() ? prev.regions[i] : zero,
                      cur.regions[i], minus);
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

template <class Self, class Ar>
void
MetricsSampler::walk(Self &self, Ar &ar)
{
    ar.io(self.interval_, self.cap_, self.lastSampleCycle_,
          self.warpSlotsPerSm_);
    // prev + dropped + ring count; start + end + delta per window.
    const std::size_t stats_bytes = minStatsBytes();
    ar.seq(self.sms_, stats_bytes + 8 + 8, [&](auto &ps) {
        ar.io(ps.prev, ps.dropped);
        ar.seq(ps.ring, 8 + 8 + stats_bytes,
               [&](auto &win) { ar.io(win.start, win.end, win.delta); });
    });
}

void
MetricsSampler::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
MetricsSampler::restore(SnapshotReader &r)
{
    walk(*this, r);
}

namespace {

/**
 * One per-window export column, in si-metrics-v1 window order (after
 * start and end), which is also the CSV column order: a counter of the
 * window's delta, a ratio over it, or the per-reason stall block (a
 * "stall_cycles" object in JSON, one stall_<reason> column per reason
 * in CSV).
 */
struct WindowColumn
{
    using Ratio = double (*)(const SmStats &d, unsigned warp_slots_per_sm);

    constexpr WindowColumn(const char *n, std::uint64_t SmStats::*m)
        : name(n), count(m)
    {
    }
    constexpr WindowColumn(const char *n, Ratio fn) : name(n), ratioOf(fn)
    {
    }
    constexpr WindowColumn(const char *n, StallCounts SmStats::*m)
        : name(n), reasons(m)
    {
    }

    const char *name;
    std::uint64_t SmStats::*count = nullptr;
    Ratio ratioOf = nullptr;
    StallCounts SmStats::*reasons = nullptr;
};

constexpr WindowColumn windowColumns[] = {
    {"cycles", &SmStats::cycles},
    {"instrs_issued", &SmStats::instrsIssued},
    {"ipc",
     [](const SmStats &d, unsigned) {
         return ratio(d.instrsIssued, d.cycles);
     }},
    {"live_warp_cycles", &SmStats::liveWarpCycles},
    {"arb_loss_cycles", &SmStats::arbLossCycles},
    {"stall_cycles", &SmStats::stallCyclesByReason},
    {"subwarp_full", &SmStats::warpCyclesSubwarpFull},
    {"subwarp_partial", &SmStats::warpCyclesSubwarpPartial},
    {"subwarp_none", &SmStats::warpCyclesSubwarpNone},
    {"occupancy",
     [](const SmStats &d, unsigned slots) {
         return ratio(d.liveWarpCycles, d.cycles * slots);
     }},
    {"l1d_hits", &SmStats::l1dHits},
    {"l1d_misses", &SmStats::l1dMisses},
    {"l1d_hit_rate",
     [](const SmStats &d, unsigned) {
         return ratio(d.l1dHits, d.l1dHits + d.l1dMisses);
     }},
    {"l0i_hits", &SmStats::l0iHits},
    {"l0i_misses", &SmStats::l0iMisses},
    {"l0i_hit_rate",
     [](const SmStats &d, unsigned) {
         return ratio(d.l0iHits, d.l0iHits + d.l0iMisses);
     }},
};

/** Write @p v as JSON writes a u64 (the CSV's count cells). */
void
appendCount(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)(v));
    out += buf;
}

void
writeWindow(json::Writer &w, const MetricsWindow &win,
            unsigned warp_slots_per_sm)
{
    const SmStats &d = win.delta;
    w.beginObject();
    w.key("start").value(std::uint64_t(win.start));
    w.key("end").value(std::uint64_t(win.end));
    for (const WindowColumn &c : windowColumns) {
        w.key(c.name);
        if (c.count) {
            w.value(d.*c.count);
        } else if (c.ratioOf) {
            w.value(c.ratioOf(d, warp_slots_per_sm));
        } else {
            w.beginObject();
            writeReasonCounts(w, d.*c.reasons);
            w.endObject();
        }
    }
    w.key("regions").beginArray();
    for (std::size_t i = 0; i < d.regions.size(); ++i) {
        const RegionCounters &rc = d.regions[i];
        if (rc == RegionCounters{}) // contributed nothing to this window
            continue;
        w.beginObject();
        w.key("region").value(std::uint64_t(i));
        writeRegionCounters(w, rc);
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
    std::string out = "sm,start,end";
    for (const WindowColumn &c : windowColumns) {
        if (!c.reasons) {
            out += ',';
            out += c.name;
            continue;
        }
        for (unsigned k = 0; k < numStallReasons; ++k)
            out += ",stall_" + stallReasonKey(StallReason(k));
    }
    out += '\n';
    for (unsigned i = 0; i < sampler.numSms(); ++i) {
        for (const MetricsWindow &win : sampler.windows(i)) {
            const SmStats &d = win.delta;
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%u,%llu,%llu", i,
                          (unsigned long long)(win.start),
                          (unsigned long long)(win.end));
            out += buf;
            for (const WindowColumn &c : windowColumns) {
                out += ',';
                if (c.count) {
                    appendCount(out, d.*c.count);
                } else if (c.ratioOf) {
                    out += json::formatNumber(
                        c.ratioOf(d, sampler.warpSlotsPerSm()));
                } else {
                    for (unsigned k = 0; k < numStallReasons; ++k) {
                        if (k)
                            out += ',';
                        appendCount(out, (d.*c.reasons)[k]);
                    }
                }
            }
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
