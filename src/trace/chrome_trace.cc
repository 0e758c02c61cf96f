#include "trace/chrome_trace.hh"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/json.hh"
#include "isa/opcode.hh"
#include "isa/program.hh"

namespace si {

namespace {

/** Track key: one Perfetto thread per (SM, warp slot). */
using TrackId = std::pair<unsigned, unsigned>;

std::string
hexMask(std::uint32_t mask)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", mask);
    return buf;
}

void
eventCommon(json::Writer &w, const char *ph, const TraceEvent &ev)
{
    w.key("ph").value(ph);
    w.key("ts").value(std::uint64_t(ev.cycle));
    w.key("pid").value(unsigned(ev.smId));
    w.key("tid").value(unsigned(ev.warpId));
}

void
metadataEvent(json::Writer &w, const char *name, unsigned pid, unsigned tid,
              const std::string &value)
{
    w.beginObject();
    w.key("ph").value("M");
    w.key("name").value(name);
    w.key("pid").value(pid);
    w.key("tid").value(tid);
    w.key("args").beginObject().key("name").value(value).endObject();
    w.endObject();
}

std::string
issueName(const TraceEvent &ev, const Program *prog)
{
    const auto op = static_cast<Opcode>(ev.arg & 0xff);
    if (prog && ev.pc < prog->size()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s @%u", opcodeName(op), ev.pc);
        return buf;
    }
    return opcodeName(op);
}

/**
 * An open subwarp-residency interval on one track: consecutive issues
 * with the same active mask merge into one "sw 0x..." slice.
 */
struct Residency
{
    std::uint32_t mask = 0;
    Cycle start = 0;
    Cycle end = 0; ///< exclusive
    bool open = false;
};

} // namespace

std::string
chromeTraceJson(const std::vector<TraceEvent> &events, const Program *prog,
                const std::vector<CounterSample> &counters)
{
    json::Writer w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Track discovery + metadata first so Perfetto names every track.
    std::set<unsigned> sms;
    std::map<TrackId, unsigned> trackPb;
    for (const TraceEvent &ev : events) {
        sms.insert(ev.smId);
        trackPb.emplace(TrackId{ev.smId, ev.warpId}, ev.pb);
    }
    for (const unsigned sm : sms)
        metadataEvent(w, "process_name", sm, 0, "sm" + std::to_string(sm));
    for (const auto &[track, pb] : trackPb) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "warp %u (pb%u)", track.second, pb);
        metadataEvent(w, "thread_name", track.first, track.second, buf);
    }

    // Residency slices: merge consecutive same-mask issues per track.
    // Emitted before the per-issue slices so equal-ts slices nest
    // residency-outside, issue-inside in the Perfetto UI.
    std::map<TrackId, Residency> residency;
    auto flush = [&](const TrackId &track, Residency &r) {
        if (!r.open)
            return;
        w.beginObject();
        w.key("ph").value("X");
        w.key("ts").value(std::uint64_t(r.start));
        w.key("dur").value(std::uint64_t(r.end - r.start));
        w.key("pid").value(track.first);
        w.key("tid").value(track.second);
        w.key("name").value("sw " + hexMask(r.mask));
        w.key("cat").value("subwarp");
        w.endObject();
        r.open = false;
    };
    for (const TraceEvent &ev : events) {
        if (ev.kind != TraceEventKind::Issue)
            continue;
        const TrackId track{ev.smId, ev.warpId};
        Residency &r = residency[track];
        if (r.open && r.mask == ev.mask) {
            r.end = ev.cycle + 1;
            continue;
        }
        flush(track, r);
        r = {ev.mask, ev.cycle, ev.cycle + 1, true};
    }
    for (auto &[track, r] : residency)
        flush(track, r);

    for (const TraceEvent &ev : events) {
        switch (ev.kind) {
          case TraceEventKind::Issue:
            w.beginObject();
            eventCommon(w, "X", ev);
            w.key("dur").value(1);
            w.key("name").value(issueName(ev, prog));
            w.key("cat").value("issue");
            w.key("args").beginObject();
            w.key("pc").value(ev.pc);
            w.key("active").value(hexMask(ev.mask));
            w.key("exec").value(hexMask(ev.mask2));
            w.endObject();
            w.endObject();
            break;
          case TraceEventKind::SubwarpDiverge:
          case TraceEventKind::SubwarpReconverge:
          case TraceEventKind::SubwarpBlock:
          case TraceEventKind::BarrierRelease:
          case TraceEventKind::SubwarpSelect:
          case TraceEventKind::SubwarpStall:
          case TraceEventKind::SubwarpWakeup:
          case TraceEventKind::SubwarpYield:
          case TraceEventKind::TstFull:
          case TraceEventKind::WarpRetire:
            w.beginObject();
            eventCommon(w, "i", ev);
            w.key("s").value("t");
            w.key("name").value(traceEventKindName(ev.kind));
            w.key("cat").value("subwarp");
            w.key("args").beginObject();
            w.key("mask").value(hexMask(ev.mask));
            w.key("pc").value(ev.pc);
            w.key("arg").value(ev.arg);
            w.endObject();
            w.endObject();
            break;
          case TraceEventKind::CacheAccess:
            // Hits are too frequent to chart; misses become instants.
            if ((ev.arg >> 8) & 1)
                break;
            [[fallthrough]];
          case TraceEventKind::CacheFill: {
            const auto level = static_cast<TraceCacheLevel>(ev.arg & 0xff);
            w.beginObject();
            eventCommon(w, "i", ev);
            w.key("s").value("t");
            std::string name(traceCacheLevelName(level));
            name += ev.kind == TraceEventKind::CacheFill ? " fill" : " miss";
            w.key("name").value(name);
            w.key("cat").value("cache");
            w.key("args").beginObject();
            char buf[24];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(ev.addr));
            w.key("line").value(buf);
            w.key("pc").value(ev.pc);
            w.endObject();
            w.endObject();
            break;
          }
          case TraceEventKind::Watchdog:
          case TraceEventKind::FaultInject:
            w.beginObject();
            eventCommon(w, "i", ev);
            w.key("s").value("g"); // global scope: full-height marker
            w.key("name").value(traceEventKindName(ev.kind));
            w.key("cat").value("fault");
            w.key("args").beginObject();
            w.key("arg").value(ev.arg);
            w.key("pc").value(ev.pc);
            w.endObject();
            w.endObject();
            break;
          case TraceEventKind::Writeback:
            // One per drained scoreboard release; charting them would
            // swamp the timeline.
            break;
        }
    }

    // Counter tracks (ph:"C"): one event per sample; multi-series
    // samples render stacked. Names and series keys pass through the
    // writer, so hostile kernel or region names stay valid JSON.
    for (const CounterSample &cs : counters) {
        w.beginObject();
        w.key("ph").value("C");
        w.key("ts").value(std::uint64_t(cs.cycle));
        w.key("pid").value(cs.pid);
        w.key("name").value(cs.name);
        w.key("args").beginObject();
        for (const auto &[series, v] : cs.values)
            w.key(series).value(v);
        w.endObject();
        w.endObject();
    }

    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("schema").value("si-trace-v1");
    w.key("timeUnit").value("cycles");
    if (prog)
        w.key("kernel").value(prog->name());
    w.endObject();
    w.endObject();
    return w.take();
}

} // namespace si
