#include "race/detector.hh"

#include <algorithm>
#include <cstdio>

namespace si {

namespace {

/** Lane iteration over a raw 32-bit mask. */
template <typename Fn>
void
forLanes(std::uint32_t mask, Fn &&fn)
{
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (mask & (1u << lane))
            fn(lane);
    }
}

} // namespace

void
RaceDetector::joinLanes(WarpClocks &wc, std::uint32_t mask)
{
    // Pairwise max over every clock dimension, for all lanes in mask.
    std::uint32_t merged[warpSize];
    for (unsigned k = 0; k < warpSize; ++k)
        merged[k] = 0;
    forLanes(mask, [&](unsigned lane) {
        for (unsigned k = 0; k < warpSize; ++k) {
            merged[k] =
                std::max(merged[k], wc.vc[lane * warpSize + k]);
        }
    });
    forLanes(mask, [&](unsigned lane) {
        for (unsigned k = 0; k < warpSize; ++k)
            wc.vc[lane * warpSize + k] = merged[k];
    });
}

void
RaceDetector::record(const AccessRecord &prior, bool prior_is_store,
                     const MemAccessEvent &ev, unsigned lane, Addr word)
{
    const std::uint32_t lo = std::min(prior.pc, ev.pc);
    const std::uint32_t hi = std::max(prior.pc, ev.pc);
    const bool store_store = prior_is_store && ev.isStore;
    for (const RaceReport &r : races_) {
        if (r.pcA == lo && r.pcB == hi && r.storeStore == store_store)
            return; // already witnessed this static pair
    }
    RaceReport r;
    r.pcA = lo;
    r.pcB = hi;
    r.storeStore = store_store;
    r.warpId = ev.warpId;
    r.laneA = prior.lane;
    r.laneB = lane;
    r.addr = word;
    r.cycle = ev.cycle;
    races_.push_back(r);
}

void
RaceDetector::touchWord(WarpClocks &wc, const MemAccessEvent &ev,
                        unsigned lane, Addr word)
{
    ShadowCell &cell = shadow_[word];
    const std::uint32_t *lane_vc = &wc.vc[lane * warpSize];
    const auto ordered = [&](const AccessRecord &rec) {
        if (rec.warpId != ev.warpId)
            return true; // cross-warp: out of contract
        return lane_vc[rec.lane] >= rec.clock;
    };

    if (ev.isStore) {
        if (cell.hasWrite && !ordered(cell.write))
            record(cell.write, true, ev, lane, word);
        for (const AccessRecord &rd : cell.reads) {
            if (!ordered(rd))
                record(rd, false, ev, lane, word);
        }
        cell.hasWrite = true;
        cell.write = {ev.warpId, std::uint8_t(lane),
                      lane_vc[lane], ev.pc};
        cell.reads.clear();
    } else {
        if (cell.hasWrite && !ordered(cell.write))
            record(cell.write, true, ev, lane, word);
        // Upsert this lane's read epoch.
        for (AccessRecord &rd : cell.reads) {
            if (rd.warpId == ev.warpId && rd.lane == lane) {
                rd.clock = lane_vc[lane];
                rd.pc = ev.pc;
                return;
            }
        }
        cell.reads.push_back(
            {ev.warpId, std::uint8_t(lane), lane_vc[lane], ev.pc});
    }
}

void
RaceDetector::onAccess(const MemAccessEvent &ev)
{
    if (ev.execMask == 0)
        return;
    WarpClocks &wc = warps_[ev.warpId];

    // The issuing subwarp's lanes are in lockstep: everything any of
    // them did is ordered before this instruction for all of them.
    joinLanes(wc, ev.activeMask);

    forLanes(ev.execMask, [&](unsigned lane) {
        // Tick the lane's own epoch first so two lanes of this same
        // instruction hitting one word conflict with each other (the
        // static pass covers those via the lane-shared store set).
        wc.vc[lane * warpSize + lane] += 1;
        const Addr a = ev.addr[lane];
        touchWord(wc, ev, lane, a & ~Addr(3));
        if ((a & 3) != 0)
            touchWord(wc, ev, lane, (a + 3) & ~Addr(3));
    });

    // Post-join: publish the new epochs to the whole subwarp while it
    // is still co-active, so a later access by a sibling lane (after a
    // guarded EXIT or divergence) stays ordered.
    joinLanes(wc, ev.activeMask);
}

void
RaceDetector::onSync(unsigned warpId, std::uint32_t mask, std::uint32_t pc,
                     Cycle cycle)
{
    (void)pc;
    (void)cycle;
    if (mask == 0)
        return;
    joinLanes(warps_[warpId], mask);
}

std::string
RaceDetector::report() const
{
    std::string out;
    for (const RaceReport &r : races_) {
        out += "race: ";
        out += r.storeStore ? "store/store" : "store/load";
        out += " pc " + std::to_string(r.pcA) + " (lane " +
               std::to_string(r.laneA) + ") vs pc " +
               std::to_string(r.pcB) + " (lane " +
               std::to_string(r.laneB) + "), warp " +
               std::to_string(r.warpId) + ", addr 0x";
        char hex[20];
        std::snprintf(hex, sizeof(hex), "%llx",
                      static_cast<unsigned long long>(r.addr));
        out += hex;
        out += ", cycle " + std::to_string(r.cycle) + "\n";
    }
    return out;
}

void
RaceDetector::reset()
{
    warps_.clear();
    shadow_.clear();
    races_.clear();
}

} // namespace si
