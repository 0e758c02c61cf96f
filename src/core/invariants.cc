#include "core/invariants.hh"

#include <cstdarg>
#include <cstdio>
#include <map>

namespace si {

namespace {

const char *
stateName(ThreadState s)
{
    switch (s) {
      case ThreadState::Inactive: return "INACTIVE";
      case ThreadState::Active: return "ACTIVE";
      case ThreadState::Ready: return "READY";
      case ThreadState::Blocked: return "BLOCKED";
      case ThreadState::Stalled: return "STALLED";
    }
    return "?";
}

std::string
fmt(const char *format, ...)
{
    char buf[256];
    std::va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

} // namespace

std::string
describeWarpState(const Warp &warp)
{
    std::string out =
        fmt("warp %u (pb %u): live=0x%08x\n", warp.id(), warp.pb(),
            warp.live().raw());

    // One line per (state, pc) subwarp, states in machine order.
    for (ThreadState s : {ThreadState::Active, ThreadState::Ready,
                          ThreadState::Blocked, ThreadState::Stalled}) {
        const ThreadMask lanes = warp.lanesInState(s);
        if (lanes.empty())
            continue;
        std::map<std::uint32_t, ThreadMask> by_pc;
        for (unsigned lane : lanesOf(lanes))
            by_pc[warp.pc(lane)].set(lane);
        for (const auto &[pc, mask] : by_pc) {
            out += fmt("  %-8s pc=%-5u mask=0x%08x", stateName(s), pc,
                       mask.raw());
            if (s == ThreadState::Blocked) {
                const BarIndex b = warp.blockedOn(mask.lowest());
                out += b == barNone ? " bar=?" : fmt(" bar=B%u", b);
            }
            out += "\n";
        }
    }

    for (BarIndex b = 0; b < Warp::numBarriers; ++b) {
        if (warp.barrier(b).any()) {
            out += fmt("  barrier B%-2u participants=0x%08x\n", b,
                       warp.barrier(b).raw());
        }
    }

    const ScoreboardFile &sb = warp.scoreboards();
    for (unsigned s = 0; s < ScoreboardFile::numSb; ++s) {
        const ThreadMask outstanding = sb.busy(SbIndex(s));
        if (outstanding.any()) {
            out += fmt("  scoreboard sb%u outstanding=0x%08x max=%u\n", s,
                       outstanding.raw(),
                       sb.maxCount(outstanding, SbIndex(s)));
        }
    }

    const auto &tst = warp.tst();
    for (std::size_t i = 0; i < tst.size(); ++i) {
        if (!tst[i].valid)
            continue;
        out += fmt("  tst[%zu] members=0x%08x pc=%u sb=%u count=%u\n", i,
                   tst[i].members.raw(), tst[i].pc, tst[i].sbId,
                   tst[i].sbCount);
    }
    return out;
}

std::string
auditWarpInvariants(const Warp &warp, const PendingWbCounts &pending)
{
    const ThreadMask live = warp.live();

    // The ACTIVE subwarp must be PC-aligned.
    const ThreadMask active = warp.activeMask();
    if (active.any()) {
        const std::uint32_t pc0 = warp.pc(active.lowest());
        for (unsigned lane : lanesOf(active)) {
            if (warp.pc(lane) != pc0) {
                return fmt("ACTIVE subwarp spans pcs %u and %u", pc0,
                           warp.pc(lane));
            }
        }
    }

    // Barrier coverage: a BLOCKED lane must be registered in the
    // barrier it waits on, or reconvergence can never release it.
    for (unsigned lane : lanesOf(warp.lanesInState(ThreadState::Blocked))) {
        const BarIndex b = warp.blockedOn(lane);
        if (b == barNone || b >= Warp::numBarriers)
            return fmt("BLOCKED lane %u waits on no barrier", lane);
        if (!warp.barrier(b).test(lane)) {
            return fmt("BLOCKED lane %u missing from barrier B%u "
                       "participation mask",
                       lane, b);
        }
    }

    // Scoreboard release balance: counts were incremented at issue and
    // are decremented exactly once per in-flight writeback, so every
    // per-lane count must equal its pending-writeback coverage. The
    // busy masks are a cache of the counts, so each must name exactly
    // the lanes with writebacks in flight (a stale mask would let a
    // consumer issue early or stall forever).
    const ScoreboardFile &sb = warp.scoreboards();
    for (unsigned s = 0; s < ScoreboardFile::numSb; ++s) {
        ThreadMask pending_lanes;
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            const std::uint8_t have = sb.count(lane, SbIndex(s));
            const std::uint32_t expect = pending[lane][s];
            if (have != expect) {
                return fmt("scoreboard release imbalance: lane %u sb%u "
                           "count %u vs %u in-flight writebacks",
                           lane, s, have, expect);
            }
            if (expect != 0)
                pending_lanes.set(lane);
        }
        if (sb.busy(SbIndex(s)) != pending_lanes) {
            return fmt("scoreboard sb%u busy mask 0x%08x is stale: lanes "
                       "0x%08x have writebacks in flight",
                       s, sb.busy(SbIndex(s)).raw(), pending_lanes.raw());
        }
    }

    // TST hygiene.
    const ThreadMask stalled = warp.lanesInState(ThreadState::Stalled);
    ThreadMask covered;
    for (std::size_t i = 0; i < warp.tst().size(); ++i) {
        const TstEntry &e = warp.tst()[i];
        if (!e.valid)
            continue;
        const ThreadMask members = e.members & live;
        if ((members & stalled).empty())
            return fmt("tst[%zu] leaked: no live STALLED members", i);
        if ((members & covered).any())
            return fmt("tst[%zu] overlaps another valid entry", i);
        covered |= members;
        if (e.sbId == sbNone || e.sbId >= ScoreboardFile::numSb)
            return fmt("tst[%zu] has no blocking scoreboard", i);
        if (sb.ready(members, std::uint8_t(1u << e.sbId))) {
            return fmt("tst[%zu] missed wakeup: sb%u drained but entry "
                       "still valid",
                       i, e.sbId);
        }
    }
    if ((stalled - covered).any()) {
        return fmt("STALLED lanes 0x%08x not covered by any TST entry",
                   (stalled - covered).raw());
    }

    return "";
}

} // namespace si
