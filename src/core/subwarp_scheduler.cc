#include "core/subwarp_scheduler.hh"

#include <algorithm>

#include "common/sim_error.hh"
#include "race/hooks.hh"

namespace si {

namespace {

/** True when every lane of @p m is BLOCKED on barrier @p bar. */
bool
allBlockedOn(const Warp &warp, ThreadMask m, BarIndex bar)
{
    if (!m.subsetOf(warp.lanesInState(ThreadState::Blocked)))
        return false;
    for (unsigned lane : lanesOf(m)) {
        if (warp.blockedOn(lane) != bar)
            return false;
    }
    return true;
}

} // namespace

SubwarpUnit::SubwarpUnit(const GpuConfig &config, std::uint64_t rng_seed,
                         unsigned sm_id)
    : config_(config), rng_(rng_seed), smId_(sm_id)
{
}

void
SubwarpUnit::diverge(Warp &warp, ThreadMask taken, std::uint32_t taken_pc,
                     std::uint32_t fallthrough_pc, std::int8_t stall_hint,
                     Cycle now)
{
    const ThreadMask active = warp.activeMask();
    const ThreadMask not_taken = active - taken;
    sim_throw_if(taken.empty() || not_taken.empty(),
                 ErrorKind::Internal,
                 "diverge() called on a uniform branch");

    bool keep_taken;
    switch (config_.divergeOrder) {
      case DivergeOrder::TakenFirst:
        keep_taken = true;
        break;
      case DivergeOrder::NotTakenFirst:
        keep_taken = false;
        break;
      case DivergeOrder::HintStallFirst:
        // Prefer the path the compiler marked as stall-heavy so the
        // other path is banked for latency tolerance.
        keep_taken = stall_hint > 0;
        break;
      case DivergeOrder::Random:
      default:
        keep_taken = rng_.chance(0.5f);
        break;
    }

    const ThreadMask keep = keep_taken ? taken : not_taken;
    const ThreadMask demote = keep_taken ? not_taken : taken;
    const std::uint32_t keep_pc = keep_taken ? taken_pc : fallthrough_pc;
    const std::uint32_t demote_pc = keep_taken ? fallthrough_pc : taken_pc;

    warp.setPc(keep, keep_pc);
    warp.setPc(demote, demote_pc);
    warp.setState(demote, ThreadState::Ready);
    ++stats_.divergentBranches;
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::SubwarpDiverge, now,
                            keep_pc, keep.raw(), demote.raw(), demote_pc));
}

bool
SubwarpUnit::arriveBsync(Warp &warp, BarIndex bar, std::uint32_t sync_pc,
                         Cycle now)
{
    const ThreadMask active = warp.activeMask();
    const ThreadMask participants = warp.barrier(bar) & warp.live();
    const ThreadMask others = participants - active;

    // Successful BSYNC: every other participant is blocked *on this
    // barrier* (or dead). A thread blocked on a different barrier has
    // not arrived here.
    if (allBlockedOn(warp, others, bar)) {
        warp.setState(participants, ThreadState::Active);
        for (unsigned lane : lanesOf(participants))
            warp.setBlockedOn(lane, barNone);
        // Lanes that executed this BSYNC without having registered in
        // the barrier (legal for degenerate codegen) also continue.
        warp.setPc(participants | active, sync_pc + 1);
        warp.setBarrier(bar, ThreadMask());
        ++stats_.reconvergences;
        // Reconvergence is a happens-before edge for the race
        // sanitizer: every lane that passed this BSYNC (participants
        // plus unregistered arrivals) has synchronized.
        if (config_.raceHooks != nullptr) {
            config_.raceHooks->onSync(warp.logicalId,
                                      (participants | active).raw(),
                                      sync_pc, now);
        }
        SI_EMIT_EVENT(config_.traceSink,
                      makeEvent(warp, TraceEventKind::SubwarpReconverge,
                                now, sync_pc, participants.raw(), 0, bar));
        return true;
    }

    // Unsuccessful BSYNC: block and hand the slot to a READY subwarp.
    warp.setState(active, ThreadState::Blocked);
    for (unsigned lane : lanesOf(active))
        warp.setBlockedOn(lane, bar);
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::SubwarpBlock, now,
                            sync_pc, active.raw(), 0, bar));
    select(warp, now);
    return false;
}

void
SubwarpUnit::releaseBarrier(Warp &warp, BarIndex bar, Cycle now)
{
    // The full barrier mask (dead lanes included) — the exited
    // participants whose completion triggered this release are a
    // happens-before predecessor of the lanes released below.
    const ThreadMask all_participants = warp.barrier(bar);
    const ThreadMask blocked = all_participants & warp.live();
    warp.setState(blocked, ThreadState::Active);
    for (unsigned lane : lanesOf(blocked)) {
        warp.setBlockedOn(lane, barNone);
        warp.setPc(lane, warp.pc(lane) + 1);
    }
    warp.setBarrier(bar, ThreadMask());
    ++stats_.barrierReleasesOnExit;
    if (config_.raceHooks != nullptr && all_participants.any()) {
        config_.raceHooks->onSync(warp.logicalId, all_participants.raw(),
                                  0, now);
    }
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::BarrierRelease, now, 0,
                            blocked.raw(), 0, bar));
}

void
SubwarpUnit::exitLanes(Warp &warp, ThreadMask kill, Cycle now)
{
    warp.killLanes(kill & warp.activeMask());

    if (warp.done())
        return;

    // A barrier whose surviving participants are all blocked can never
    // be completed by an arriving subwarp — release it now.
    for (BarIndex b = 0; b < Warp::numBarriers; ++b) {
        const ThreadMask parts = warp.barrier(b) & warp.live();
        if (parts.any() && allBlockedOn(warp, parts, b))
            releaseBarrier(warp, b, now);
    }

    if (warp.activeMask().empty())
        select(warp, now);
}

bool
SubwarpUnit::subwarpStall(Warp &warp, std::uint8_t req_mask, Cycle now)
{
    if (!config_.siEnabled)
        return false;

    const ThreadMask active = warp.activeMask();
    sim_throw_if(active.empty(), ErrorKind::Internal,
                 "subwarp-stall with no active subwarp");
    if (warp.lanesInState(ThreadState::Ready).empty())
        return false;

    // Binning limit: a demotion needs a free TST entry.
    auto &tst = warp.tst();
    if (tst.size() < config_.maxSubwarps)
        tst.resize(config_.maxSubwarps);
    TstEntry *entry = nullptr;
    for (auto &e : tst) {
        if (!e.valid) {
            entry = &e;
            break;
        }
    }
    if (!entry) {
        ++stats_.stallDemotionsDeniedTstFull;
        if (!warp.tstFullSignalled) {
            warp.tstFullSignalled = true;
            SI_EMIT_EVENT(config_.traceSink,
                          makeEvent(warp, TraceEventKind::TstFull, now,
                                    warp.activePc(), active.raw()));
        }
        return false;
    }
    warp.tstFullSignalled = false;

    const ScoreboardFile &sb = warp.scoreboards();
    entry->valid = true;
    entry->members = active;
    entry->pc = warp.activePc();
    entry->sbId = sb.firstBlocking(active, req_mask);
    entry->sbCount = entry->sbId == sbNone
                         ? 0
                         : sb.maxCount(active, entry->sbId);
    sim_throw_if(entry->sbId == sbNone, ErrorKind::Internal,
                 "subwarp-stall but no scoreboard is blocking");

    warp.setState(active, ThreadState::Stalled);
    ++stats_.subwarpStalls;
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::SubwarpStall, now,
                            entry->pc, active.raw(), 0, entry->sbId));

    select(warp, now);
    return true;
}

bool
SubwarpUnit::subwarpYield(Warp &warp, Cycle now)
{
    if (!config_.siEnabled || !config_.yieldEnabled)
        return false;

    const ThreadMask active = warp.activeMask();
    sim_throw_if(active.empty(), ErrorKind::Internal,
                 "subwarp-yield with no active subwarp");

    // Yield is only profitable when a *different* subwarp can take over;
    // otherwise selection would fall straight back to us (paper III-B).
    const std::uint32_t yielded_pc = warp.activePc();
    const ThreadMask ready = warp.lanesInState(ThreadState::Ready);
    if (warp.lanesAtPc(ready, yielded_pc) == ready)
        return false;

    warp.setState(active, ThreadState::Ready);
    ++stats_.subwarpYields;
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::SubwarpYield, now,
                            yielded_pc, active.raw()));

    if (!select(warp, now, yielded_pc)) {
        // Unreachable given the pre-check, but keep the warp runnable.
        warp.setState(active, ThreadState::Active);
        return false;
    }
    return true;
}

void
SubwarpUnit::wakeup(Warp &warp, SbIndex sb, Cycle now)
{
    const ScoreboardFile &sbf = warp.scoreboards();
    for (auto &entry : warp.tst()) {
        if (!entry.valid || entry.sbId != sb)
            continue;
        if (entry.sbCount > 0)
            --entry.sbCount;
        // The recorded count is the hardware mechanism; the replicated
        // per-thread counters are the ground truth, and the two agree
        // because writebacks are broadcast exactly once per decrement.
        if (sbf.ready(entry.members & warp.live(),
                      std::uint8_t(1u << entry.sbId))) {
            warp.setState(entry.members &
                              warp.lanesInState(ThreadState::Stalled),
                          ThreadState::Ready);
            entry.valid = false;
            ++stats_.subwarpWakeups;
            SI_EMIT_EVENT(config_.traceSink,
                          makeEvent(warp, TraceEventKind::SubwarpWakeup,
                                    now, entry.pc,
                                    (entry.members & warp.live()).raw(),
                                    0, sb));
        }
    }
}

bool
SubwarpUnit::select(Warp &warp, Cycle now, std::uint32_t avoid_pc)
{
    if (warp.activeMask().any())
        return false;

    const ThreadMask ready = warp.lanesInState(ThreadState::Ready);
    if (ready.empty())
        return false;

    // Round-robin across PCs: the lowest READY pc above the cursor,
    // else the lowest READY pc; pcs equal to avoid_pc are skipped
    // unless they are the only choice. PCs index the program, so the
    // all-ones sentinel never names a real subwarp.
    constexpr std::uint32_t noPc = 0xffffffffu;
    std::uint32_t next_pc = noPc, eligible_pc = noPc, lowest_pc = noPc;
    for (unsigned lane : lanesOf(ready)) {
        const std::uint32_t p = warp.pc(lane);
        lowest_pc = std::min(lowest_pc, p);
        if (p == avoid_pc)
            continue;
        eligible_pc = std::min(eligible_pc, p);
        if (p > warp.selectCursor)
            next_pc = std::min(next_pc, p);
    }
    const std::uint32_t pc = next_pc != noPc       ? next_pc
                             : eligible_pc != noPc ? eligible_pc
                                                   : lowest_pc;
    const ThreadMask chosen = warp.lanesAtPc(ready, pc);

    warp.setState(chosen, ThreadState::Active);
    warp.selectCursor = pc;
    warp.longOpsSinceSwitch = 0;
    warp.issueReadyAt = std::max(warp.issueReadyAt,
                                 now + config_.switchLatency);
    warp.inFetchStall = false;
    ++stats_.subwarpSelects;
    SI_EMIT_EVENT(config_.traceSink,
                  makeEvent(warp, TraceEventKind::SubwarpSelect, now, pc,
                            chosen.raw()));
    return true;
}

} // namespace si
