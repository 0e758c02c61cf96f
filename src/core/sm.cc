#include "core/sm.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "core/invariants.hh"
#include "isa/op_table.hh"
#include "race/hooks.hh"
#include "trace/events.hh"

namespace si {

namespace {

/**
 * Classify a lost issue slot as one of the paper's Figure 3 stall
 * reasons. A ScoreboardStall or WaitWakeup warp is a load-to-use,
 * barrier, or no-ready-subwarp slot, which is what
 * SmStats::warpScoreboardStallCycles() sums.
 */
StallReason
classifyStall(const Warp &w, WarpStatus st)
{
    switch (st) {
      case WarpStatus::ScoreboardStall:
        return StallReason::LoadToUse;
      case WarpStatus::FetchStall:
        return StallReason::IFetch;
      case WarpStatus::PipeStall:
        return StallReason::Pipe;
      case WarpStatus::Busy:
        return StallReason::Switch;
      case WarpStatus::WaitWakeup:
      default:
        return w.lanesInState(ThreadState::Blocked).any()
                   ? StallReason::Barrier
                   : StallReason::NoReadySubwarp;
    }
}

/**
 * Cycles until a producer's destination register may be read. Long
 * producers are guarded by their scoreboards and only need the issue
 * slot.
 */
Cycle
resultLatency(OpClass cls, const LatencyConfig &lat)
{
    switch (cls) {
      case OpClass::HeavyAlu:
        return lat.heavyAlu;
      case OpClass::Transcendental:
        return lat.transcendental;
      case OpClass::ConstLoad:
        return lat.constLoad;
      case OpClass::GlobalLoad:
      case OpClass::Texture:
      case OpClass::RtQuery:
        return 1;
      default:
        return lat.alu;
    }
}

TraceEvent
warpEvent(unsigned sm_id, const Warp &w, TraceEventKind kind, Cycle now)
{
    TraceEvent ev;
    ev.cycle = now;
    ev.warpId = std::uint16_t(w.id());
    ev.smId = std::uint8_t(sm_id);
    ev.pb = std::uint8_t(w.pb());
    ev.kind = kind;
    return ev;
}

TraceEvent
cacheEvent(TraceEventKind kind, unsigned sm_id, const Warp &w, Cycle now,
           TraceCacheLevel level, Cache::AccessResult res, Addr line,
           std::uint32_t pc)
{
    TraceEvent ev = warpEvent(sm_id, w, kind, now);
    ev.addr = line;
    ev.pc = pc;
    ev.mask = w.activeMask().raw();
    ev.arg = std::uint32_t(level) | (std::uint32_t(res.hit) << 8) |
             (std::uint32_t(res.evicted) << 9);
    return ev;
}

} // namespace

void
RegionCounters::accumulate(const RegionCounters &other)
{
    warpCycles += other.warpCycles;
    instrsIssued += other.instrsIssued;
    arbLossCycles += other.arbLossCycles;
    for (std::size_t i = 0; i < stallCyclesByReason.size(); ++i)
        stallCyclesByReason[i] += other.stallCyclesByReason[i];
}

void
SmStats::accumulate(const SmStats &other)
{
    cycles = std::max(cycles, other.cycles);
    instrsIssued += other.instrsIssued;
    warpsRetired += other.warpsRetired;
    noIssueCycles += other.noIssueCycles;
    gmemTransactions += other.gmemTransactions;
    exposedLoadStallCycles += other.exposedLoadStallCycles;
    exposedLoadStallCyclesDivergent += other.exposedLoadStallCyclesDivergent;
    exposedFetchStallCycles += other.exposedFetchStallCycles;
    ldgIssued += other.ldgIssued;
    texIssued += other.texIssued;
    rtQueriesIssued += other.rtQueriesIssued;
    stgIssued += other.stgIssued;
    divergentBranches += other.divergentBranches;
    reconvergences += other.reconvergences;
    subwarpSelects += other.subwarpSelects;
    subwarpStalls += other.subwarpStalls;
    subwarpWakeups += other.subwarpWakeups;
    subwarpYields += other.subwarpYields;
    tstFullDenials += other.tstFullDenials;
    l1dHits += other.l1dHits;
    l1dMisses += other.l1dMisses;
    l1iHits += other.l1iHits;
    l1iMisses += other.l1iMisses;
    l0iHits += other.l0iHits;
    l0iMisses += other.l0iMisses;
    liveWarpCycles += other.liveWarpCycles;
    arbLossCycles += other.arbLossCycles;
    for (std::size_t i = 0; i < stallCyclesByReason.size(); ++i)
        stallCyclesByReason[i] += other.stallCyclesByReason[i];
    warpCyclesSubwarpFull += other.warpCyclesSubwarpFull;
    warpCyclesSubwarpPartial += other.warpCyclesSubwarpPartial;
    warpCyclesSubwarpNone += other.warpCyclesSubwarpNone;
    if (regions.size() < other.regions.size())
        regions.resize(other.regions.size());
    for (std::size_t i = 0; i < other.regions.size(); ++i)
        regions[i].accumulate(other.regions[i]);
}

void
SmStats::save(SnapshotWriter &w) const
{
    w.tag(SnapTag::Stats);
    w.u64(cycles);
    w.u64(instrsIssued);
    w.u64(warpsRetired);
    w.u64(noIssueCycles);
    w.u64(exposedLoadStallCycles);
    w.f64(exposedLoadStallCyclesDivergent);
    w.u64(exposedFetchStallCycles);
    w.u64(warpScoreboardStallCycles());
    w.u64(warpPipeStallCycles());
    w.u64(warpFetchStallCycles());
    w.u64(warpSwitchCycles());
    w.u64(ldgIssued);
    w.u64(gmemTransactions);
    w.u64(texIssued);
    w.u64(rtQueriesIssued);
    w.u64(stgIssued);
    w.u64(divergentBranches);
    w.u64(reconvergences);
    w.u64(subwarpSelects);
    w.u64(subwarpStalls);
    w.u64(subwarpWakeups);
    w.u64(subwarpYields);
    w.u64(tstFullDenials);
    w.u64(l1dHits);
    w.u64(l1dMisses);
    w.u64(l1iHits);
    w.u64(l1iMisses);
    w.u64(l0iHits);
    w.u64(l0iMisses);
    w.u64(liveWarpCycles);
    w.u64(arbLossCycles);
    for (std::uint64_t v : stallCyclesByReason)
        w.u64(v);
    w.u64(warpCyclesSubwarpFull);
    w.u64(warpCyclesSubwarpPartial);
    w.u64(warpCyclesSubwarpNone);
    w.u64(regions.size());
    for (const RegionCounters &rc : regions) {
        w.u64(rc.warpCycles);
        w.u64(rc.instrsIssued);
        w.u64(rc.arbLossCycles);
        for (std::uint64_t v : rc.stallCyclesByReason)
            w.u64(v);
    }
}

void
SmStats::restore(SnapshotReader &r)
{
    r.tag(SnapTag::Stats);
    cycles = r.u64();
    instrsIssued = r.u64();
    warpsRetired = r.u64();
    noIssueCycles = r.u64();
    exposedLoadStallCycles = r.u64();
    exposedLoadStallCyclesDivergent = r.f64();
    exposedFetchStallCycles = r.u64();
    // The per-status words precede the reason counts they derive from;
    // checked once those are read.
    std::array<std::uint64_t, 4> per_status;
    for (std::uint64_t &v : per_status)
        v = r.u64();
    ldgIssued = r.u64();
    gmemTransactions = r.u64();
    texIssued = r.u64();
    rtQueriesIssued = r.u64();
    stgIssued = r.u64();
    divergentBranches = r.u64();
    reconvergences = r.u64();
    subwarpSelects = r.u64();
    subwarpStalls = r.u64();
    subwarpWakeups = r.u64();
    subwarpYields = r.u64();
    tstFullDenials = r.u64();
    l1dHits = r.u64();
    l1dMisses = r.u64();
    l1iHits = r.u64();
    l1iMisses = r.u64();
    l0iHits = r.u64();
    l0iMisses = r.u64();
    liveWarpCycles = r.u64();
    arbLossCycles = r.u64();
    for (std::uint64_t &v : stallCyclesByReason)
        v = r.u64();
    const std::array<std::uint64_t, 4> derived{
        warpScoreboardStallCycles(), warpPipeStallCycles(),
        warpFetchStallCycles(), warpSwitchCycles()};
    sim_throw_if(per_status != derived, ErrorKind::Snapshot,
                 "stats: per-status stall words disagree with the "
                 "per-reason counts");
    warpCyclesSubwarpFull = r.u64();
    warpCyclesSubwarpPartial = r.u64();
    warpCyclesSubwarpNone = r.u64();
    regions.resize(
        r.count(sizeof(std::uint64_t) * (3 + numStallReasons)));
    for (RegionCounters &rc : regions) {
        rc.warpCycles = r.u64();
        rc.instrsIssued = r.u64();
        rc.arbLossCycles = r.u64();
        for (std::uint64_t &v : rc.stallCyclesByReason)
            v = r.u64();
    }
}

Sm::Sm(unsigned id, const GpuConfig &config, Memory &memory,
       const Bvh *scene)
    : id_(id),
      config_(config),
      memory_(memory),
      l1d_(config.l1d),
      l1i_(config.l1i),
      rtcore_(scene, config.rtc),
      unit_(config, Rng::streamSeed(config.rngSeed, id), id)
{
    pbs_.reserve(config.pbsPerSm);
    for (unsigned p = 0; p < config.pbsPerSm; ++p)
        pbs_.emplace_back(config.l0i);
    if (config.maxOutstandingMisses > 0)
        mshrFreeAt_.assign(config.maxOutstandingMisses, 0);
}

Cycle
Sm::missCompletion(Cycle now, Cycle base_latency)
{
    if (mshrFreeAt_.empty())
        return now + base_latency;
    auto slot = std::min_element(mshrFreeAt_.begin(), mshrFreeAt_.end());
    const Cycle start = std::max(now, *slot);
    *slot = start + base_latency;
    return start + base_latency;
}

void
Sm::addWarp(std::unique_ptr<Warp> warp)
{
    if (maxResidentPerPb_ == 0) {
        const unsigned regs_per_warp =
            warp->program().numRegs() * warpSize;
        unsigned by_regs = config_.regFilePerPb / regs_per_warp;
        sim_throw_if(by_regs == 0, ErrorKind::Config,
                     "kernel '%s' needs %u registers/warp; register file "
                     "holds only %u",
                     warp->program().name().c_str(), regs_per_warp,
                     config_.regFilePerPb);
        // Informational bound for single-kernel launches; admission
        // itself checks slots and register-file headroom per warp.
        maxResidentPerPb_ =
            std::max(1u, std::min(config_.warpSlotsPerPb, by_regs));
    }
    // Every pc of the largest program, plus the "(no subwarp)" row.
    stallsByPc_.resize(
        std::max(stallsByPc_.size(), std::size_t(warp->program().size()) + 1));
    warps_.push_back(std::move(warp));
    pendingAdmission_.push_back(unsigned(warps_.size() - 1));
    statusScratch_.resize(warps_.size(), WarpStatus::Done);
    wakeScratch_.resize(warps_.size(), invalidCycle);
}

bool
Sm::done() const
{
    if (!pendingAdmission_.empty())
        return false;
    for (const auto &w : warps_) {
        if (!w->done())
            return false;
    }
    return true;
}

void
Sm::drainWritebacks(Cycle now)
{
    while (!events_.empty() && events_.front().when <= now) {
        const Writeback wb = popWriteback();
        tickDirty_ = true;
        Warp &w = *warps_[wb.warpIdx];
        w.scoreboards().decr(wb.mask, wb.sb);
        SI_EMIT_EVENT(config_.traceSink, [&] {
            TraceEvent ev =
                warpEvent(id_, w, TraceEventKind::Writeback, now);
            ev.mask = wb.mask.raw();
            ev.arg = std::uint32_t(wb.sb) |
                     (std::uint32_t(wb.port) << 8);
            return ev;
        }());
        unit_.wakeup(w, wb.sb, now);
    }
}

void
Sm::admitWarps()
{
    for (auto &pb : pbs_) {
        auto &resident = pb.resident;
        // Single-pass stable compaction: each retired warp is swept in
        // O(1) instead of the former erase-in-loop's O(n) shift, and
        // the survivors keep their relative order, so the GTO/LRR scans
        // (which walk resident order / positions) pick identical warps.
        std::size_t out = 0;
        for (std::size_t i = 0; i < resident.size(); ++i) {
            const unsigned wi = resident[i];
            if (!warps_[wi]->done()) {
                resident[out++] = wi;
                continue;
            }
            tickDirty_ = true;
            ++stats_.warpsRetired;
            if (pb.gtoCurrent == int(wi))
                pb.gtoCurrent = -1;
            pb.regsInUse -= warps_[wi]->program().numRegs() * warpSize;
        }
        resident.resize(out);
    }
    // Admission into the least-loaded processing block that has both a
    // free warp slot and register-file headroom for this warp. In-order
    // admission (head-of-line blocking), as launch queues drain FIFO.
    while (!pendingAdmission_.empty()) {
        const unsigned wi = pendingAdmission_.front();
        const unsigned warp_regs =
            warps_[wi]->program().numRegs() * warpSize;

        ProcessingBlock *best = nullptr;
        for (auto &pb : pbs_) {
            if (pb.resident.size() >= config_.warpSlotsPerPb)
                continue;
            if (pb.regsInUse + warp_regs > config_.regFilePerPb)
                continue;
            if (!best || pb.resident.size() < best->resident.size())
                best = &pb;
        }
        if (!best)
            break;
        tickDirty_ = true;
        pendingAdmission_.pop_front();
        warps_[wi]->setPb(unsigned(best - pbs_.data()));
        best->resident.push_back(wi);
        best->regsInUse += warp_regs;
    }
}

WarpStatus
Sm::evalWarp(unsigned warp_idx, Cycle now)
{
    Warp &w = *warps_[warp_idx];
    // Status-expiry scratch for the fast-forward horizon: overwritten
    // below on paths whose status ends at a known cycle; statuses that
    // only a writeback (events_) can change leave it at invalidCycle.
    wakeScratch_[warp_idx] = invalidCycle;
    if (w.done())
        return WarpStatus::Done;

    if (w.activeMask().empty()) {
        if (w.lanesInState(ThreadState::Ready).any()) {
            if (now >= w.issueReadyAt) {
                tickDirty_ = true;
                unit_.select(w, now);
            }
            wakeScratch_[warp_idx] = w.issueReadyAt;
            return WarpStatus::Busy;
        }
        if (w.lanesInState(ThreadState::Stalled).any())
            return WarpStatus::WaitWakeup;
        // Every live lane is BLOCKED and no subwarp can ever arrive to
        // complete a barrier: this warp is deadlocked. Unwind with the
        // full machinery state so the failure is diagnosable.
        throw SimError(
            ErrorKind::BarrierDeadlock,
            "sm" + std::to_string(id_) + " warp " + std::to_string(w.id()) +
                ": convergence barrier deadlock (all live lanes blocked, "
                "none ready or stalled)",
            describeWarpState(w));
    }

    if (now < w.issueReadyAt) {
        wakeScratch_[warp_idx] = w.issueReadyAt;
        return w.inFetchStall ? WarpStatus::FetchStall : WarpStatus::Busy;
    }

    // Front end: the instruction at the active PC must sit in the
    // per-warp fetch buffer, fed by L0I -> L1I.
    const std::uint32_t pc = w.activePc();
    if (w.fetchedPc != pc) {
        tickDirty_ = true;
        const Addr line = w.program().instrAddr(pc);
        ProcessingBlock &pb = pbs_[w.pb()];
        const Cache::AccessResult l0 = pb.l0i.accessEx(line);
        SI_EMIT_EVENT(config_.traceSink,
                      cacheEvent(TraceEventKind::CacheAccess, id_, w, now,
                                 TraceCacheLevel::L0I, l0, line, pc));
        w.fetchedPc = pc;
        if (!l0.hit) {
            SI_EMIT_EVENT(config_.traceSink,
                          cacheEvent(TraceEventKind::CacheFill, id_, w,
                                     now, TraceCacheLevel::L0I, l0, line,
                                     pc));
            const Cache::AccessResult l1 = l1i_.accessEx(line);
            SI_EMIT_EVENT(config_.traceSink,
                          cacheEvent(TraceEventKind::CacheAccess, id_, w,
                                     now, TraceCacheLevel::L1I, l1, line,
                                     pc));
            if (!l1.hit) {
                SI_EMIT_EVENT(config_.traceSink,
                              cacheEvent(TraceEventKind::CacheFill, id_,
                                         w, now, TraceCacheLevel::L1I, l1,
                                         line, pc));
            }
            w.issueReadyAt = now + (l1.hit ? config_.lat.l0iMiss
                                           : config_.lat.l1iMiss);
            w.inFetchStall = true;
            wakeScratch_[warp_idx] = w.issueReadyAt;
            return WarpStatus::FetchStall;
        }
    }
    w.inFetchStall = false;

    const Instr &in = w.program().at(pc);
    const ThreadMask active = w.activeMask();

    // Load-to-use stall: a required count-based scoreboard is nonzero.
    if (in.reqSbMask && !w.scoreboards().ready(active, in.reqSbMask))
        return WarpStatus::ScoreboardStall;

    // Short-latency operand dependences.
    Cycle ready_at = 0;
    ready_at = std::max(ready_at, w.regReadyAt(in.srcA));
    if (!in.bImm)
        ready_at = std::max(ready_at, w.regReadyAt(in.srcB));
    ready_at = std::max(ready_at, w.regReadyAt(in.srcC));
    ready_at = std::max(ready_at, w.predReadyAt(in.guard));
    if (in.op == Opcode::SEL)
        ready_at = std::max(ready_at, w.predReadyAt(in.pdst));
    if (ready_at > now) {
        wakeScratch_[warp_idx] = ready_at;
        return WarpStatus::PipeStall;
    }

    return WarpStatus::Issuable;
}

void
Sm::pushWriteback(Cycle when, unsigned warp_idx, ThreadMask mask,
                  SbIndex sb, WbPort port)
{
    events_.push_back(
        Writeback{when, nextWbSeq_++, warp_idx, mask, sb, port});
    std::push_heap(events_.begin(), events_.end(), Writeback::later);
}

Sm::Writeback
Sm::popWriteback()
{
    std::pop_heap(events_.begin(), events_.end(), Writeback::later);
    const Writeback wb = events_.back();
    events_.pop_back();
    return wb;
}

RegionCounters &
Sm::regionAt(std::uint32_t idx)
{
    if (stats_.regions.size() <= idx)
        stats_.regions.resize(std::size_t(idx) + 1);
    return stats_.regions[idx];
}

bool
Sm::stallIsDivergent(const Warp &warp, WarpStatus status) const
{
    const unsigned live = warp.live().count();
    if (status == WarpStatus::ScoreboardStall)
        return warp.activeMask().count() < live;
    if (status == WarpStatus::WaitWakeup) {
        for (const auto &e : warp.tst()) {
            if (e.valid && (e.members & warp.live()).count() < live)
                return true;
        }
        return false;
    }
    return false;
}

void
Sm::issue(unsigned warp_idx, Cycle now)
{
    Warp &w = *warps_[warp_idx];
    const std::uint32_t pc = w.activePc();
    const Instr &in = w.program().at(pc);
    const ThreadMask active = w.activeMask();

    // Guard: lanes whose predicate passes actually execute; all active
    // lanes advance past the instruction regardless.
    ThreadMask exec;
    for (unsigned lane : lanesOf(active)) {
        if (w.predicate(lane, in.guard) != in.guardNeg)
            exec.set(lane);
    }

    ++stats_.instrsIssued;
    w.lastIssueCycle = now;

    // The differential oracle's retirement traces are derived from
    // Issue events.
    SI_EMIT_EVENT(config_.traceSink, [&] {
        TraceEvent ev = warpEvent(id_, w, TraceEventKind::Issue, now);
        ev.pc = pc;
        ev.mask = active.raw();
        ev.mask2 = exec.raw();
        ev.arg = std::uint32_t(in.op);
        return ev;
    }());

    auto advance = [&]() {
        for (unsigned lane : lanesOf(active))
            w.setPc(lane, pc + 1);
    };

    auto for_exec = [&](auto &&fn) {
        for (unsigned lane : lanesOf(exec))
            fn(lane);
    };

    auto rd = [&](unsigned lane, RegIndex r) { return w.reg(lane, r); };
    auto rdf = [&](unsigned lane, RegIndex r) {
        return asFloat(w.reg(lane, r));
    };

    // Dynamic race sanitizer feed (race/hooks.hh): per-lane addresses of
    // every global-memory access, captured at issue time.
    auto race_event = [&](bool is_store,
                          const std::array<Addr, warpSize> &addrs) {
        MemAccessEvent ev;
        ev.cycle = now;
        ev.smId = id_;
        ev.warpId = w.logicalId;
        ev.pc = pc;
        ev.execMask = exec.raw();
        ev.activeMask = active.raw();
        ev.isStore = is_store;
        ev.addr = addrs;
        config_.raceHooks->onAccess(ev);
    };

    const LatencyConfig &lat = config_.lat;
    const Cycle result_lat = resultLatency(opInfo(in.op).cls, lat);
    bool advanced = false;

    switch (in.op) {
      case Opcode::NOP:
        break;

      case Opcode::LDC:
        for_exec([&](unsigned lane) {
            w.setReg(lane, in.dst,
                     memory_.readConst(std::uint32_t(in.imm)));
        });
        break;

      case Opcode::LDG:
      case Opcode::TEX:
      case Opcode::TLD: {
        const bool tex = in.op != Opcode::LDG;
        ++(tex ? stats_.texIssued : stats_.ldgIssued);
        bool any_miss = false;
        // Coalesce: one L1D transaction per unique line across lanes.
        std::array<Addr, warpSize> lines;
        std::array<Addr, warpSize> lane_addrs{};
        unsigned num_lines = 0;
        for (unsigned lane : lanesOf(exec)) {
            const Addr addr =
                tex ? texelAddress(rd(lane, in.srcA), rd(lane, in.srcB))
                    : Addr(rd(lane, in.srcA)) + Addr(std::int64_t(in.imm));
            lane_addrs[lane] = addr;
            w.setReg(lane, in.dst, memory_.read(addr));
            const Addr line = l1d_.lineOf(addr);
            bool seen = false;
            for (unsigned i = 0; i < num_lines; ++i)
                seen |= lines[i] == line;
            if (!seen)
                lines[num_lines++] = line;
        }
        if (config_.raceHooks != nullptr && exec.any())
            race_event(false, lane_addrs);
        for (unsigned i = 0; i < num_lines; ++i) {
            const Cache::AccessResult res = l1d_.accessEx(lines[i]);
            any_miss |= !res.hit;
            SI_EMIT_EVENT(config_.traceSink,
                          cacheEvent(TraceEventKind::CacheAccess, id_, w,
                                     now, TraceCacheLevel::L1D, res,
                                     lines[i], pc));
            if (!res.hit) {
                SI_EMIT_EVENT(config_.traceSink,
                              cacheEvent(TraceEventKind::CacheFill, id_,
                                         w, now, TraceCacheLevel::L1D,
                                         res, lines[i], pc));
            }
        }
        stats_.gmemTransactions += num_lines;
        if (exec.any() && in.wrSb != sbNone) {
            w.scoreboards().incr(exec, in.wrSb);
            const Cycle done = any_miss
                                   ? missCompletion(now, lat.l1Miss)
                                   : now + lat.l1Hit;
            pushWriteback(tex ? done + lat.texBase : done, warp_idx, exec,
                          in.wrSb, tex ? WbPort::Tex : WbPort::Lsu);
        }
        ++w.longOpsSinceSwitch;
        break;
      }

      case Opcode::STG: {
        ++stats_.stgIssued;
        std::array<Addr, warpSize> lane_addrs{};
        for_exec([&](unsigned lane) {
            const Addr addr =
                Addr(rd(lane, in.srcA)) + Addr(std::int64_t(in.imm));
            lane_addrs[lane] = addr;
            memory_.write(addr, rd(lane, in.srcB));
        });
        if (config_.raceHooks != nullptr && exec.any())
            race_event(true, lane_addrs);
        break;
      }

      case Opcode::RTQUERY: {
        ++stats_.rtQueriesIssued;
        sim_throw_if(!rtcore_.hasScene(), ErrorKind::Config,
                     "RTQUERY issued but no scene is attached");
        std::array<Ray, warpSize> rays;
        for (unsigned lane : lanesOf(exec)) {
            Ray &r = rays[lane];
            r.origin = {rdf(lane, RegIndex(in.srcA + 0)),
                        rdf(lane, RegIndex(in.srcA + 1)),
                        rdf(lane, RegIndex(in.srcA + 2))};
            r.dir = {rdf(lane, RegIndex(in.srcA + 3)),
                     rdf(lane, RegIndex(in.srcA + 4)),
                     rdf(lane, RegIndex(in.srcA + 5))};
        }
        const WarpQueryResult q = rtcore_.query(now, exec, rays);
        for (unsigned lane : lanesOf(exec)) {
            const Hit &h = q.hits[lane];
            w.setReg(lane, in.dst, h.valid ? h.materialId + 1 : 0);
            w.setReg(lane, RegIndex(in.dst + 1),
                     asBits(h.valid ? h.t : 1e30f));
            w.setReg(lane, RegIndex(in.dst + 2), h.primId);
        }
        if (exec.any() && in.wrSb != sbNone) {
            w.scoreboards().incr(exec, in.wrSb);
            pushWriteback(now + q.latency, warp_idx, exec, in.wrSb,
                          WbPort::Tex);
        }
        ++w.longOpsSinceSwitch;
        break;
      }

      case Opcode::BRA: {
        if (exec.empty()) {
            // No lane takes the branch.
            break;
        }
        if (exec == active) {
            for (unsigned lane : lanesOf(active))
                w.setPc(lane, in.target);
            advanced = true;
            break;
        }
        // Divergence: exec lanes take, the rest fall through.
        unit_.diverge(w, exec, in.target, pc + 1, in.stallHint, now);
        advanced = true;
        break;
      }

      case Opcode::BSSY:
        w.setBarrier(in.bar, w.barrier(in.bar) | active);
        break;

      case Opcode::BSYNC:
        unit_.arriveBsync(w, in.bar, pc, now);
        advanced = true;
        break;

      case Opcode::YIELD:
        advance();
        advanced = true;
        if (config_.siEnabled && config_.yieldEnabled)
            unit_.subwarpYield(w, now);
        break;

      case Opcode::MARKER:
        // Region marker: retag the warp's metrics region. Costs one
        // issue slot (NOP timing); the slot is attributed to the region
        // being opened, below.
        w.currentRegion = std::uint32_t(in.imm);
        break;

      case Opcode::EXIT: {
        if (exec == active) {
            unit_.exitLanes(w, exec, now);
        } else {
            // Partially guarded EXIT: survivors continue.
            for (unsigned lane : lanesOf(active - exec))
                w.setPc(lane, pc + 1);
            unit_.exitLanes(w, exec, now);
        }
        advanced = true;
        break;
      }

      default: {
        const bool lane_valued = withLaneOp(in.op, [&](auto op) {
            constexpr OpInfo info = opInfo(decltype(op)::value);
            for (unsigned lane : lanesOf(exec)) {
                const LaneArgs x{rd(lane, in.srcA),
                                 in.bImm ? std::uint32_t(in.imm)
                                         : rd(lane, in.srcB),
                                 rd(lane, in.srcC),
                                 w.predicate(lane, in.pdst),
                                 lane,
                                 w.logicalId,
                                 w.ctaId};
                const std::uint32_t v = info.lane(in, x);
                if constexpr (info.shape == OpShape::SetP)
                    w.setPredicate(lane, in.pdst, v != 0);
                else
                    w.setReg(lane, in.dst, v);
            }
            if constexpr (info.shape == OpShape::SetP)
                w.setPredReadyAt(in.pdst, now + result_lat);
        });
        sim_throw_if(!lane_valued, ErrorKind::Internal,
                     "unhandled opcode %s", opcodeName(in.op));
        break;
      }
    }

    // Region attribution of the issued slot, after the opcode switch so
    // a MARKER's own issue lands in the region it opens.
    {
        RegionCounters &rc = regionAt(w.currentRegion);
        ++rc.warpCycles;
        ++rc.instrsIssued;
    }

    if (!advanced)
        advance();

    // Warp completion marker.
    if (w.done()) {
        SI_EMIT_EVENT(config_.traceSink, [&] {
            TraceEvent ev =
                warpEvent(id_, w, TraceEventKind::WarpRetire, now);
            ev.pc = pc;
            return ev;
        }());
    }

    if (in.dst != regNone && in.op != Opcode::STG)
        w.setRegReadyAt(in.dst, now + result_lat);
    if (in.op == Opcode::RTQUERY) {
        w.setRegReadyAt(RegIndex(in.dst + 1), now + 1);
        w.setRegReadyAt(RegIndex(in.dst + 2), now + 1);
    }

    // Hardware-policy subwarp-yield: after a burst of long-latency
    // issues, eagerly hand the slot to another subwarp (Section III-B).
    if (config_.siEnabled && config_.yieldEnabled &&
        isLongLatency(in.op) &&
        w.longOpsSinceSwitch >= config_.yieldThreshold &&
        w.activeMask().any()) {
        unit_.subwarpYield(w, now);
    }
}

void
Sm::tick(Cycle now)
{
    if (done()) {
        // A finished SM is trivially quiet and can never wake: it must
        // not hold the other SMs' horizon down with stale scratch.
        lastTickQuiet_ = true;
        nextEventAt_ = invalidCycle;
        ffAnyLive_ = false;
        ffDeniedDelta_ = 0;
        return;
    }
    ++stats_.cycles;
    tickDirty_ = false;
    const std::uint64_t denied_before =
        unit_.stats().stallDemotionsDeniedTstFull;
    drainWritebacks(now);
    admitWarps();

    unsigned issued_total = 0;
    bool any_live = false;
    unsigned mem_stalled_warps = 0;
    unsigned mem_stalled_divergent = 0;
    bool any_fetch_stall = false;
    Cycle next_wake = invalidCycle;

    for (auto &pb : pbs_) {
        unsigned live = 0;
        unsigned stalled = 0;

        for (unsigned wi : pb.resident) {
            const WarpStatus st = evalWarp(wi, now);
            statusScratch_[wi] = st;
            if (st == WarpStatus::Done)
                continue;
            ++live;
            Warp &w = *warps_[wi];

            // Warp-cycle partition and subwarp-mode residency (sampled
            // after evalWarp, so a subwarp promoted this cycle counts
            // as active).
            accountWarpCycles(w, st, 1);
            next_wake = std::min(next_wake, wakeScratch_[wi]);

            switch (st) {
              case WarpStatus::ScoreboardStall:
              case WarpStatus::WaitWakeup:
                ++stalled;
                ++mem_stalled_warps;
                if (stallIsDivergent(w, st))
                    ++mem_stalled_divergent;
                break;
              case WarpStatus::FetchStall:
                any_fetch_stall = true;
                break;
              default:
                break;
            }
        }
        any_live |= live > 0;

        // ---- warp scheduler: pick one issuable warp ----
        int pick = -1;
        if (config_.sched == SchedPolicy::GTO) {
            if (pb.gtoCurrent >= 0 &&
                statusScratch_[pb.gtoCurrent] == WarpStatus::Issuable) {
                pick = pb.gtoCurrent;
            } else {
                for (unsigned wi : pb.resident) {
                    if (statusScratch_[wi] == WarpStatus::Issuable) {
                        pick = int(wi);
                        break;
                    }
                }
            }
        } else { // LRR
            const std::size_t n = pb.resident.size();
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t pos = (pb.lrrCursor + 1 + k) % n;
                const unsigned wi = pb.resident[pos];
                if (statusScratch_[wi] == WarpStatus::Issuable) {
                    pick = int(wi);
                    pb.lrrCursor = unsigned(pos);
                    break;
                }
            }
        }

        if (pick >= 0) {
            issue(unsigned(pick), now);
            pb.gtoCurrent = pick;
            ++issued_total;
        }

        // Arbitration losses: issuable warps that lost the slot to the
        // pick. Together with the per-reason stall counts and the issue
        // itself this closes the per-cycle warp-cycle partition.
        for (unsigned wi : pb.resident) {
            if (statusScratch_[wi] != WarpStatus::Issuable ||
                int(wi) == pick) {
                continue;
            }
            ++stats_.arbLossCycles;
            RegionCounters &rc = regionAt(warps_[wi]->currentRegion);
            ++rc.warpCycles;
            ++rc.arbLossCycles;
        }

        // ---- SI: policy-gated subwarp-stall demotion ----
        if (config_.siEnabled && stalled > 0 && live > 0) {
            bool trigger = false;
            switch (config_.trigger) {
              case SelectTrigger::AnyStalled:
                trigger = stalled > 0;
                break;
              case SelectTrigger::HalfStalled:
                trigger = 2 * stalled >= live;
                break;
              case SelectTrigger::AllStalled:
                trigger = stalled == live;
                break;
            }
            // DWS comparator: a split needs a free warp slot in this
            // processing block to host it (see config.dwsEnabled).
            if (trigger && config_.dwsEnabled) {
                unsigned splits_live = 0;
                for (unsigned wi : pb.resident)
                    splits_live += warps_[wi]->tstOccupancy();
                const unsigned free_slots =
                    config_.warpSlotsPerPb > pb.resident.size()
                        ? config_.warpSlotsPerPb -
                              unsigned(pb.resident.size())
                        : 0;
                if (splits_live >= free_slots)
                    trigger = false;
            }

            if (trigger) {
                // Lowest-numbered stalled warp with a READY subwarp.
                for (unsigned wi : pb.resident) {
                    if (statusScratch_[wi] != WarpStatus::ScoreboardStall)
                        continue;
                    Warp &w = *warps_[wi];
                    if (w.lanesInState(ThreadState::Ready).empty())
                        continue;
                    const Instr &in = w.program().at(w.activePc());
                    if (unit_.subwarpStall(w, in.reqSbMask, now)) {
                        tickDirty_ = true;
                        break;
                    }
                }
            }
        }
    }

    // ---- SM-level exposed stall accounting (paper Section I) ----
    if (any_live && issued_total == 0) {
        ++stats_.noIssueCycles;
        if (mem_stalled_warps > 0) {
            ++stats_.exposedLoadStallCycles;
            // Attribute the cycle to divergent code in proportion to
            // the memory-stalled warps whose stalling subwarp is
            // divergent (separates Coll-style convergent stalls).
            stats_.exposedLoadStallCyclesDivergent +=
                double(mem_stalled_divergent) / double(mem_stalled_warps);
        } else if (any_fetch_stall) {
            ++stats_.exposedFetchStallCycles;
        }
    }

    // ---- fast-forward classification (see applyQuietCycles) ----
    // An issuable warp always issues, so issued_total == 0 already
    // implies no warp was Issuable; tickDirty_ covers every other
    // mutation site (writeback drain, retire/admit, fetch initiation,
    // subwarp select, successful stall demotion).
    lastTickQuiet_ = issued_total == 0 && !tickDirty_;
    const Cycle next_event =
        events_.empty() ? invalidCycle : events_.front().when;
    nextEventAt_ = std::min(next_wake, next_event);
    ffAnyLive_ = any_live;
    ffMemStalled_ = mem_stalled_warps;
    ffMemStalledDiv_ = mem_stalled_divergent;
    ffAnyFetch_ = any_fetch_stall;
    ffDeniedDelta_ =
        unit_.stats().stallDemotionsDeniedTstFull - denied_before;
}

void
Sm::accountWarpCycles(Warp &w, WarpStatus st, std::uint64_t n)
{
    stats_.liveWarpCycles += n;
    const ThreadMask active_now = w.activeMask();
    if (active_now.empty())
        stats_.warpCyclesSubwarpNone += n;
    else if (active_now == w.live())
        stats_.warpCyclesSubwarpFull += n;
    else
        stats_.warpCyclesSubwarpPartial += n;

    // One count per lost warp-slot, per (pc, reason); the SM-wide
    // per-reason totals are this table's column sums.
    if (st != WarpStatus::Issuable) {
        const auto reason = std::size_t(classifyStall(w, st));
        stallsByPc_[stallRow(w)][reason] += n;
        RegionCounters &rc = regionAt(w.currentRegion);
        rc.warpCycles += n;
        rc.stallCyclesByReason[reason] += n;
    }
}

std::size_t
Sm::stallRow(const Warp &w) const
{
    if (w.activeMask().any())
        return w.activePc();
    for (const TstEntry &e : w.tst()) {
        if (e.valid)
            return e.pc;
    }
    return stallsByPc_.size() - 1;
}

void
Sm::applyQuietCycles(std::uint64_t n)
{
    if (n == 0 || done())
        return;
    stats_.cycles += n;

    // Statuses are stable over the leap: the caller leaps at most to
    // nextEventAt(), and every status either expires at its warp's
    // wakeScratch_ cycle (folded into nextEventAt) or only a writeback
    // (also folded in) can change it. So the per-warp accounting of
    // each skipped cycle equals the last real tick's, n times over.
    for (auto &pb : pbs_) {
        for (unsigned wi : pb.resident) {
            const WarpStatus st = statusScratch_[wi];
            if (st == WarpStatus::Done)
                continue;
            accountWarpCycles(*warps_[wi], st, n);
        }
    }

    // Denied TST-full demotion attempts repeat identically each quiet
    // cycle (nothing can free an entry without a writeback).
    if (ffDeniedDelta_ > 0)
        unit_.addDeniedDemotions(ffDeniedDelta_ * n);

    // SM-level exposure: a quiet tick by definition issued nothing.
    if (ffAnyLive_) {
        stats_.noIssueCycles += n;
        if (ffMemStalled_ > 0) {
            stats_.exposedLoadStallCycles += n;
            if (ffMemStalledDiv_ > 0) {
                // The per-cycle loop accumulates the divergent fraction
                // by repeated IEEE754 addition; n * frac rounds
                // differently, so bit-identity requires repeating the
                // addition. Leaps are latency-bounded, so this stays
                // far cheaper than n full ticks.
                const double frac =
                    double(ffMemStalledDiv_) / double(ffMemStalled_);
                for (std::uint64_t i = 0; i < n; ++i)
                    stats_.exposedLoadStallCyclesDivergent += frac;
            }
        } else if (ffAnyFetch_) {
            stats_.exposedFetchStallCycles += n;
        }
    }
}

std::string
Sm::auditInvariants() const
{
    for (std::size_t wi = 0; wi < warps_.size(); ++wi) {
        const Warp &w = *warps_[wi];
        if (w.done())
            continue;
        PendingWbCounts pending{};
        for (const Writeback &wb : events_) {
            if (wb.warpIdx != wi)
                continue;
            for (unsigned lane : lanesOf(wb.mask))
                ++pending[lane][wb.sb];
        }
        std::string violation = auditWarpInvariants(w, pending);
        if (!violation.empty()) {
            return "sm" + std::to_string(id_) + " warp " +
                   std::to_string(w.id()) + ": " + violation + "\n" +
                   describeWarpState(w);
        }
    }
    return "";
}

std::string
Sm::dumpState() const
{
    std::string out;
    for (const auto &w : warps_) {
        if (!w->done())
            out += describeWarpState(*w);
    }
    if (!pendingAdmission_.empty()) {
        out += "sm" + std::to_string(id_) + ": " +
               std::to_string(pendingAdmission_.size()) +
               " warps awaiting admission\n";
    }
    return out;
}

std::string
Sm::dropPendingWriteback()
{
    if (events_.empty())
        return "";
    const Writeback wb = popWriteback();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "sm%u warp %u sb%u mask=0x%08x due cycle %llu", id_,
                  warps_[wb.warpIdx]->id(), wb.sb, wb.mask.raw(),
                  static_cast<unsigned long long>(wb.when));
    return buf;
}

SmStats
Sm::liveStats() const
{
    SmStats s = stats_;

    // Retirement is otherwise only observed when a slot is recycled;
    // recount here so warps that finish last are included.
    s.warpsRetired = 0;
    for (const auto &w : warps_) {
        if (w->done())
            ++s.warpsRetired;
    }

    const SubwarpUnitStats &us = unit_.stats();
    s.divergentBranches = us.divergentBranches;
    s.reconvergences = us.reconvergences;
    s.subwarpSelects = us.subwarpSelects;
    s.subwarpStalls = us.subwarpStalls;
    s.subwarpWakeups = us.subwarpWakeups;
    s.subwarpYields = us.subwarpYields;
    s.tstFullDenials = us.stallDemotionsDeniedTstFull;

    s.stallCyclesByReason = {};
    for (const StallCounts &row : stallsByPc_) {
        for (std::size_t k = 0; k < numStallReasons; ++k)
            s.stallCyclesByReason[k] += row[k];
    }

    s.l1dHits = l1d_.hits();
    s.l1dMisses = l1d_.misses();
    s.l1iHits = l1i_.hits();
    s.l1iMisses = l1i_.misses();

    s.l0iHits = 0;
    s.l0iMisses = 0;
    for (const auto &pb : pbs_) {
        s.l0iHits += pb.l0i.hits();
        s.l0iMisses += pb.l0i.misses();
    }
    return s;
}

void
Sm::finalizeStats()
{
    // Every fold in liveStats() is set-not-add, so finalizing is
    // idempotent and safe after any number of mid-run samples.
    stats_ = liveStats();
}

void
Sm::save(SnapshotWriter &w) const
{
    w.tag(SnapTag::Sm);
    w.u32(id_);
    w.u32(maxResidentPerPb_);

    w.u64(warps_.size());
    for (const auto &warp : warps_)
        warp->save(w);

    w.u64(pendingAdmission_.size());
    for (unsigned idx : pendingAdmission_)
        w.u32(idx);

    w.u64(pbs_.size());
    for (const ProcessingBlock &pb : pbs_) {
        w.tag(SnapTag::Pb);
        pb.l0i.save(w);
        w.u64(pb.resident.size());
        for (unsigned idx : pb.resident)
            w.u32(idx);
        w.u32(pb.regsInUse);
        w.u32(pb.lrrCursor);
        w.u32(std::uint32_t(pb.gtoCurrent));
    }

    // The writeback queue serializes in drain order — due cycle, then
    // insertion order within a cycle — so a restored queue drains
    // identically.
    std::vector<Writeback> queue = events_;
    std::sort(queue.begin(), queue.end(),
              [](const Writeback &a, const Writeback &b) {
                  return Writeback::later(b, a);
              });
    w.u64(queue.size());
    for (const Writeback &wb : queue) {
        w.u64(wb.when);
        w.u32(wb.warpIdx);
        w.u32(wb.mask.raw());
        w.u8(wb.sb);
        w.u8(std::uint8_t(wb.port));
    }

    w.u64(mshrFreeAt_.size());
    for (Cycle c : mshrFreeAt_)
        w.u64(c);

    l1d_.save(w);
    l1i_.save(w);
    rtcore_.save(w);
    unit_.save(w);
    stats_.save(w);

    w.u64(stallsByPc_.size());
    for (const StallCounts &row : stallsByPc_) {
        for (std::uint64_t v : row)
            w.u64(v);
    }
}

void
Sm::restore(SnapshotReader &r)
{
    r.tag(SnapTag::Sm);
    const unsigned id = r.u32();
    sim_throw_if(id != id_, ErrorKind::Snapshot,
                 "sm %u: snapshot holds state for sm %u", id_, id);
    maxResidentPerPb_ = r.u32();

    const std::uint64_t num_warps = r.u64();
    sim_throw_if(num_warps != warps_.size(), ErrorKind::Snapshot,
                 "sm %u: snapshot has %llu warps, expected %zu (launch "
                 "mismatch?)",
                 id_, static_cast<unsigned long long>(num_warps),
                 warps_.size());
    for (auto &warp : warps_)
        warp->restore(r);

    auto warp_index = [&](const char *what) {
        const unsigned idx = r.u32();
        sim_throw_if(idx >= warps_.size(), ErrorKind::Snapshot,
                     "sm %u: %s warp index %u out of range (%zu warps)",
                     id_, what, idx, warps_.size());
        return idx;
    };

    pendingAdmission_.clear();
    const std::size_t num_pending = r.count(4);
    for (std::size_t i = 0; i < num_pending; ++i)
        pendingAdmission_.push_back(warp_index("pending-admission"));

    const std::uint64_t num_pbs = r.u64();
    sim_throw_if(num_pbs != pbs_.size(), ErrorKind::Snapshot,
                 "sm %u: snapshot has %llu processing blocks, expected "
                 "%zu",
                 id_, static_cast<unsigned long long>(num_pbs),
                 pbs_.size());
    for (ProcessingBlock &pb : pbs_) {
        r.tag(SnapTag::Pb);
        pb.l0i.restore(r);
        pb.resident.resize(r.count(4));
        for (unsigned &idx : pb.resident)
            idx = warp_index("resident");
        pb.regsInUse = r.u32();
        pb.lrrCursor = r.u32();
        pb.gtoCurrent = int(std::int32_t(r.u32()));
    }

    // Saved in drain order, so renumbering in that order keeps it.
    events_.resize(r.count(8 + 4 + 4 + 1 + 1));
    for (std::size_t i = 0; i < events_.size(); ++i) {
        Writeback &wb = events_[i];
        wb.when = r.u64();
        wb.seq = i;
        wb.warpIdx = warp_index("writeback");
        wb.mask = ThreadMask(r.u32());
        wb.sb = r.u8();
        sim_throw_if(wb.sb >= ScoreboardFile::numSb, ErrorKind::Snapshot,
                     "sm %u: writeback names invalid scoreboard %u", id_,
                     wb.sb);
        const std::uint8_t port = r.u8();
        sim_throw_if(port > std::uint8_t(WbPort::Tex), ErrorKind::Snapshot,
                     "sm %u: writeback names invalid port %u", id_, port);
        wb.port = WbPort(port);
    }
    std::make_heap(events_.begin(), events_.end(), Writeback::later);
    nextWbSeq_ = events_.size();

    const std::uint64_t num_mshrs = r.u64();
    sim_throw_if(num_mshrs != mshrFreeAt_.size(), ErrorKind::Snapshot,
                 "sm %u: snapshot has %llu MSHRs, expected %zu", id_,
                 static_cast<unsigned long long>(num_mshrs),
                 mshrFreeAt_.size());
    for (Cycle &c : mshrFreeAt_)
        c = r.u64();

    l1d_.restore(r);
    l1i_.restore(r);
    rtcore_.restore(r);
    unit_.restore(r);
    stats_.restore(r);

    const std::uint64_t num_rows = r.u64();
    sim_throw_if(num_rows != stallsByPc_.size(), ErrorKind::Snapshot,
                 "sm %u: snapshot has %llu stall-table rows, the launch "
                 "needs %zu",
                 id_, static_cast<unsigned long long>(num_rows),
                 stallsByPc_.size());
    for (StallCounts &row : stallsByPc_) {
        for (std::uint64_t &v : row)
            v = r.u64();
    }

    statusScratch_.assign(warps_.size(), WarpStatus::Done);
    wakeScratch_.assign(warps_.size(), invalidCycle);

    // Leap scratch is per-tick and never serialized: a resumed run
    // re-derives it on its first tick, before any leap is considered.
    tickDirty_ = false;
    lastTickQuiet_ = false;
    nextEventAt_ = invalidCycle;
    ffAnyLive_ = false;
    ffMemStalled_ = 0;
    ffMemStalledDiv_ = 0;
    ffAnyFetch_ = false;
    ffDeniedDelta_ = 0;
}

} // namespace si
