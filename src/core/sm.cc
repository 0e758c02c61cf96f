#include "core/sm.hh"

#include <algorithm>

#include "common/sim_error.hh"
#include "core/invariants.hh"
#include "isa/op_table.hh"
#include "mem/coalesce.hh"
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

/** Per-region counter slot of @p s for @p idx, growing the table. */
RegionCounters &
regionAt(SmStats &s, std::uint32_t idx)
{
    if (s.regions.size() <= idx)
        s.regions.resize(std::size_t(idx) + 1);
    return s.regions[idx];
}

const char *
statusName(WarpStatus st)
{
    static constexpr const char *names[] = {
        "Issuable",  "Busy",       "FetchStall", "ScoreboardStall",
        "PipeStall", "WaitWakeup", "Done"};
    return names[std::size_t(st)];
}

/** True for the statuses evalWarp reaches with the active pc fetched. */
bool
pastFetch(WarpStatus st)
{
    return st == WarpStatus::Issuable ||
           st == WarpStatus::ScoreboardStall ||
           st == WarpStatus::PipeStall;
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

/** How a counter folds across SMs: the max for Max rows, else a sum. */
constexpr auto foldStat = [](StatKind kind, auto a, auto b) {
    return kind == StatKind::Max ? std::max(a, b) : a + b;
};

template <class S, std::size_t N>
void
saveStatFields(SnapshotWriter &w, const S &s,
               const StatField<S> (&fields)[N])
{
    for (const StatField<S> &f : fields) {
        if (f.kind == StatKind::Real) {
            w.f64(s.*f.f64);
        } else if (f.kind == StatKind::Reasons) {
            for (std::uint64_t v : s.*f.reasons)
                w.u64(v);
        } else {
            w.u64(f.word(s));
        }
    }
}

/**
 * Read rows written by saveStatFields. A Derived word precedes the
 * reason counts it derives from, so all are checked once the rows are
 * read.
 */
template <class S, std::size_t N>
void
restoreStatFields(SnapshotReader &r, S &s,
                  const StatField<S> (&fields)[N])
{
    std::array<std::uint64_t, N> derived{};
    for (std::size_t i = 0; i < N; ++i) {
        const StatField<S> &f = fields[i];
        if (f.kind == StatKind::Real) {
            s.*f.f64 = r.f64();
        } else if (f.kind == StatKind::Reasons) {
            for (std::uint64_t &v : s.*f.reasons)
                v = r.u64();
        } else {
            (f.kind == StatKind::Derived ? derived[i] : s.*f.u64) = r.u64();
        }
    }
    for (std::size_t i = 0; i < N; ++i) {
        sim_throw_if(fields[i].kind == StatKind::Derived &&
                         derived[i] != fields[i].word(s),
                     ErrorKind::Snapshot,
                     "stats: per-status word %s disagrees with the "
                     "per-reason counts",
                     fields[i].key);
    }
}

} // namespace

void
RegionCounters::accumulate(const RegionCounters &other)
{
    zipStatFields(regionStatFields, *this, *this, other, foldStat);
}

void
SmStats::accumulate(const SmStats &other)
{
    zipStatFields(smStatFields, *this, *this, other, foldStat);
    if (regions.size() < other.regions.size())
        regions.resize(other.regions.size());
    for (std::size_t i = 0; i < other.regions.size(); ++i)
        regions[i].accumulate(other.regions[i]);
}

void
SmStats::save(SnapshotWriter &w) const
{
    w.tag(SnapTag::Stats);
    saveStatFields(w, *this, smStatFields);
    w.u64(regions.size());
    for (const RegionCounters &rc : regions)
        saveStatFields(w, rc, regionStatFields);
}

void
SmStats::restore(SnapshotReader &r)
{
    r.tag(SnapTag::Stats);
    restoreStatFields(r, *this, smStatFields);
    // A region saves exactly the members it stores.
    regions.resize(r.count(storedBytes(regionStatFields)));
    for (RegionCounters &rc : regions)
        restoreStatFields(r, rc, regionStatFields);
}

Sm::Sm(unsigned id, const GpuConfig &config, Memory &memory,
       const Bvh *scene)
    : id_(id),
      config_(config),
      memory_(memory),
      l1d_(config.l1d),
      l1i_(config.l1i),
      rtcore_(scene, config.rtc),
      unit_(config, Rng::streamSeed(config.rngSeed, id), id),
      cutPb_(config.pbsPerSm)
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
        maxResidentPerPb_ = std::min(config_.warpSlotsPerPb, by_regs);
    }
    // Every pc of the largest program, plus the "(no subwarp)" row.
    stallsByPc_.resize(
        std::max(stallsByPc_.size(), std::size_t(warp->program().size()) + 1));
    liveWarps_ += !warp->done();
    warps_.push_back(std::move(warp));
    spans_.emplace_back();
    pendingAdmission_.push_back(unsigned(warps_.size() - 1));
}

bool
Sm::done() const
{
    return liveWarps_ == 0 && pendingAdmission_.empty();
}

void
Sm::drainWritebacks(Cycle now)
{
    while (!events_.empty() && events_.front().when <= now) {
        const Writeback wb = popWriteback();
        arm(wb.warpIdx, now);
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
Sm::admitWarps(Cycle now)
{
    // Slots are recycled the tick after EXIT, and only when a warp did
    // retire: a single-pass stable compaction whose survivors keep
    // their relative order, so the GTO/LRR picks (which walk resident
    // order) are unchanged.
    if (retiring_) {
        retiring_ = false;
        admissionBlocked_ = false;
        for (auto &pb : pbs_) {
            auto &resident = pb.resident;
            std::size_t out = 0;
            for (std::size_t i = 0; i < resident.size(); ++i) {
                const unsigned wi = resident[i];
                if (!warps_[wi]->done()) {
                    resident[out++] = wi;
                    continue;
                }
                ++stats_.warpsRetired;
                if (pb.gtoCurrent == int(wi))
                    pb.gtoCurrent = -1;
                pb.regsInUse -= warps_[wi]->program().numRegs() * warpSize;
                closeSpan(pb, spans_[wi], now);
                spans_[wi] = WarpSpan{};
            }
            if (out != resident.size()) {
                resident.resize(out);
                reindex(pb);
            }
        }
    }
    // Admission into the least-loaded processing block that has both a
    // free warp slot and register-file headroom for this warp. In-order
    // admission (head-of-line blocking), as launch queues drain FIFO.
    // An admitted warp is due at once: its span opens this tick.
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
        if (!best) {
            admissionBlocked_ = true;
            break;
        }
        pendingAdmission_.pop_front();
        warps_[wi]->setPb(unsigned(best - pbs_.data()));
        best->resident.push_back(wi);
        best->regsInUse += warp_regs;
        spans_[wi] = WarpSpan{};
        reindex(*best);
        arm(wi, now);
    }
}

void
Sm::reindex(ProcessingBlock &pb)
{
    pb.issuable.reset(pb.resident.size());
    pb.demotable.reset(pb.resident.size());
    for (std::size_t pos = 0; pos < pb.resident.size(); ++pos) {
        WarpSpan &sp = spans_[pb.resident[pos]];
        sp.pos = std::uint32_t(pos);
        pb.issuable.assign(pos, sp.charge.status == WarpStatus::Issuable);
        pb.demotable.assign(pos, sp.charge.demotable);
    }
}

Sm::Verdict
Sm::classifyWarp(const Warp &w, Cycle now) const
{
    if (w.done())
        return {WarpStatus::Done};

    if (w.activeMask().empty()) {
        if (w.lanesInState(ThreadState::Ready).any()) {
            return {WarpStatus::Busy, w.issueReadyAt,
                    now >= w.issueReadyAt ? EvalAction::Select
                                          : EvalAction::None};
        }
        if (w.lanesInState(ThreadState::Stalled).any())
            return {WarpStatus::WaitWakeup};
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
        return {w.inFetchStall ? WarpStatus::FetchStall : WarpStatus::Busy,
                w.issueReadyAt};
    }

    // Front end: the instruction at the active PC must sit in the
    // per-warp fetch buffer, fed by L0I -> L1I. A stale buffer is
    // evalWarp's fetch; the rest of the verdict holds once it hits.
    const std::uint32_t pc = w.activePc();
    const EvalAction action =
        w.fetchedPc != pc ? EvalAction::Fetch : EvalAction::None;

    const Instr &in = w.program().at(pc);

    // Load-to-use stall: a required count-based scoreboard is nonzero.
    if (in.reqSbMask && !w.scoreboards().ready(w.activeMask(), in.reqSbMask))
        return {WarpStatus::ScoreboardStall, invalidCycle, action};

    // Short-latency operand dependences.
    Cycle ready_at = 0;
    ready_at = std::max(ready_at, w.regReadyAt(in.srcA));
    if (!in.bImm)
        ready_at = std::max(ready_at, w.regReadyAt(in.srcB));
    ready_at = std::max(ready_at, w.regReadyAt(in.srcC));
    ready_at = std::max(ready_at, w.predReadyAt(in.guard));
    if (in.op == Opcode::SEL)
        ready_at = std::max(ready_at, w.predReadyAt(in.pdst));
    if (ready_at > now)
        return {WarpStatus::PipeStall, ready_at, action};

    return {WarpStatus::Issuable, invalidCycle, action};
}

Sm::Verdict
Sm::evalWarp(unsigned warp_idx, Cycle now)
{
    Warp &w = *warps_[warp_idx];
    Verdict v = classifyWarp(w, now);
    switch (v.action) {
      case EvalAction::None:
        break;
      case EvalAction::Select:
        unit_.select(w, now);
        return {WarpStatus::Busy, w.issueReadyAt};
      case EvalAction::Fetch:
        if (!fetch(w, now))
            return {WarpStatus::FetchStall, w.issueReadyAt};
        v.action = EvalAction::None;
        break;
    }
    if (pastFetch(v.status))
        w.inFetchStall = false;
    return v;
}

bool
Sm::fetch(Warp &w, Cycle now)
{
    const std::uint32_t pc = w.activePc();
    const Addr line = w.program().instrAddr(pc);
    ProcessingBlock &pb = pbs_[w.pb()];
    const Cache::AccessResult l0 = pb.l0i.accessEx(line);
    SI_EMIT_EVENT(config_.traceSink,
                  cacheEvent(TraceEventKind::CacheAccess, id_, w, now,
                             TraceCacheLevel::L0I, l0, line, pc));
    w.fetchedPc = pc;
    if (l0.hit)
        return true;
    SI_EMIT_EVENT(config_.traceSink,
                  cacheEvent(TraceEventKind::CacheFill, id_, w, now,
                             TraceCacheLevel::L0I, l0, line, pc));
    const Cache::AccessResult l1 = l1i_.accessEx(line);
    SI_EMIT_EVENT(config_.traceSink,
                  cacheEvent(TraceEventKind::CacheAccess, id_, w, now,
                             TraceCacheLevel::L1I, l1, line, pc));
    if (!l1.hit) {
        SI_EMIT_EVENT(config_.traceSink,
                      cacheEvent(TraceEventKind::CacheFill, id_, w, now,
                                 TraceCacheLevel::L1I, l1, line, pc));
    }
    w.issueReadyAt = now + (l1.hit ? config_.lat.l0iMiss
                                   : config_.lat.l1iMiss);
    w.inFetchStall = true;
    return false;
}

void
Sm::reevaluate(ProcessingBlock &pb, unsigned warp_idx, Cycle now)
{
    const Verdict v = evalWarp(warp_idx, now);
    WarpSpan &sp = spans_[warp_idx];
    sp.dueAt = v.wakeAt == invalidCycle ? invalidCycle
                                        : std::max(v.wakeAt, now + 1);
    // Sampled after evalWarp, so a subwarp selected this cycle counts
    // as active. An unchanged charge simply extends the open span.
    const WarpSpan::Charge charge = chargeOf(*warps_[warp_idx], v.status);
    if (charge == sp.charge)
        return;
    closeSpan(pb, sp, now);
    sp.charge = charge;
    sp.start = now;
    tally(pb, sp, true);
}

void
Sm::closeSpan(ProcessingBlock &pb, const WarpSpan &sp, Cycle now)
{
    tally(pb, sp, false);
    accountWarpCycles(sp.charge, now - sp.start, stats_,
                      stallsByPc_[sp.charge.row]);
}

Sm::WarpSpan::Charge
Sm::chargeOf(const Warp &w, WarpStatus st) const
{
    WarpSpan::Charge c;
    c.status = st;
    if (st == WarpStatus::Done)
        return c;
    const ThreadMask active = w.activeMask();
    c.residency = active.empty()        ? Residency::None
                  : active == w.live() ? Residency::Full
                                       : Residency::Partial;
    c.region = w.currentRegion;
    if (st != WarpStatus::Issuable) {
        c.reason = classifyStall(w, st);
        c.row = std::uint32_t(stallRow(w));
    }
    c.divergent = stallIsDivergent(w, st);
    c.demotable = st == WarpStatus::ScoreboardStall &&
                  w.lanesInState(ThreadState::Ready).any();
    return c;
}

void
Sm::tally(ProcessingBlock &pb, const WarpSpan &sp, bool add)
{
    const WarpSpan::Charge &c = sp.charge;
    if (c.status == WarpStatus::Done)
        return;
    auto bump = [add](unsigned &n) { n = add ? n + 1 : n - 1; };
    bump(pb.live);
    if (c.status == WarpStatus::ScoreboardStall ||
        c.status == WarpStatus::WaitWakeup) {
        bump(pb.stalled);
        if (c.divergent)
            bump(memStalledDivergent_);
    } else if (c.status == WarpStatus::FetchStall) {
        bump(fetchStalled_);
    }
    if (c.status == WarpStatus::Issuable)
        pb.issuable.assign(sp.pos, add);
    if (c.demotable)
        pb.demotable.assign(sp.pos, add);
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
    if (in.guard == predNone) {
        if (!in.guardNeg)
            exec = active; // PT passes on every lane
    } else {
        for (unsigned lane : lanesOf(active)) {
            if (w.predicate(lane, in.guard) != in.guardNeg)
                exec.set(lane);
        }
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

    auto advance = [&]() { w.setPc(active, pc + 1); };

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
        std::array<Addr, warpSize> lane_addrs{};
        for (unsigned lane : lanesOf(exec)) {
            const Addr addr =
                tex ? texelAddress(rd(lane, in.srcA), rd(lane, in.srcB))
                    : Addr(rd(lane, in.srcA)) + Addr(std::int64_t(in.imm));
            lane_addrs[lane] = addr;
            w.setReg(lane, in.dst, memory_.read(addr));
        }
        if (config_.raceHooks != nullptr && exec.any())
            race_event(false, lane_addrs);
        // Coalesce: one L1D transaction per unique line across lanes.
        std::array<Addr, warpSize> lines;
        const unsigned num_lines =
            coalesceLines(lane_addrs, exec, l1d_.lineBytes(), lines);
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
            w.setPc(active, in.target);
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
            w.setPc(active - exec, pc + 1);
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
        RegionCounters &rc = regionAt(stats_, w.currentRegion);
        ++rc.warpCycles;
        ++rc.instrsIssued;
    }

    if (!advanced)
        advance();

    // Retirement: the slot is recycled by the next tick's compaction.
    if (w.done()) {
        --liveWarps_;
        retiring_ = true;
        SI_EMIT_EVENT(config_.traceSink, [&] {
            TraceEvent ev =
                warpEvent(id_, w, TraceEventKind::WarpRetire, now);
            ev.pc = pc;
            return ev;
        }());
    }

    if (in.dst != regNone && in.op != Opcode::STG)
        w.setRegReadyAt(in.dst, now + result_lat);
    for (unsigned k = 1; k < opInfo(in.op).dstRegs; ++k)
        w.setRegReadyAt(RegIndex(in.dst + k), now + 1);

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
        // A finished SM can never wake: it must not hold the other
        // SMs' horizon down.
        nextEventAt_ = invalidCycle;
        return;
    }
    ++stats_.cycles;
    cutPb_ = 0;
    cutPos_ = 0;
    drainWritebacks(now);
    if (retiring_ || (!pendingAdmission_.empty() && !admissionBlocked_))
        admitWarps(now);

    bool issued = false;
    Cycle horizon = invalidCycle;
    for (unsigned p = 0; p < pbs_.size(); ++p) {
        ProcessingBlock &pb = pbs_[p];
        cutPb_ = p;
        // Re-evaluate only the warps with a due event, in resident
        // order (the L0I/L1I access order of their fetches); every
        // other warp's cached status is what evalWarp would return.
        if (pb.nextDue <= now) {
            Cycle next_due = invalidCycle;
            for (std::size_t pos = 0; pos < pb.resident.size(); ++pos) {
                const unsigned wi = pb.resident[pos];
                if (spans_[wi].dueAt <= now) {
                    cutPos_ = pos;
                    reevaluate(pb, wi, now);
                }
                next_due = std::min(next_due, spans_[wi].dueAt);
            }
            pb.nextDue = next_due;
        }
        cutPos_ = pb.resident.size();

        if (pb.issuable.any()) {
            const unsigned pick = pickWarp(pb);
            issue(pick, now);
            arm(pick, now + 1);
            pb.gtoCurrent = int(pick);
            issued = true;

            // Arbitration losses: issuable warps that lost the slot to
            // the pick. Together with the spans and the issue itself
            // this closes the per-cycle warp-cycle partition.
            for (std::size_t pos = pb.issuable.next(0);
                 pos != PosMask::npos; pos = pb.issuable.next(pos + 1)) {
                const unsigned wi = pb.resident[pos];
                if (wi == pick)
                    continue;
                ++stats_.arbLossCycles;
                RegionCounters &rc =
                    regionAt(stats_, warps_[wi]->currentRegion);
                ++rc.warpCycles;
                ++rc.arbLossCycles;
            }
        }

        if (config_.siEnabled && pb.demotable.any())
            demote(pb, now);
        // Read after the issue and demotion arms (see nextEventAt()).
        horizon = std::min(horizon, pb.nextDue);
    }
    cutPb_ = unsigned(pbs_.size());

    if (!issued)
        accountNoIssueCycles(1);
    nextEventAt_ = events_.empty()
                       ? horizon
                       : std::min(horizon, events_.front().when);
}

unsigned
Sm::pickWarp(ProcessingBlock &pb)
{
    if (config_.sched == SchedPolicy::GTO) {
        // Ride the current warp while it stays issuable, else take the
        // oldest (lowest-positioned) issuable one.
        if (pb.gtoCurrent >= 0 &&
            spans_[pb.gtoCurrent].charge.status == WarpStatus::Issuable)
            return unsigned(pb.gtoCurrent);
        return pb.resident[pb.issuable.next(0)];
    }
    // LRR: the first issuable position after the cursor, wrapping.
    std::size_t pos =
        pb.issuable.next((pb.lrrCursor + 1) % pb.resident.size());
    if (pos == PosMask::npos)
        pos = pb.issuable.next(0);
    pb.lrrCursor = unsigned(pos);
    return pb.resident[pos];
}

bool
Sm::demotionTriggered(const ProcessingBlock &pb) const
{
    bool trigger = false;
    switch (config_.trigger) {
      case SelectTrigger::AnyStalled:
        trigger = true;
        break;
      case SelectTrigger::HalfStalled:
        trigger = 2 * pb.stalled >= pb.live;
        break;
      case SelectTrigger::AllStalled:
        trigger = pb.stalled == pb.live;
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
                ? config_.warpSlotsPerPb - unsigned(pb.resident.size())
                : 0;
        if (splits_live >= free_slots)
            trigger = false;
    }
    return trigger;
}

void
Sm::demote(ProcessingBlock &pb, Cycle now)
{
    if (!demotionTriggered(pb))
        return;

    // Lowest-positioned stalled warp with a READY subwarp.
    for (std::size_t pos = pb.demotable.next(0); pos != PosMask::npos;
         pos = pb.demotable.next(pos + 1)) {
        const unsigned wi = pb.resident[pos];
        Warp &w = *warps_[wi];
        const Instr &in = w.program().at(w.activePc());
        if (unit_.subwarpStall(w, in.reqSbMask, now)) {
            arm(wi, now + 1);
            return;
        }
    }
}

void
Sm::accountWarpCycles(const WarpSpan::Charge &c, std::uint64_t n,
                      SmStats &s, StallCounts &stalls)
{
    if (c.status == WarpStatus::Done || n == 0)
        return;
    s.liveWarpCycles += n;
    switch (c.residency) {
      case Residency::Full:
        s.warpCyclesSubwarpFull += n;
        break;
      case Residency::Partial:
        s.warpCyclesSubwarpPartial += n;
        break;
      case Residency::None:
        s.warpCyclesSubwarpNone += n;
        break;
    }

    // One count per lost warp-slot, per (pc, reason); the SM-wide
    // per-reason totals are the stall table's column sums.
    if (c.status != WarpStatus::Issuable) {
        const auto reason = std::size_t(c.reason);
        stalls[reason] += n;
        RegionCounters &rc = regionAt(s, c.region);
        rc.warpCycles += n;
        rc.stallCyclesByReason[reason] += n;
    }
}

std::uint64_t
Sm::openCycles(unsigned warp_idx) const
{
    // A live SM's cycle count is its clock: the cycle after the last
    // tick. A warp the current tick's scan has not reached yet was not
    // charged for that tick's cycle.
    const WarpSpan &sp = spans_[warp_idx];
    const unsigned pb = warps_[warp_idx]->pb();
    const bool passed = pb < cutPb_ || (pb == cutPb_ && sp.pos < cutPos_);
    return stats_.cycles - sp.start - (passed ? 0 : 1);
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
Sm::accountNoIssueCycles(std::uint64_t n)
{
    unsigned live = 0;
    unsigned stalled = 0;
    for (const ProcessingBlock &pb : pbs_) {
        live += pb.live;
        stalled += pb.stalled;
    }
    if (live == 0)
        return;
    stats_.noIssueCycles += n;
    if (stalled > 0) {
        stats_.exposedLoadStallCycles += n;
        if (memStalledDivergent_ > 0) {
            // Attribute each cycle to divergent code in proportion to
            // the memory-stalled warps whose stalling subwarp is
            // divergent (separates Coll-style convergent stalls). The
            // sum is repeated IEEE754 addition, so a leap repeats the
            // addition n times: n * frac would round differently.
            const double frac =
                double(memStalledDivergent_) / double(stalled);
            for (std::uint64_t i = 0; i < n; ++i)
                stats_.exposedLoadStallCyclesDivergent += frac;
        }
    } else if (fetchStalled_ > 0) {
        stats_.exposedFetchStallCycles += n;
    }
}

void
Sm::applyQuietCycles(std::uint64_t n)
{
    if (n == 0 || done())
        return;
    // Every open span runs on to the horizon: the caller leaps at most
    // to nextEventAt(), so no warp is due before it and each span is
    // charged in full when it closes.
    stats_.cycles += n;

    // A quiet cycle attempts every demotion candidate of every
    // triggered PB once, and each is denied: a success would have
    // armed its warp for the next cycle, pinning the horizon there.
    std::uint64_t candidates = 0;
    if (config_.siEnabled) {
        for (const ProcessingBlock &pb : pbs_) {
            if (pb.demotable.any() && demotionTriggered(pb))
                candidates += pb.demotable.count();
        }
    }
    if (candidates > 0)
        unit_.addDeniedDemotions(candidates * n);

    accountNoIssueCycles(n);
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

    // Stale-cache oracle: a warp the next tick skips must classify to
    // its cached status and charge, with no side effect pending.
    const Cycle next = stats_.cycles;
    unsigned div = 0, fetch = 0;
    for (const ProcessingBlock &pb : pbs_) {
        unsigned live = 0, stalled = 0;
        for (std::size_t pos = 0; pos < pb.resident.size(); ++pos) {
            const unsigned wi = pb.resident[pos];
            const WarpSpan &sp = spans_[wi];
            const WarpStatus st = sp.charge.status;
            live += st != WarpStatus::Done;
            stalled += st == WarpStatus::ScoreboardStall ||
                       st == WarpStatus::WaitWakeup;
            div += sp.charge.divergent;
            fetch += st == WarpStatus::FetchStall;
            const Warp &w = *warps_[wi];
            if (sp.pos != pos ||
                pb.issuable.test(pos) != (st == WarpStatus::Issuable) ||
                pb.demotable.test(pos) != sp.charge.demotable) {
                return "sm" + std::to_string(id_) + " warp " +
                       std::to_string(w.id()) +
                       ": scheduler masks disagree with its cached status";
            }
            if (w.done() || sp.dueAt <= next)
                continue;
            const Verdict v = classifyWarp(w, next);
            if (v.action != EvalAction::None ||
                !(chargeOf(w, v.status) == sp.charge)) {
                return "sm" + std::to_string(id_) + " warp " +
                       std::to_string(w.id()) + ": stale cached status " +
                       statusName(st) + " (re-derived " +
                       statusName(v.status) + ") at cycle " +
                       std::to_string(next) + "\n" + describeWarpState(w);
            }
        }
        if (live != pb.live || stalled != pb.stalled) {
            return "sm" + std::to_string(id_) +
                   ": processing-block totals disagree with the cached "
                   "statuses";
        }
    }
    if (div != memStalledDivergent_ || fetch != fetchStalled_) {
        return "sm" + std::to_string(id_) +
               ": SM totals disagree with the cached statuses";
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

    // Slots are recycled a tick after retirement; count every retired
    // warp, so warps that finish last are included.
    s.warpsRetired = warps_.size() - liveWarps_;

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
    for (unsigned wi = 0; wi < spans_.size(); ++wi) {
        accountWarpCycles(spans_[wi].charge, openCycles(wi), s,
                          s.stallCyclesByReason);
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
    // Charge every open span and restart it at the clock; the other
    // folds in liveStats() are set-not-add, so finalizing is idempotent
    // and safe after any number of mid-run samples.
    for (unsigned wi = 0; wi < spans_.size(); ++wi) {
        WarpSpan &sp = spans_[wi];
        accountWarpCycles(sp.charge, openCycles(wi), stats_,
                          stallsByPc_[sp.charge.row]);
        sp.start = stats_.cycles;
    }
    cutPb_ = unsigned(pbs_.size());
    stats_ = liveStats();
}

template <class Self, class Ar>
void
Sm::walk(Self &self, Ar &ar)
{
    const std::string who = "sm " + std::to_string(self.id_);
    const auto warp_index = [&](auto &idx, const char *what) {
        ar.io(idx);
        sim_throw_if(idx >= self.warps_.size(), ErrorKind::Snapshot,
                     "sm %u: %s warp index %u out of range (%zu warps)",
                     self.id_, what, unsigned(idx), self.warps_.size());
    };

    ar.tag(SnapTag::Sm);
    ar.fixed(who, "id", self.id_);
    ar.io(self.maxResidentPerPb_);
    ar.fixed(who, "warps", self.warps_.size());
    for (const auto &warp : self.warps_)
        ar.io(*warp);
    ar.seq(self.pendingAdmission_, 4,
           [&](auto &idx) { warp_index(idx, "pending-admission"); });
    ar.fixed(who, "processing blocks", self.pbs_.size());
    for (auto &pb : self.pbs_) {
        ar.tag(SnapTag::Pb);
        ar.io(pb.l0i);
        ar.seq(pb.resident, 4,
               [&](auto &idx) { warp_index(idx, "resident"); });
        ar.io(pb.regsInUse, pb.lrrCursor, pb.gtoCurrent);
    }

    // The writeback queue travels in drain order — due cycle, then
    // insertion order within a cycle — so renumbering it in that order
    // on restore drains it identically.
    std::vector<Writeback> queue;
    if constexpr (!Ar::restoring) {
        queue = self.events_;
        std::sort(queue.begin(), queue.end(),
                  [](const Writeback &a, const Writeback &b) {
                      return Writeback::later(b, a);
                  });
    }
    ar.seq(queue, 8 + 4 + 4 + 1 + 1, [&](Writeback &wb) {
        auto port = std::uint8_t(wb.port);
        ar.io(wb.when);
        warp_index(wb.warpIdx, "writeback");
        ar.io(wb.mask, wb.sb, port);
        sim_throw_if(wb.sb >= ScoreboardFile::numSb, ErrorKind::Snapshot,
                     "sm %u: writeback names invalid scoreboard %u",
                     self.id_, wb.sb);
        sim_throw_if(port > std::uint8_t(WbPort::Tex), ErrorKind::Snapshot,
                     "sm %u: writeback names invalid port %u", self.id_,
                     port);
        wb.port = WbPort(port);
    });
    if constexpr (Ar::restoring) {
        for (std::size_t i = 0; i < queue.size(); ++i)
            queue[i].seq = i;
        std::make_heap(queue.begin(), queue.end(), Writeback::later);
        self.events_ = std::move(queue);
        self.nextWbSeq_ = self.events_.size();
    }

    ar.fixed(who, "MSHRs", self.mshrFreeAt_.size());
    for (auto &c : self.mshrFreeAt_)
        ar.io(c);
    ar.io(self.l1d_, self.l1i_, self.rtcore_, self.unit_);

    const auto stats_and_rows = [&](auto &stats, auto &rows) {
        ar.io(stats);
        ar.fixed(who, "stall-table rows", rows.size());
        for (auto &row : rows)
            ar.io(row);
    };
    if constexpr (!Ar::restoring) {
        // The open spans are folded into the copies written, so the
        // bytes are those of a per-cycle accounting at this boundary.
        SmStats stats = self.stats_;
        std::vector<StallCounts> by_pc = self.stallsByPc_;
        for (unsigned wi = 0; wi < self.spans_.size(); ++wi) {
            const WarpSpan::Charge &c = self.spans_[wi].charge;
            accountWarpCycles(c, self.openCycles(wi), stats, by_pc[c.row]);
        }
        stats_and_rows(stats, by_pc);
    } else {
        stats_and_rows(self.stats_, self.stallsByPc_);

        // Cached statuses are not serialized (the saved statistics hold
        // their spans up to the boundary): every warp is re-armed, so
        // the first tick re-evaluates it and compacts any slot a retired
        // warp still holds. The event horizon is likewise re-derived on
        // that tick.
        self.spans_.assign(self.warps_.size(), WarpSpan{});
        for (ProcessingBlock &pb : self.pbs_) {
            pb.live = 0;
            pb.stalled = 0;
            pb.nextDue = 0;
            self.reindex(pb);
        }
        self.liveWarps_ = 0;
        for (const auto &warp : self.warps_)
            self.liveWarps_ += !warp->done();
        self.memStalledDivergent_ = 0;
        self.fetchStalled_ = 0;
        self.retiring_ = true; // also retries admission once
        self.cutPb_ = unsigned(self.pbs_.size());
        self.nextEventAt_ = invalidCycle;
    }
}

void
Sm::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
Sm::restore(SnapshotReader &r)
{
    walk(*this, r);
}

} // namespace si
