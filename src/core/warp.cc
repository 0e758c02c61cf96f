#include "core/warp.hh"

#include "common/log.hh"
#include "common/sim_error.hh"

namespace si {

Warp::Warp(unsigned id, unsigned pb, const Program *program,
           unsigned num_threads)
    : id_(id), pb_(pb), program_(program)
{
    sim_throw_if(program == nullptr, ErrorKind::Config,
                 "warp created without a program");
    sim_throw_if(num_threads == 0 || num_threads > warpSize,
                 ErrorKind::Config, "warp %u: bad thread count %u", id,
                 num_threads);

    regs_.assign(std::size_t(program->numRegs()) * warpSize, 0);
    blockedOn_.fill(barNone);
    const ThreadMask launched = ThreadMask::firstN(num_threads);
    lanes_[std::size_t(ThreadState::Active)] = launched;
    lanes_[std::size_t(ThreadState::Inactive)] = ThreadMask::full() - launched;
}

ThreadState
Warp::state(unsigned lane) const
{
    unsigned s = 0;
    while (!lanes_[s].test(lane))
        ++s;
    return ThreadState(s);
}

ThreadMask
Warp::lanesAtPc(ThreadMask m, std::uint32_t pc) const
{
    ThreadMask out;
    for (unsigned lane : lanesOf(m)) {
        if (pc_[lane] == pc)
            out.set(lane);
    }
    return out;
}

unsigned
Warp::tstOccupancy() const
{
    unsigned n = 0;
    for (const auto &e : tst_)
        n += e.valid ? 1 : 0;
    return n;
}

void
Warp::save(SnapshotWriter &w) const
{
    w.tag(SnapTag::Warp);
    w.u32(id_);
    w.u32(pb_);
    w.u32(ctaId);
    w.u32(logicalId);

    w.u64(regs_.size());
    for (std::uint32_t v : regs_)
        w.u32(v);
    for (std::uint8_t p : preds_)
        w.u8(p);
    for (unsigned lane = 0; lane < warpSize; ++lane)
        w.u8(std::uint8_t(state(lane)));
    for (std::uint32_t pc : pc_)
        w.u32(pc);
    w.u32(live().raw());
    for (ThreadMask b : barriers_)
        w.u32(b.raw());
    for (BarIndex b : blockedOn_)
        w.u8(b);
    sb_.save(w);

    w.u64(tst_.size());
    for (const TstEntry &e : tst_) {
        w.b(e.valid);
        w.u32(e.members.raw());
        w.u32(e.pc);
        w.u8(e.sbId);
        w.u8(e.sbCount);
    }

    for (Cycle c : regReady_)
        w.u64(c);
    for (Cycle c : predReady_)
        w.u64(c);

    w.u64(issueReadyAt);
    w.b(inFetchStall);
    w.u32(longOpsSinceSwitch);
    w.u32(selectCursor);
    w.u64(lastIssueCycle);
    w.u32(fetchedPc);
    w.u32(currentRegion);
    w.b(tstFullSignalled);
}

void
Warp::restore(SnapshotReader &r)
{
    r.tag(SnapTag::Warp);
    const unsigned id = r.u32();
    sim_throw_if(id != id_, ErrorKind::Snapshot,
                 "warp %u: snapshot holds state for warp %u", id_, id);
    pb_ = r.u32();
    ctaId = r.u32();
    logicalId = r.u32();

    const std::uint64_t num_regs = r.u64();
    sim_throw_if(num_regs != regs_.size(), ErrorKind::Snapshot,
                 "warp %u: snapshot register file has %llu words, "
                 "expected %zu (program mismatch?)",
                 id_, static_cast<unsigned long long>(num_regs),
                 regs_.size());
    for (std::uint32_t &v : regs_)
        v = r.u32();
    for (std::uint8_t &p : preds_)
        p = r.u8();
    lanes_ = {};
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        const std::uint8_t s = r.u8();
        sim_throw_if(s >= numThreadStates, ErrorKind::Snapshot,
                     "warp %u: lane %u has invalid thread state %u", id_,
                     lane, s);
        lanes_[s].set(lane);
    }
    for (std::uint32_t &pc : pc_)
        pc = r.u32();
    const std::uint32_t live_word = r.u32();
    sim_throw_if(live_word != live().raw(), ErrorKind::Snapshot,
                 "warp %u: live mask %08x disagrees with the lanes not "
                 "INACTIVE (%08x)",
                 id_, live_word, live().raw());
    for (ThreadMask &b : barriers_)
        b = ThreadMask(r.u32());
    for (BarIndex &b : blockedOn_) {
        b = r.u8();
        sim_throw_if(b != barNone && b >= numBarriers, ErrorKind::Snapshot,
                     "warp %u: lane blocked on invalid barrier %u", id_, b);
    }
    sb_.restore(r);

    // valid, members, pc, sbId, sbCount
    tst_.resize(r.count(1 + 4 + 4 + 1 + 1));
    for (TstEntry &e : tst_) {
        e.valid = r.b();
        e.members = ThreadMask(r.u32());
        e.pc = r.u32();
        e.sbId = r.u8();
        e.sbCount = r.u8();
    }

    for (Cycle &c : regReady_)
        c = r.u64();
    for (Cycle &c : predReady_)
        c = r.u64();

    issueReadyAt = r.u64();
    inFetchStall = r.b();
    longOpsSinceSwitch = r.u32();
    selectCursor = r.u32();
    lastIssueCycle = r.u64();
    fetchedPc = r.u32();
    currentRegion = r.u32();
    tstFullSignalled = r.b();
}

} // namespace si
