#include "core/warp.hh"

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

template <class Self, class Ar>
void
Warp::walk(Self &self, Ar &ar)
{
    const std::string who = "warp " + std::to_string(self.id_);
    ar.tag(SnapTag::Warp);
    ar.fixed(who, "id", self.id_);
    ar.io(self.pb_, self.ctaId, self.logicalId);
    ar.fixed(who, "register words", self.regs_.size());
    for (auto &v : self.regs_)
        ar.io(v);
    ar.io(self.preds_);

    // The Fig. 7 status travels as one state byte per lane; restore
    // rebuilds the lane masks from them, and the live word checks them.
    if constexpr (Ar::restoring) {
        self.lanes_ = {};
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            std::uint8_t s = 0;
            ar.io(s);
            sim_throw_if(s >= numThreadStates, ErrorKind::Snapshot,
                         "warp %u: lane %u has invalid thread state %u",
                         self.id_, lane, s);
            self.lanes_[s].set(lane);
        }
    } else {
        for (unsigned lane = 0; lane < warpSize; ++lane)
            ar.io(std::uint8_t(self.state(lane)));
    }
    ar.io(self.pc_);
    ar.fixed(who, "live mask", self.live());
    ar.io(self.barriers_, self.blockedOn_);
    for (BarIndex b : self.blockedOn_) {
        sim_throw_if(b != barNone && b >= numBarriers, ErrorKind::Snapshot,
                     "warp %u: lane blocked on invalid barrier %u",
                     self.id_, b);
    }
    ar.io(self.sb_);
    ar.seq(self.tst_, 1 + 4 + 4 + 1 + 1, [&](auto &e) {
        ar.io(e.valid, e.members, e.pc, e.sbId, e.sbCount);
    });
    ar.io(self.regReady_, self.predReady_, self.issueReadyAt,
          self.inFetchStall, self.longOpsSinceSwitch, self.selectCursor,
          self.lastIssueCycle, self.fetchedPc, self.currentRegion,
          self.tstFullSignalled);
}

void
Warp::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
Warp::restore(SnapshotReader &r)
{
    walk(*this, r);
}

} // namespace si
