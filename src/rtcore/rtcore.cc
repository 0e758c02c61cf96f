#include "rtcore/rtcore.hh"

#include <algorithm>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"

namespace si {

RtCore::RtCore(const Bvh *bvh, const RtCoreConfig &config)
    : bvh_(bvh), config_(config)
{
    sim_throw_if(config_.numPipes == 0, ErrorKind::Config,
                 "RT core needs at least one pipe");
    pipeBusyUntil_.assign(config_.numPipes, 0);
}

WarpQueryResult
RtCore::query(Cycle now, ThreadMask mask,
              const std::array<Ray, warpSize> &rays)
{
    sim_throw_if(!hasScene(), ErrorKind::Config,
                 "RTQUERY issued but no scene is attached");

    WarpQueryResult result;
    std::uint32_t max_nodes = 0;
    for (unsigned lane : lanesOf(mask)) {
        TraversalStats ts;
        result.hits[lane] = bvh_->trace(rays[lane], &ts);
        max_nodes = std::max(max_nodes, ts.nodesVisited);
        nodes_ += ts.nodesVisited;
        ++rays_;
    }
    ++queries_;
    result.maxNodesVisited = max_nodes;

    // Pick the earliest-free traversal pipe; queries queue behind it.
    auto pipe = std::min_element(pipeBusyUntil_.begin(),
                                 pipeBusyUntil_.end());
    const Cycle start = std::max(now, *pipe);
    const Cycle service =
        config_.baseLatency +
        Cycle(config_.cyclesPerNode * float(max_nodes));
    *pipe = start + service;
    result.latency = (start + service) - now;
    return result;
}

template <class Self, class Ar>
void
RtCore::walk(Self &self, Ar &ar)
{
    ar.tag(SnapTag::RtCore);
    ar.fixed("rtcore", "pipes", self.pipeBusyUntil_.size());
    for (auto &c : self.pipeBusyUntil_)
        ar.io(c);
    ar.io(self.queries_, self.rays_, self.nodes_);
}

void
RtCore::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
RtCore::restore(SnapshotReader &r)
{
    walk(*this, r);
}

void
RtCore::reset()
{
    pipeBusyUntil_.assign(config_.numPipes, 0);
    queries_ = 0;
    rays_ = 0;
    nodes_ = 0;
}

} // namespace si
