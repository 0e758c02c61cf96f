#include "rtcore/rtcore.hh"

#include <algorithm>
#include <bit>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"

namespace si {

namespace {

/**
 * Exact memo in front of Bvh::trace. A trace depends only on the tree
 * and the ray, so a sweep that replays one scene under several timing
 * configs asks the same questions again; the memo answers a ray whose
 * eight floats match an earlier one bit for bit with that traversal's
 * hit and node count. One per thread, holding one scene (by
 * Bvh::serial), emptied when a query names another. Open addressing
 * with linear probing; the table doubles from minSlots up to maxSlots
 * and, once that is 3/4 full, takes no more rays. It is not machine
 * state: a checkpoint neither holds nor needs it.
 */
class TraceMemo
{
  public:
    /** This thread's memo. */
    static TraceMemo &
    mine()
    {
        thread_local TraceMemo memo;
        return memo;
    }

    /** This thread's memo, emptied unless it already holds @p bvh. */
    static TraceMemo &
    of(const Bvh &bvh)
    {
        TraceMemo &memo = mine();
        if (memo.serial_ != bvh.serial()) {
            memo.serial_ = bvh.serial();
            memo.slots_.assign(minSlots, Slot{});
            memo.used_ = 0;
        }
        memo.bvh_ = &bvh;
        return memo;
    }

    /** Rays held. */
    std::size_t size() const { return used_; }

    /** bvh.trace(@p ray), with its nodesVisited in @p nodes. */
    Hit
    trace(const Ray &ray, std::uint32_t &nodes)
    {
        // The bits of origin, dir, tMin and tMax (Ray has no padding:
        // bit_cast needs the sizes to match).
        const Key key = std::bit_cast<Key>(ray);
        Slot *slot = &find(key);
        if (slot->nodes) {
            nodes = slot->nodes;
            return slot->hit;
        }
        TraversalStats ts;
        const Hit hit = bvh_->trace(ray, &ts);
        nodes = ts.nodesVisited;
        // Only an empty tree visits no node, and 0 nodes marks a free
        // slot, so such a ray is not stored; nor is any ray once full.
        if (nodes == 0 || (used_ + 1) * 4 > maxSlots * 3)
            return hit;
        if ((used_ + 1) * 4 > slots_.size() * 3) {
            grow();
            slot = &find(key);
        }
        *slot = {key, hit, nodes};
        ++used_;
        return hit;
    }

  private:
    using Key = std::array<std::uint32_t, 8>;

    struct Slot
    {
        Key key{};
        Hit hit;
        std::uint32_t nodes = 0; ///< 0: empty
    };

    static constexpr std::size_t minSlots = 1024;
    static constexpr std::size_t maxSlots = 8192; ///< 480 KB

    /** The slot holding @p key, or the empty slot where it would go. */
    Slot &
    find(const Key &key)
    {
        std::uint64_t h = 0;
        for (std::uint32_t word : key)
            h = (h ^ word) * 0x9e3779b97f4a7c15ull;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = std::size_t(h >> 32) & mask;;
             i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (!slot.nodes || slot.key == key)
                return slot;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot &slot : old)
            if (slot.nodes)
                find(slot.key) = slot;
    }

    std::uint64_t serial_ = 0; ///< no Bvh's: serials start at 1
    const Bvh *bvh_ = nullptr;
    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace

RtCore::RtCore(const Bvh *bvh, const RtCoreConfig &config)
    : bvh_(bvh), config_(config), pipeBusyUntil_(config.numPipes, 0)
{
}

WarpQueryResult
RtCore::query(Cycle now, ThreadMask mask,
              const std::array<Ray, warpSize> &rays)
{
    sim_throw_if(!hasScene(), ErrorKind::Config,
                 "RTQUERY issued but no scene is attached");

    WarpQueryResult result;
    std::uint32_t max_nodes = 0;
    TraceMemo &memo = TraceMemo::of(*bvh_);
    for (unsigned lane : lanesOf(mask)) {
        std::uint32_t visited;
        result.hits[lane] = memo.trace(rays[lane], visited);
        max_nodes = std::max(max_nodes, visited);
        nodes_ += visited;
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

std::size_t
RtCore::memoizedRays()
{
    return TraceMemo::mine().size();
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
