/**
 * @file
 * RT-core timing unit. The SM offloads TraceRay (RTQUERY) operations
 * here. Functional results come from a real BVH traversal; the latency
 * charged is proportional to the traversal work actually performed and
 * includes queueing for a limited number of traversal pipes, which is
 * what makes traversal-heavy workloads RT-core-bound (the paper's
 * Amdahl's-law limiter, Discussion point 2).
 */

#ifndef SI_RTCORE_RTCORE_HH
#define SI_RTCORE_RTCORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "rtcore/bvh.hh"

namespace si {

class SnapshotWriter;
class SnapshotReader;

/** Timing parameters of the RT-core unit. */
struct RtCoreConfig
{
    /** Fixed cost of a query (SM->RT handoff, setup, return). */
    Cycle baseLatency = 120;

    /** Cycles charged per BVH node visited by the slowest lane. */
    float cyclesPerNode = 4.0f;

    /** Number of concurrent warp-query pipes (queueing beyond this). */
    unsigned numPipes = 4;
};

/** Completed warp query: per-lane hits plus the modeled latency. */
struct WarpQueryResult
{
    std::array<Hit, warpSize> hits;
    Cycle latency = 0; ///< cycles from issue until writeback
    std::uint32_t maxNodesVisited = 0;
};

/**
 * One RT core serving one SM. Queries execute functionally at issue
 * time; the caller schedules the writeback @p latency cycles later.
 */
class RtCore
{
  public:
    /** @p config has at least one pipe (GpuConfig::validate). */
    RtCore(const Bvh *bvh, const RtCoreConfig &config);

    /** True when a scene is attached (RTQUERY is legal). */
    bool hasScene() const { return bvh_ != nullptr; }

    /**
     * Issue a warp's ray query at time @p now for lanes in @p mask.
     * Throws SimError(ErrorKind::Config) when no scene is attached.
     * @param rays one ray per lane (only masked lanes are read).
     */
    WarpQueryResult query(Cycle now, ThreadMask mask,
                          const std::array<Ray, warpSize> &rays);

    /** Clear pipe occupancy and statistics (kernel boundary). */
    void reset();

    std::uint64_t numQueries() const { return queries_; }
    std::uint64_t numRays() const { return rays_; }
    std::uint64_t totalNodesVisited() const { return nodes_; }

    /** Serialize pipe occupancy and counters (not the BVH, which is
     *  immutable input state re-attached by the resume path). */
    void save(SnapshotWriter &w) const;

    /** Restore state serialized by save(); pipe count must match. */
    void restore(SnapshotReader &r);

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    const Bvh *bvh_;
    RtCoreConfig config_;
    std::vector<Cycle> pipeBusyUntil_;

    std::uint64_t queries_ = 0;
    std::uint64_t rays_ = 0;
    std::uint64_t nodes_ = 0;
};

} // namespace si

#endif // SI_RTCORE_RTCORE_HH
