/**
 * @file
 * Dynamic happens-before race sanitizer for subwarp interleaving — the
 * runtime half of the SI-hazard analyzer (the static half is
 * verify/memdep.hh).
 *
 * Model (DESIGN.md section 11): each *lane* of a warp is a logical
 * thread carrying a 32-dimensional vector clock over its warp's lanes.
 * Lanes of one subwarp issue in lockstep, so every access joins the
 * clocks of the whole active mask; BSYNC reconvergence and
 * barrier-release-on-exit join the clocks of all synchronized lanes
 * (RaceHooks::onSync). Scoreboard waits are lane-local (replicated
 * per-thread counters) and add no cross-lane edge.
 *
 * Shadow memory over the accessed words records, per 4-byte word, the
 * last write epoch and the set of read epochs since. An access races
 * when it conflicts (same word, at least one store, distinct lanes of
 * the SAME warp) with a recorded epoch not ordered before it.
 * Cross-warp accesses are never ordered, but inter-warp hazards exist
 * with or without subwarp interleaving — they are outside this
 * detector's (and the static pass's) contract and are not reported.
 *
 * Soundness contract, cross-checked by `difftest --race`: every race
 * reported here lies inside the static may-race set
 * (MemDepResult::mayRace over the same program).
 */

#ifndef SI_RACE_DETECTOR_HH
#define SI_RACE_DETECTOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "race/hooks.hh"
#include "snapshot/snapshot.hh"

namespace si {

/** One reported race: a conflicting, unordered access pair. */
struct RaceReport
{
    /** The two conflicting pcs; pcA <= pcB (pcA == pcB: two lanes of
     *  the same static instruction, e.g. divergent loop iterations). */
    std::uint32_t pcA = 0;
    std::uint32_t pcB = 0;

    bool storeStore = false;

    unsigned warpId = 0;

    /** Lane of the earlier (recorded) access and of the later one. */
    unsigned laneA = 0;
    unsigned laneB = 0;

    /** Conflicting word-aligned address. */
    Addr addr = 0;

    /** Issue cycle of the later access (detection point). */
    Cycle cycle = 0;
};

/**
 * The sanitizer. Attach via GpuConfig::raceHooks before a run; races()
 * accumulates deduplicated (pcA, pcB, storeStore) pairs with the first
 * witnessing occurrence of each.
 */
class RaceDetector : public RaceHooks
{
  public:
    void onAccess(const MemAccessEvent &ev) override;
    void onSync(unsigned warpId, std::uint32_t mask, std::uint32_t pc,
                Cycle cycle) override;

    const std::vector<RaceReport> &races() const { return races_; }

    /** Human-readable one-line-per-race report ("" when race-free). */
    std::string report() const;

    /** Drop all state (shadow, clocks, findings). */
    void reset();

    /**
     * Serialize / restore the full sanitizer state (vector clocks,
     * shadow cells, findings), so checkpoint/resume runs report the
     * same races as uninterrupted ones. Untagged payload — embed inside
     * a component section like ScoreboardFile does.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    /** One recorded access epoch on a shadow word. */
    struct AccessRecord
    {
        unsigned warpId = 0;
        std::uint8_t lane = 0;
        std::uint32_t clock = 0; ///< accessor's own epoch at the access
        std::uint32_t pc = 0;
    };

    struct ShadowCell
    {
        bool hasWrite = false;
        AccessRecord write;
        std::vector<AccessRecord> reads; ///< since the last write
    };

    /** Per-warp lane clocks: vc[lane*warpSize + k] = what @p lane knows
     *  of lane k's epoch. */
    struct WarpClocks
    {
        std::vector<std::uint32_t> vc =
            std::vector<std::uint32_t>(warpSize * warpSize, 0);
    };

    void joinLanes(WarpClocks &wc, std::uint32_t mask);
    void touchWord(WarpClocks &wc, const MemAccessEvent &ev, unsigned lane,
                   Addr word);

    void record(const AccessRecord &prior, bool prior_is_store,
                const MemAccessEvent &ev, unsigned lane, Addr word);

    std::map<unsigned, WarpClocks> warps_;
    std::map<Addr, ShadowCell> shadow_; ///< keyed by word address
    std::vector<RaceReport> races_;
};

} // namespace si

#endif // SI_RACE_DETECTOR_HH
