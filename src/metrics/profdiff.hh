/**
 * @file
 * swprof --diff backend: load two statistics exports (si-stats-v1 or
 * si-metrics-v1) of the same workload run under different configs —
 * canonically subwarp interleaving off vs on — align their kernel
 * regions by name, and decompose the warp-cycle delta into per-region,
 * per-stall-reason contributions.
 *
 * The decomposition is exact, not a model: the simulator maintains
 *   liveWarpCycles == instrsIssued + arbLossCycles + sum(stallCycles)
 * per SM and per region by construction (see core/sm.hh), so the
 * region deltas sum to the total live-warp-cycle delta with zero
 * residual. The residual is computed anyway and exported; a nonzero
 * value means the two inputs are not what they claim to be.
 */

#ifndef SI_METRICS_PROFDIFF_HH
#define SI_METRICS_PROFDIFF_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sm.hh"

namespace si {

/** One side of a diff: the partition parsed from an exported document. */
struct ProfSide
{
    std::string file;   ///< where it was loaded from (report labels)
    std::string schema; ///< "si-stats-v1" or "si-metrics-v1"
    std::string kernel;
    std::uint64_t cycles = 0; ///< kernel runtime (max over SMs)
    RegionCounters totals;    ///< summed over SMs
    /** Per MARKER-delimited region, by name, in export order. */
    std::vector<std::pair<std::string, RegionCounters>> regions;
};

/** @p test - @p base per count, modulo 2^64: read as std::int64_t, each
 *  count (and any sum of such counts) is the signed delta. */
RegionCounters partitionDelta(const RegionCounters &base,
                              const RegionCounters &test);

/** One region's partition delta (test minus base), aligned by name. */
struct RegionDelta
{
    std::string name;
    bool inBase = false;
    bool inTest = false;
    RegionCounters delta; ///< a partitionDelta()
};

/** The full diff: totals, aligned region deltas, and the residual. */
struct ProfDiff
{
    ProfSide base;
    ProfSide test;
    /** Sorted by |delta.warpCycles| descending, name ascending on ties. */
    std::vector<RegionDelta> regions;
    std::int64_t deltaCycles = 0;
    RegionCounters delta; ///< partitionDelta() of the totals
    /** delta.warpCycles - sum(region delta.warpCycles); 0 by the
     *  partition identity whenever both inputs are genuine exports. */
    std::int64_t residual = 0;
};

/**
 * Parse @p text (the contents of @p file) into totals. Accepts
 * si-stats-v1 (gpu group scalars + top-level regions array) and
 * si-metrics-v1 (windows are summed; refused when any window was
 * dropped, since the series would no longer cover the run).
 * @return false with @p error set on malformed or unsupported input.
 */
bool loadProfInput(const std::string &text, const std::string &file,
                   ProfSide &out, std::string &error);

/** Compute the diff @p test minus @p base. */
ProfDiff diffProf(const ProfSide &base, const ProfSide &test);

/** Human-readable per-region CPI-stack difference report. */
std::string profDiffReport(const ProfDiff &diff);

/** Machine-readable export ("si-profdiff-v1", stable key order). */
std::string profDiffJson(const ProfDiff &diff);

} // namespace si

#endif // SI_METRICS_PROFDIFF_HH
