/**
 * @file
 * Warp-state diagnostics and invariant audits for the fault-tolerance
 * layer. describeWarpState() renders the full divergence machinery of a
 * warp (per-subwarp PCs, state masks, barrier participation, scoreboard
 * counts, TST entries) for watchdog and deadlock reports;
 * auditWarpInvariants() is the opt-in GpuConfig::checkInvariants pass
 * that catches silent state corruption (Accel-Sim-style drift) before it
 * turns into a hang or a wrong result.
 */

#ifndef SI_CORE_INVARIANTS_HH
#define SI_CORE_INVARIANTS_HH

#include <array>
#include <string>

#include "core/warp.hh"

namespace si {

/**
 * Outstanding-writeback coverage for one warp: pending[lane][sb] counts
 * in-flight writeback events that will decrement scoreboard sb of lane.
 * The Sm computes this from its event queue when auditing.
 */
using PendingWbCounts =
    std::array<std::array<std::uint32_t, ScoreboardFile::numSb>, warpSize>;

/**
 * Human-readable dump of one warp's scheduling state: live mask, one
 * line per (state, pc) subwarp, barrier participation, nonzero
 * scoreboard counts, and valid TST entries.
 */
std::string describeWarpState(const Warp &warp);

/**
 * Audit one warp's invariants (the state partition itself — dead lanes
 * INACTIVE, live lanes not — holds by construction, see Warp):
 *  - the ACTIVE subwarp shares a single PC;
 *  - BLOCKED lanes are registered participants of the barrier they
 *    block on (mask coverage at reconvergence);
 *  - scoreboard release balance: every per-lane count matches the
 *    in-flight writebacks that will drain it;
 *  - TST hygiene: every STALLED lane belongs to exactly one valid entry
 *    (disjointness + coverage), no valid entry without live STALLED
 *    members (entry leak), no valid entry whose scoreboard has already
 *    drained (missed wakeup).
 *
 * @return empty string when clean, else a one-line violation report.
 */
std::string auditWarpInvariants(const Warp &warp,
                                const PendingWbCounts &pending);

} // namespace si

#endif // SI_CORE_INVARIANTS_HH
