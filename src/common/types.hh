/**
 * @file
 * Fundamental types shared by every subsystem of the simulator.
 */

#ifndef SI_COMMON_TYPES_HH
#define SI_COMMON_TYPES_HH

#include <cstdint>

namespace si {

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Flat 64-bit device address. */
using Addr = std::uint64_t;

/** Number of threads per warp (fixed, as on NVIDIA hardware). */
inline constexpr unsigned warpSize = 32;

/** Sentinel for "no cycle scheduled". */
inline constexpr Cycle invalidCycle = ~Cycle(0);

/** Architectural register index type. */
using RegIndex = std::uint8_t;

/** Sentinel register meaning "no destination / RZ". */
inline constexpr RegIndex regNone = 255;

/** Most registers a program may declare: R0..R254 (regNone is RZ). */
inline constexpr unsigned maxRegs = regNone;

/** Predicate register index type (P0..P6, PT == predNone). */
using PredIndex = std::uint8_t;

/** Sentinel predicate meaning "always true" (PT). */
inline constexpr PredIndex predNone = 7;

/** Predicate registers per thread: P0..P{numPredicates-1}. */
inline constexpr unsigned numPredicates = predNone;

/** Count-based scoreboard identifier (sb0..sb{numScoreboards-1}). */
using SbIndex = std::uint8_t;

/** Count-based scoreboards per warp. */
inline constexpr unsigned numScoreboards = 8;

/** Sentinel scoreboard id meaning "none". */
inline constexpr SbIndex sbNone = 255;

/** Convergence barrier register index (B0..B{numBarriers-1}). */
using BarIndex = std::uint8_t;

/** Convergence-barrier registers per warp. */
inline constexpr unsigned numBarriers = 16;

/** Sentinel barrier index. */
inline constexpr BarIndex barNone = 255;

} // namespace si

#endif // SI_COMMON_TYPES_HH
