/**
 * @file
 * Functional reference interpreter: executes a Program with per-thread-PC
 * convergence-barrier semantics but NO timing model. It is the oracle half
 * of the differential-testing harness (ref/difftest.hh): architectural
 * results — final registers, predicates, memory, and per-lane retirement
 * traces — must match the cycle model bit-for-bit on every kernel whose
 * results are schedule-independent.
 *
 * Deliberately NOT modeled (so a mismatch always implicates architectural
 * state, never timing): warp slots and admission, scoreboard counts and
 * stalls, caches and latencies, the thread status table, subwarp
 * stall/wakeup/yield, warp scheduler arbitration, and switch penalties.
 * Runnable lanes are scheduled canonically: the lowest-PC group of
 * runnable lanes executes next, always as one maximal subwarp.
 *
 * Control flow, convergence barriers and memory are implemented here
 * independently of the core; per-lane ALU values come from the shared
 * opcode table (isa/op_table.hh) and are pinned by test_alu_table.
 */

#ifndef SI_REF_INTERP_HH
#define SI_REF_INTERP_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "core/retire_trace.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace si {

class Bvh;

/** Launch geometry mirroring core LaunchParams (kept separate so the
 * interpreter does not depend on core/gpu.hh). */
struct RefLaunch
{
    unsigned numWarps = 8;
    unsigned warpsPerCta = 4;
};

/** Final architectural state of one warp. */
struct RefWarpResult
{
    /** Register file, register-major: regs[r * warpSize + lane]. */
    std::vector<std::uint32_t> regs;

    /** Predicate bitmask per lane (bit p = predicate Pp). */
    std::array<std::uint8_t, warpSize> preds{};

    /** Per-lane retirement traces (same type the cycle model emits). */
    WarpRetireTrace trace;

    std::uint32_t reg(unsigned lane, RegIndex r) const
    {
        return r == regNone ? 0u : regs[std::size_t(r) * warpSize + lane];
    }

    bool predicate(unsigned lane, PredIndex p) const
    {
        return p == predNone ? true : (preds[lane] >> p) & 1u;
    }
};

/** Outcome of a reference interpretation. */
struct RefResult
{
    bool ok = false;

    /** Set when !ok: "barrier deadlock ..." or "step limit ...". */
    std::string error;

    /** True when the failure is a convergence-barrier deadlock (all live
     * lanes of some warp blocked) — comparable to the cycle model's
     * ErrorKind::BarrierDeadlock. */
    bool deadlock = false;

    std::vector<RefWarpResult> warps;

    /** Total instruction-group execution steps across all warps. */
    std::uint64_t steps = 0;
};

/**
 * Execute @p program functionally. @p memory is mutated in place (STG) —
 * pass a copy when the original image must be preserved. Warps run to
 * completion one at a time (their architectural results are independent:
 * generated kernels only store to per-thread-disjoint locations).
 *
 * @param scene optional BVH for RTQUERY (null = RTQUERY is an error).
 * @param max_steps per-warp bound on executed instruction groups.
 */
RefResult interpret(const Program &program, Memory &memory,
                    const RefLaunch &launch, const Bvh *scene = nullptr,
                    std::uint64_t max_steps = 1u << 22);

} // namespace si

#endif // SI_REF_INTERP_HH
