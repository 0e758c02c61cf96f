/**
 * @file
 * Basic-block control-flow graph over isa::Program, built BRA/BSSY/
 * BSYNC/EXIT-aware. The static verifier (verify/verifier.hh) runs its
 * dataflow analyses over this graph; dominators drive the
 * barrier-register reuse check.
 *
 * Edge model (matches the per-thread-PC semantics of core/ and ref/):
 *   - BRA unguarded: the target only.
 *   - BRA guarded:   target + fall-through (divergence).
 *   - EXIT unguarded: no successor. Guarded EXIT falls through.
 *   - BSSY: fall-through only. Its target names the reconvergence
 *     point for bookkeeping, but the hardware never transfers control
 *     there — released lanes continue after their BSYNC.
 *   - BSYNC: fall-through (participants resume at pc+1 on release).
 */

#ifndef SI_VERIFY_CFG_HH
#define SI_VERIFY_CFG_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace si {

/** One basic block: the half-open pc range [first, end). */
struct CfgBlock
{
    std::uint32_t first = 0;
    std::uint32_t end = 0;

    std::vector<std::uint32_t> succs; ///< successor block ids
    std::vector<std::uint32_t> preds; ///< predecessor block ids

    std::uint32_t last() const { return end - 1; }
};

/**
 * The control-flow graph. Block 0 is the entry (pc 0). Construction
 * requires a structurally sane program (branch targets in range) —
 * see Program::defects().
 */
class Cfg
{
  public:
    static Cfg build(const Program &program);

    const std::vector<CfgBlock> &blocks() const { return blocks_; }
    const CfgBlock &block(std::uint32_t id) const { return blocks_[id]; }
    std::uint32_t numBlocks() const { return std::uint32_t(blocks_.size()); }

    /** Block containing @p pc. */
    std::uint32_t blockOf(std::uint32_t pc) const { return blockOf_[pc]; }

    /** Block ids in reverse postorder from the entry (unreachable
     *  blocks are absent). */
    const std::vector<std::uint32_t> &rpo() const { return rpo_; }

    /** True when @p id is reachable from the entry block. */
    bool reachable(std::uint32_t id) const { return reachable_[id]; }

    /**
     * Immediate dominator per block (entry maps to itself; unreachable
     * blocks map to the invalid id numBlocks()). Cooper-Harvey-Kennedy
     * iteration over the reverse postorder.
     */
    std::vector<std::uint32_t> immediateDominators() const;

    /**
     * Instruction-granular dominance: every path from the entry to
     * @p pcB executes @p pcA first. @p idom must come from
     * immediateDominators().
     */
    bool dominates(std::uint32_t pcA, std::uint32_t pcB,
                   const std::vector<std::uint32_t> &idom) const;

    /**
     * Instruction-granular forward reachability: some path from @p from
     * (exclusive) executes @p to. Linear in the graph size per query.
     */
    bool reaches(std::uint32_t from, std::uint32_t to) const;

    /** Blocks from which some EXIT instruction is reachable. */
    std::vector<bool> canReachExit(const Program &program) const;

  private:
    std::vector<CfgBlock> blocks_;
    std::vector<std::uint32_t> blockOf_;
    std::vector<std::uint32_t> rpo_;
    std::vector<bool> reachable_;
};

} // namespace si

#endif // SI_VERIFY_CFG_HH
