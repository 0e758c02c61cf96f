/**
 * @file
 * The Instr structure: one decoded instruction of the SASS-like ISA,
 * including the count-based scoreboard annotations (&wr=sbN / &req=sbN)
 * from the paper's Figure 9.
 */

#ifndef SI_ISA_INSTR_HH
#define SI_ISA_INSTR_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "common/types.hh"
#include "isa/opcode.hh"

namespace si {

/**
 * A single decoded instruction. Plain value type; the program is a
 * vector of these and the PC is an index into that vector.
 */
struct Instr
{
    Opcode op = Opcode::NOP;

    RegIndex dst = regNone;
    RegIndex srcA = regNone;
    RegIndex srcB = regNone;
    RegIndex srcC = regNone;

    /** When set, srcB is taken from #imm instead of a register. */
    bool bImm = false;

    /** Immediate: integer value, float bits, sreg id, or const offset. */
    std::int32_t imm = 0;

    /** Branch / BSSY convergence-point target (instruction index). */
    std::uint32_t target = 0;

    /** Guard predicate: instruction is executed by lanes where @P holds. */
    PredIndex guard = predNone;
    bool guardNeg = false;

    /** Destination predicate for ISETP/FSETP. */
    PredIndex pdst = predNone;
    CmpOp cmp = CmpOp::EQ;

    /** Convergence barrier register for BSSY/BSYNC. */
    BarIndex bar = barNone;

    /** Scoreboard incremented at issue, decremented at writeback. */
    SbIndex wrSb = sbNone;

    /** Bitmask of scoreboards that must read zero before issue. */
    std::uint8_t reqSbMask = 0;

    /**
     * Software stall-probability hint on conditional branches (the
     * paper's Discussion item 3): positive = the taken path is more
     * likely to suffer load-to-use stalls and should execute first;
     * negative = the fall-through path; zero = no hint. Produced by
     * annotateStallHints() or hand-written via .hint assembler syntax.
     */
    std::int8_t stallHint = 0;

    // ---- fluent annotation helpers used by KernelBuilder clients ----

    /** Annotate with &wr=sb<id>; SimError(Parse) past the last one. */
    Instr &
    wr(SbIndex id)
    {
        sim_throw_if(id >= numScoreboards, ErrorKind::Parse,
                     "&wr=sb%u outside sb0..sb%u", unsigned(id),
                     numScoreboards - 1);
        wrSb = id;
        return *this;
    }

    /** Annotate with &req=sb<id> (may be called repeatedly). */
    Instr &
    req(SbIndex id)
    {
        sim_throw_if(id >= numScoreboards, ErrorKind::Parse,
                     "&req=sb%u outside sb0..sb%u", unsigned(id),
                     numScoreboards - 1);
        reqSbMask |= std::uint8_t(1u << id);
        return *this;
    }

    /** Guard with @P<id> (or @!P<id> when @p neg). */
    Instr &
    pred(PredIndex id, bool neg = false)
    {
        guard = id;
        guardNeg = neg;
        return *this;
    }

    /** Float immediate helper: stores bits of @p f into #imm. */
    static std::int32_t
    fbits(float f)
    {
        return std::bit_cast<std::int32_t>(f);
    }

    /** Recover a float immediate. */
    static float
    bitsToFloat(std::int32_t bits)
    {
        return std::bit_cast<float>(bits);
    }

    /** True when this instruction can change per-thread PCs. */
    bool
    isControl() const
    {
        return op == Opcode::BRA || op == Opcode::BSYNC ||
               op == Opcode::EXIT;
    }

    /** Human-readable disassembly (labels resolved numerically). */
    std::string disasm() const;
};

/** Printing conventions of formatInstr(). */
enum class InstrStyle : std::uint8_t {
    /** For humans: numeric branch targets and MARKER indices, floats in
     * std::to_string form, no SEL predicate operand. */
    Disasm,
    /** The assembler grammar, reparsing to the same instruction: branch
     * targets as labels "L<pc>", MARKER regions by name, floats with
     * enough digits to be bit-exact, PT for the null predicate. */
    Source,
};

/**
 * One instruction as text, laid out by its opcode's operand shape.
 * @p regions names MARKER regions in Source style.
 */
std::string formatInstr(const Instr &in, InstrStyle style,
                        const std::vector<std::string> &regions = {});

} // namespace si

#endif // SI_ISA_INSTR_HH
