/**
 * @file
 * Opcode definitions for the SASS-like ISA the simulator executes.
 *
 * The set is deliberately small: enough to express the paper's Figure 9
 * listing, the CUDA microbenchmark of Figure 11, and generated raytracing
 * megakernels, while exercising every timing class the SM models (short
 * ALU, heavy ALU, transcendental, constant load, global load, texture,
 * ray query, control flow, convergence barriers).
 */

#ifndef SI_ISA_OPCODE_HH
#define SI_ISA_OPCODE_HH

#include <cstdint>
#include <string>

namespace si {

enum class Opcode : std::uint8_t {
    NOP,

    // Register movement / special registers.
    MOV,     ///< MOV Rd, Ra|imm
    S2R,     ///< S2R Rd, sreg — read a special register (thread id etc.)

    // Integer ALU.
    IADD,    ///< Rd = Ra + (Rb|imm)
    ISUB,    ///< Rd = Ra - (Rb|imm)
    IMUL,    ///< Rd = Ra * (Rb|imm)
    IMAD,    ///< Rd = Ra * (Rb|imm) + Rc
    IMIN,    ///< Rd = min(Ra, Rb|imm) (signed)
    IMAX,    ///< Rd = max(Ra, Rb|imm) (signed)
    AND,     ///< Rd = Ra & (Rb|imm)
    OR,      ///< Rd = Ra | (Rb|imm)
    XOR,     ///< Rd = Ra ^ (Rb|imm)
    SHL,     ///< Rd = Ra << (Rb|imm)
    SHR,     ///< Rd = Ra >> (Rb|imm) (logical)

    // Floating point.
    FADD,    ///< Rd = Ra + (Rb|imm)
    FMUL,    ///< Rd = Ra * (Rb|imm)
    FFMA,    ///< Rd = Ra * (Rb|imm) + Rc
    FMIN,    ///< Rd = fmin(Ra, Rb|imm)
    FMAX,    ///< Rd = fmax(Ra, Rb|imm)
    FRCP,    ///< Rd = 1 / Ra (transcendental pipe)
    FSQRT,   ///< Rd = sqrt(Ra) (transcendental pipe)
    I2F,     ///< Rd = float(int(Ra))
    F2I,     ///< Rd = int(float(Ra))

    // Predicates.
    ISETP,   ///< Pd = Ra <cmp> (Rb|imm), signed integer compare
    FSETP,   ///< Pd = Ra <cmp> (Rb|imm), float compare
    SEL,     ///< Rd = guard-pred ? Ra : (Rb|imm)

    // Memory.
    LDG,     ///< Rd = mem[Ra + imm]; long-latency, LSU writeback port
    STG,     ///< mem[Ra + imm] = Rb (srcB); fire-and-forget
    LDC,     ///< Rd = const[imm]; short fixed latency
    TEX,     ///< Rd = texture fetch addressed by (Ra, Rb); TEX port
    TLD,     ///< texture load, same pipe as TEX (paper Fig. 9 uses both)

    // Raytracing.
    RTQUERY, ///< Launch async BVH query: ray in Ra..Ra+5, result in
             ///< Rd..Rd+2 (shader id, t, prim id); TEX writeback port

    // Control flow and convergence barriers (Volta-style).
    BRA,     ///< branch to target (divergent when guarded per-thread)
    BSSY,    ///< register active threads in barrier Bb; target = conv point
    BSYNC,   ///< wait at barrier Bb until all participants arrive
    YIELD,   ///< subwarp-yield scheduling hint (NOP on baseline)
    EXIT,    ///< thread terminates

    // Observability.
    MARKER,  ///< region marker pseudo-op: imm indexes the program's
             ///< region-name table; executing it retags the warp's
             ///< current region for metrics attribution (NOP timing)

    NumOpcodes
};

/** Comparison operator for ISETP/FSETP. */
enum class CmpOp : std::uint8_t { LT, LE, GT, GE, EQ, NE };

/** Special registers readable via S2R. */
enum class SReg : std::uint8_t {
    TID,     ///< global thread id
    CTAID,   ///< CTA id
    LANEID,  ///< lane within warp (0..31)
    WARPID,  ///< global warp id
};

/** Broad timing class of an opcode. */
enum class OpClass : std::uint8_t {
    Alu,            ///< short fixed-latency ALU
    HeavyAlu,       ///< multiply/FMA class
    Transcendental, ///< FRCP/FSQRT
    ConstLoad,      ///< LDC
    GlobalLoad,     ///< LDG (variable latency, LSU port)
    Store,          ///< STG
    Texture,        ///< TEX/TLD (variable latency, TEX port)
    RtQuery,        ///< RTQUERY (variable latency, RT unit)
    Control,        ///< BRA/BSSY/BSYNC/YIELD/EXIT/NOP/MARKER
};

/** Timing class of @p op. */
OpClass opClassOf(Opcode op);

/** True for opcodes whose results arrive via a scoreboarded writeback. */
bool isLongLatency(Opcode op);

/**
 * Address-provenance helpers for the memory-order analyses (verify/
 * memdep, race/detector): which opcodes touch the global/texture
 * address space at issue time. LDC reads the constant bank — a separate
 * address space no store can reach — and RTQUERY walks the immutable
 * BVH, so neither participates in memory-order hazards.
 */
bool readsGlobalMemory(Opcode op);  ///< LDG / TEX / TLD
bool writesGlobalMemory(Opcode op); ///< STG
bool accessesGlobalMemory(Opcode op);

/** Mnemonic string for disassembly. */
const char *opcodeName(Opcode op);

/** Mnemonic string for a comparison operator. */
const char *cmpName(CmpOp cmp);

/** Assembler name of a special register ("SR<n>" when out of range). */
std::string sregName(SReg sr);

} // namespace si

#endif // SI_ISA_OPCODE_HH
