/**
 * @file
 * The opcode descriptor table: one entry per Opcode holding every fact
 * the rest of the simulator needs about it — mnemonic, timing class,
 * operand shape, whether the B immediate is a float, the register
 * windows wider than one register, and, for the lane-valued opcodes
 * (ALU, FP, compare, SEL, MOV, S2R), the pure per-lane value function
 * both executors call.
 *
 * Adding an opcode means: a new enumerator in opcode.hh, a row here, and
 * — only if it is not lane-valued — its execution in Sm::issue() and in
 * ref/interp.cc. The assembler and both printers follow from the shape.
 */

#ifndef SI_ISA_OP_TABLE_HH
#define SI_ISA_OP_TABLE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/types.hh"
#include "isa/instr.hh"

namespace si {

/** Operand layout: what the assembler parses and the printers emit. */
enum class OpShape : std::uint8_t {
    None,    ///< no operands (NOP, YIELD, EXIT)
    Mov,     ///< Rd, Ra|imm — the immediate's raw bits, printed as an int
    S2r,     ///< Rd, special register
    Unary,   ///< Rd, Ra
    Binary,  ///< Rd, Ra, Rb|imm
    Ternary, ///< Rd, Ra, Rb|imm, Rc
    SetP,    ///< .CMP Pd, Ra, Rb|imm — the result is a predicate
    Sel,     ///< Rd, Ra, Rb|imm, Pp
    Load,    ///< Rd, [Ra+imm]
    Store,   ///< [Ra+imm], Rb
    Const,   ///< Rd, c[imm]
    Tex,     ///< Rd, Ra, Rb
    Branch,  ///< label
    Bssy,    ///< Bb, label
    Bsync,   ///< Bb
    Marker,  ///< region name
};

inline float
asFloat(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

inline std::uint32_t
asBits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

template <class T>
inline bool
compare(CmpOp op, T a, T b)
{
    switch (op) {
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
    }
    return false;
}

/** Everything a lane function reads for one lane. */
struct LaneArgs
{
    std::uint32_t a;    ///< srcA
    std::uint32_t b;    ///< the B operand: srcB, or #imm when bImm
    std::uint32_t c;    ///< srcC
    bool p;             ///< predicate pdst (SEL's selector)
    std::uint32_t lane; ///< lane within the warp
    std::uint32_t warp; ///< global (logical) warp id
    std::uint32_t cta;  ///< CTA id

    float fa() const { return asFloat(a); }
    float fb() const { return asFloat(b); }
    float fc() const { return asFloat(c); }
    std::int32_t ia() const { return std::int32_t(a); }
    std::int32_t ib() const { return std::int32_t(b); }
};

/** A lane-valued opcode's result for one lane (a predicate for SetP). */
using LaneFn = std::uint32_t (*)(const Instr &, const LaneArgs &);

inline std::uint32_t
readSReg(SReg sr, const LaneArgs &x)
{
    switch (sr) {
      case SReg::TID: return x.warp * warpSize + x.lane;
      case SReg::CTAID: return x.cta;
      case SReg::LANEID: return x.lane;
      case SReg::WARPID: return x.warp;
    }
    return 0;
}

/** Saturating float->int (CUDA cvt semantics): NaN is 0. */
inline std::int32_t
f2iSaturate(float f)
{
    if (!std::isfinite(f))
        return f > 0 ? INT32_MAX : (f < 0 ? INT32_MIN : 0);
    if (f >= 2147483647.0f)
        return INT32_MAX;
    if (f <= -2147483648.0f)
        return INT32_MIN;
    return std::int32_t(f);
}

/**
 * The timing classes whose opcodes compute a pure per-lane value (ALU,
 * FP, compare, SEL, MOV, S2R) and so carry an OpInfo::lane function.
 * Decided by class rather than by testing the pointer, which GCC does
 * not treat as a constant expression under -fsanitize=null.
 */
constexpr bool
isLaneValued(OpClass cls)
{
    return cls == OpClass::Alu || cls == OpClass::HeavyAlu ||
           cls == OpClass::Transcendental;
}

struct OpInfo
{
    Opcode op;
    const char *name;
    OpClass cls;
    OpShape shape;
    bool floatImm; ///< a B immediate holds float bits (FADD R1, R2, 2 = 2.0f)
    LaneFn lane;   ///< set exactly when isLaneValued(cls)
    /** Registers read from srcA up and written from dst up: RTQUERY's
     *  ray (origin, direction) and hit record (material+1, t, prim). */
    unsigned srcARegs = 1, dstRegs = 1;
};

// A lane function: pure in the instruction and one lane's operands.
#define SI_LANE(expr)                                                     \
    [](const Instr &in [[maybe_unused]],                                  \
       const LaneArgs &x [[maybe_unused]]) -> std::uint32_t {             \
        return expr;                                                      \
    }

inline constexpr OpInfo opTable[] = {
    {Opcode::NOP, "NOP", OpClass::Control, OpShape::None, false, nullptr},
    {Opcode::MOV, "MOV", OpClass::Alu, OpShape::Mov, false,
     SI_LANE(in.bImm ? x.b : x.a)},
    {Opcode::S2R, "S2R", OpClass::Alu, OpShape::S2r, false,
     SI_LANE(readSReg(SReg(in.imm), x))},

    {Opcode::IADD, "IADD", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a + x.b)},
    {Opcode::ISUB, "ISUB", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a - x.b)},
    {Opcode::IMUL, "IMUL", OpClass::HeavyAlu, OpShape::Binary, false,
     SI_LANE(x.a * x.b)},
    {Opcode::IMAD, "IMAD", OpClass::HeavyAlu, OpShape::Ternary, false,
     SI_LANE(x.a * x.b + x.c)},
    {Opcode::IMIN, "IMIN", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(std::uint32_t(std::min(x.ia(), x.ib())))},
    {Opcode::IMAX, "IMAX", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(std::uint32_t(std::max(x.ia(), x.ib())))},
    {Opcode::AND, "AND", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a & x.b)},
    {Opcode::OR, "OR", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a | x.b)},
    {Opcode::XOR, "XOR", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a ^ x.b)},
    {Opcode::SHL, "SHL", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a << (x.b & 31))},
    {Opcode::SHR, "SHR", OpClass::Alu, OpShape::Binary, false,
     SI_LANE(x.a >> (x.b & 31))},

    {Opcode::FADD, "FADD", OpClass::Alu, OpShape::Binary, true,
     SI_LANE(asBits(x.fa() + x.fb()))},
    {Opcode::FMUL, "FMUL", OpClass::Alu, OpShape::Binary, true,
     SI_LANE(asBits(x.fa() * x.fb()))},
    {Opcode::FFMA, "FFMA", OpClass::HeavyAlu, OpShape::Ternary, true,
     SI_LANE(asBits(x.fa() * x.fb() + x.fc()))},
    {Opcode::FMIN, "FMIN", OpClass::Alu, OpShape::Binary, true,
     SI_LANE(asBits(std::fmin(x.fa(), x.fb())))},
    {Opcode::FMAX, "FMAX", OpClass::Alu, OpShape::Binary, true,
     SI_LANE(asBits(std::fmax(x.fa(), x.fb())))},
    {Opcode::FRCP, "FRCP", OpClass::Transcendental, OpShape::Unary, false,
     SI_LANE(asBits(x.fa() == 0.0f ? 0.0f : 1.0f / x.fa()))},
    {Opcode::FSQRT, "FSQRT", OpClass::Transcendental, OpShape::Unary, false,
     SI_LANE(asBits(std::sqrt(std::fmax(0.0f, x.fa()))))},
    {Opcode::I2F, "I2F", OpClass::Alu, OpShape::Unary, false,
     SI_LANE(asBits(float(x.ia())))},
    {Opcode::F2I, "F2I", OpClass::Alu, OpShape::Unary, false,
     SI_LANE(std::uint32_t(f2iSaturate(x.fa())))},

    {Opcode::ISETP, "ISETP", OpClass::Alu, OpShape::SetP, false,
     SI_LANE(compare(in.cmp, x.ia(), x.ib()))},
    {Opcode::FSETP, "FSETP", OpClass::Alu, OpShape::SetP, true,
     SI_LANE(compare(in.cmp, x.fa(), x.fb()))},
    {Opcode::SEL, "SEL", OpClass::Alu, OpShape::Sel, false,
     SI_LANE(x.p ? x.a : x.b)},

    {Opcode::LDG, "LDG", OpClass::GlobalLoad, OpShape::Load, false, nullptr},
    {Opcode::STG, "STG", OpClass::Store, OpShape::Store, false, nullptr},
    {Opcode::LDC, "LDC", OpClass::ConstLoad, OpShape::Const, false, nullptr},
    {Opcode::TEX, "TEX", OpClass::Texture, OpShape::Tex, false, nullptr},
    {Opcode::TLD, "TLD", OpClass::Texture, OpShape::Tex, false, nullptr},
    {Opcode::RTQUERY, "RTQUERY", OpClass::RtQuery, OpShape::Unary, false,
     nullptr, 6, 3},

    {Opcode::BRA, "BRA", OpClass::Control, OpShape::Branch, false, nullptr},
    {Opcode::BSSY, "BSSY", OpClass::Control, OpShape::Bssy, false, nullptr},
    {Opcode::BSYNC, "BSYNC", OpClass::Control, OpShape::Bsync, false,
     nullptr},
    {Opcode::YIELD, "YIELD", OpClass::Control, OpShape::None, false,
     nullptr},
    {Opcode::EXIT, "EXIT", OpClass::Control, OpShape::None, false, nullptr},
    {Opcode::MARKER, "MARKER", OpClass::Control, OpShape::Marker, false,
     nullptr},
};

#undef SI_LANE

static_assert(std::size(opTable) == std::size_t(Opcode::NumOpcodes),
              "one opTable row per Opcode");
static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(opTable); ++i) {
            if (opTable[i].op != Opcode(i))
                return false;
        }
        return true;
    }(),
    "opTable rows are in Opcode order");

constexpr const OpInfo &
opInfo(Opcode op)
{
    return opTable[std::size_t(op)];
}

/**
 * If @p op is lane-valued, call @p body with it as a compile-time
 * constant (a std::integral_constant<Opcode, op>) and return true;
 * otherwise return false. Resolving the opcode once per instruction
 * lets the executor's per-lane loop call opInfo(op).lane directly, so
 * the lane function inlines instead of costing an indirect call per lane.
 */
template <class Body>
inline bool
withLaneOp(Opcode op, Body &&body)
{
    auto one = [&]<std::size_t I>() {
        constexpr Opcode k = Opcode(I);
        if constexpr (!isLaneValued(opInfo(k).cls)) {
            return false;
        } else {
            if (op != k)
                return false;
            body(std::integral_constant<Opcode, k>{});
            return true;
        }
    };
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return (one.template operator()<I>() || ...);
    }(std::make_index_sequence<std::size(opTable)>{});
}

} // namespace si

#endif // SI_ISA_OP_TABLE_HH
