/**
 * @file
 * Table-driven ALU semantics sweep: every lane-valued opcode (integer,
 * float, conversion, compare, SEL, MOV, S2R) is run through a small
 * kernel with concrete operands and its architectural result checked
 * against a hand-written expected value, including signedness,
 * shift-amount masking, float edge cases and saturating conversion.
 *
 * Every case runs on both the cycle model (simulate()) and the
 * reference interpreter (interpret()). The two executors share one
 * definition of each opcode's lane value, so these hand-written values
 * — not the interpreter — are what pins that definition down.
 */

#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/op_table.hh"
#include "ref/interp.hh"

using namespace si;

namespace {

/** Each thread stores its result word at out + 4 * tid. */
constexpr std::int32_t out = 0x1000;

/** Two CTAs of two warps, so TID/WARPID/CTAID all vary. */
constexpr LaunchParams launch{4, 2};
constexpr unsigned numThreads = 4 * warpSize;

using Expected = std::function<std::uint32_t(unsigned tid)>;

std::uint32_t
f2b(float f)
{
    return std::uint32_t(Instr::fbits(f));
}

/** R1 = out + 4 * tid; the case then leaves its result in R5. */
void
prologue(KernelBuilder &kb)
{
    kb.s2r(0, SReg::TID);
    kb.shli(1, 0, 2);
}

Program
epilogue(KernelBuilder &kb)
{
    kb.stg(1, out, 5);
    kb.exit();
    return kb.build(16);
}

/** Run @p p on both executors and check every thread's stored word. */
void
expectBothExecutors(const std::string &name, const Program &p,
                    const Expected &expected)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory sim_mem;
    const GpuResult r = simulate(cfg, sim_mem, p, launch);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status.summary();

    Memory ref_mem;
    const RefResult ref = interpret(
        p, ref_mem, RefLaunch{launch.numWarps, launch.warpsPerCta});
    ASSERT_TRUE(ref.ok) << name << ": " << ref.error;

    for (unsigned tid = 0; tid < numThreads; ++tid) {
        const Addr a = Addr(out) + 4 * tid;
        EXPECT_EQ(sim_mem.read(a), expected(tid))
            << name << " (simulate) tid " << tid;
        EXPECT_EQ(ref_mem.read(a), expected(tid))
            << name << " (interpret) tid " << tid;
    }
}

Expected
constant(std::uint32_t v)
{
    return [v](unsigned) { return v; };
}

// ---- register-operand ALU cases ----------------------------------------

struct AluCase
{
    const char *name;
    Opcode op;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;       ///< srcC for IMAD/FFMA
    std::uint32_t expected;
};

const std::vector<AluCase> kIntegerCases = {
    {"iadd", Opcode::IADD, 7, 5, 0, 12},
    {"iadd_wrap", Opcode::IADD, 0xffffffffu, 2, 0, 1},
    {"isub", Opcode::ISUB, 5, 7, 0, 0xfffffffeu},
    {"imul", Opcode::IMUL, 6, 7, 0, 42},
    {"imul_wrap", Opcode::IMUL, 0x10000u, 0x10000u, 0, 0},
    {"imad", Opcode::IMAD, 3, 4, 5, 17},
    {"imin_signed", Opcode::IMIN, std::uint32_t(-5), 3, 0,
     std::uint32_t(-5)},
    {"imax_signed", Opcode::IMAX, std::uint32_t(-5), 3, 0, 3},
    {"and", Opcode::AND, 0xff00ffu, 0x0ff0f0u, 0, 0x0f00f0u},
    {"or", Opcode::OR, 0xf0u, 0x0fu, 0, 0xffu},
    {"xor", Opcode::XOR, 0xaau, 0xffu, 0, 0x55u},
    {"shl", Opcode::SHL, 1, 4, 0, 16},
    {"shl_mask", Opcode::SHL, 1, 33, 0, 2}, // amount & 31
    {"shr_logical", Opcode::SHR, 0x80000000u, 4, 0, 0x08000000u},
    {"shr_mask", Opcode::SHR, 0x100u, 40, 0, 0x1u},
};

const float inf = std::numeric_limits<float>::infinity();

const std::vector<AluCase> kFloatCases = {
    {"fadd", Opcode::FADD, f2b(1.5f), f2b(2.25f), 0, f2b(3.75f)},
    {"fadd_neg", Opcode::FADD, f2b(1.0f), f2b(-3.0f), 0, f2b(-2.0f)},
    {"fmul", Opcode::FMUL, f2b(3.0f), f2b(-2.0f), 0, f2b(-6.0f)},
    {"ffma", Opcode::FFMA, f2b(2.0f), f2b(3.0f), f2b(4.0f), f2b(10.0f)},
    {"fmin", Opcode::FMIN, f2b(1.0f), f2b(-1.0f), 0, f2b(-1.0f)},
    {"fmax", Opcode::FMAX, f2b(1.0f), f2b(-1.0f), 0, f2b(1.0f)},
    {"fmin_inf", Opcode::FMIN, f2b(1e30f), f2b(-inf), 0, f2b(-inf)},
    {"frcp", Opcode::FRCP, f2b(4.0f), 0, 0, f2b(0.25f)},
    {"frcp_neg", Opcode::FRCP, f2b(-0.5f), 0, 0, f2b(-2.0f)},
    {"frcp_zero", Opcode::FRCP, f2b(0.0f), 0, 0, 0},
    {"frcp_negzero", Opcode::FRCP, f2b(-0.0f), 0, 0, 0},
    {"fsqrt", Opcode::FSQRT, f2b(9.0f), 0, 0, f2b(3.0f)},
    {"fsqrt_negative", Opcode::FSQRT, f2b(-4.0f), 0, 0, 0},
    {"i2f", Opcode::I2F, 7, 0, 0, f2b(7.0f)},
    {"i2f_signed", Opcode::I2F, std::uint32_t(-3), 0, 0, f2b(-3.0f)},
    {"f2i", Opcode::F2I, f2b(3.7f), 0, 0, 3},
    {"f2i_truncates_negative", Opcode::F2I, f2b(-3.7f), 0, 0,
     std::uint32_t(-3)},
    {"f2i_nan", Opcode::F2I, f2b(NAN), 0, 0, 0},
    {"f2i_pos_inf", Opcode::F2I, f2b(inf), 0, 0, 0x7fffffffu},
    {"f2i_neg_inf", Opcode::F2I, f2b(-inf), 0, 0, 0x80000000u},
    {"f2i_saturates_high", Opcode::F2I, f2b(3e9f), 0, 0, 0x7fffffffu},
    {"f2i_saturates_low", Opcode::F2I, f2b(-3e9f), 0, 0, 0x80000000u},
};

class AluTableTest : public ::testing::TestWithParam<AluCase>
{
};

} // namespace

TEST_P(AluTableTest, OneOpKernelProducesExpectedResult)
{
    const AluCase &tc = GetParam();

    KernelBuilder kb(tc.name);
    prologue(kb);
    kb.movi(2, std::int32_t(tc.a));
    kb.movi(3, std::int32_t(tc.b));
    kb.movi(4, std::int32_t(tc.c));
    Instr in;
    in.op = tc.op;
    in.dst = 5;
    in.srcA = 2;
    in.srcB = 3;
    if (tc.op == Opcode::IMAD || tc.op == Opcode::FFMA)
        in.srcC = 4;
    kb.emit(in);
    expectBothExecutors(tc.name, epilogue(kb), constant(tc.expected));
}

INSTANTIATE_TEST_SUITE_P(
    Integer, AluTableTest, ::testing::ValuesIn(kIntegerCases),
    [](const ::testing::TestParamInfo<AluCase> &info) {
        return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Float, AluTableTest, ::testing::ValuesIn(kFloatCases),
    [](const ::testing::TestParamInfo<AluCase> &info) {
        return std::string(info.param.name);
    });

namespace {

// ---- compares -----------------------------------------------------------

struct CmpCase
{
    const char *name;
    Opcode op;
    CmpOp cmp;
    std::uint32_t a;
    std::uint32_t b;
    bool expected;
};

const std::vector<CmpCase> kCmpCases = {
    {"ilt_signed", Opcode::ISETP, CmpOp::LT, std::uint32_t(-1), 0, true},
    {"igt_signed", Opcode::ISETP, CmpOp::GT, std::uint32_t(-1), 0, false},
    {"ile_eq", Opcode::ISETP, CmpOp::LE, 5, 5, true},
    {"ige_eq", Opcode::ISETP, CmpOp::GE, 5, 5, true},
    {"ieq", Opcode::ISETP, CmpOp::EQ, 9, 9, true},
    {"ine", Opcode::ISETP, CmpOp::NE, 9, 9, false},
    {"flt", Opcode::FSETP, CmpOp::LT, f2b(-0.5f), f2b(0.5f), true},
    {"fge", Opcode::FSETP, CmpOp::GE, f2b(2.0f), f2b(2.0f), true},
    {"fne_nan", Opcode::FSETP, CmpOp::NE, f2b(NAN), f2b(NAN), true},
    {"feq_nan", Opcode::FSETP, CmpOp::EQ, f2b(NAN), f2b(NAN), false},
};

class CmpTableTest : public ::testing::TestWithParam<CmpCase>
{
};

} // namespace

TEST_P(CmpTableTest, PredicateMatches)
{
    const CmpCase &tc = GetParam();
    KernelBuilder kb(tc.name);
    prologue(kb);
    kb.movi(2, std::int32_t(tc.a));
    kb.movi(3, std::int32_t(tc.b));
    Instr in;
    in.op = tc.op;
    in.srcA = 2;
    in.srcB = 3;
    in.pdst = 0;
    in.cmp = tc.cmp;
    kb.emit(in);
    kb.movi(5, 0);
    kb.movi(5, 1).pred(0);
    expectBothExecutors(tc.name, epilogue(kb),
                        constant(tc.expected ? 1u : 0u));
}

INSTANTIATE_TEST_SUITE_P(
    Compares, CmpTableTest, ::testing::ValuesIn(kCmpCases),
    [](const ::testing::TestParamInfo<CmpCase> &info) {
        return std::string(info.param.name);
    });

namespace {

// ---- MOV, SEL and S2R ---------------------------------------------------

struct LaneCase
{
    const char *name;
    Opcode op;
    /** Emits the instruction under test (and its set-up) into R5. */
    std::function<void(KernelBuilder &)> body;
    Expected expected;
};

const std::vector<LaneCase> kLaneCases = {
    {"mov_reg", Opcode::MOV,
     [](KernelBuilder &kb) {
         kb.movi(2, -77);
         kb.mov(5, 2);
     },
     constant(std::uint32_t(-77))},
    {"mov_imm", Opcode::MOV, [](KernelBuilder &kb) { kb.movi(5, 1234); },
     constant(1234)},
    {"mov_float_imm", Opcode::MOV,
     [](KernelBuilder &kb) { kb.movf(5, -1.25f); },
     constant(f2b(-1.25f))},
    // P0 = (tid is odd); SEL picks Ra where P0 holds, else the B operand.
    {"sel_reg", Opcode::SEL,
     [](KernelBuilder &kb) {
         kb.andi(6, 0, 1);
         kb.isetpi(0, CmpOp::EQ, 6, 1);
         kb.movi(2, 111);
         kb.movi(3, 222);
         kb.sel(5, 2, 3, 0);
     },
     [](unsigned tid) { return tid % 2 ? 111u : 222u; }},
    {"sel_imm", Opcode::SEL,
     [](KernelBuilder &kb) {
         kb.andi(6, 0, 1);
         kb.isetpi(0, CmpOp::EQ, 6, 1);
         kb.movi(2, 111);
         Instr &in = kb.sel(5, 2, regNone, 0);
         in.bImm = true;
         in.imm = -9;
     },
     [](unsigned tid) { return tid % 2 ? 111u : std::uint32_t(-9); }},
    {"s2r_laneid", Opcode::S2R,
     [](KernelBuilder &kb) { kb.s2r(5, SReg::LANEID); },
     [](unsigned tid) { return tid % warpSize; }},
    {"s2r_tid", Opcode::S2R, [](KernelBuilder &kb) { kb.s2r(5, SReg::TID); },
     [](unsigned tid) { return tid; }},
    {"s2r_warpid", Opcode::S2R,
     [](KernelBuilder &kb) { kb.s2r(5, SReg::WARPID); },
     [](unsigned tid) { return tid / warpSize; }},
    {"s2r_ctaid", Opcode::S2R,
     [](KernelBuilder &kb) { kb.s2r(5, SReg::CTAID); },
     [](unsigned tid) { return tid / warpSize / launch.warpsPerCta; }},
};

class LaneTableTest : public ::testing::TestWithParam<LaneCase>
{
};

} // namespace

TEST_P(LaneTableTest, PerThreadResultMatches)
{
    const LaneCase &tc = GetParam();
    KernelBuilder kb(tc.name);
    prologue(kb);
    tc.body(kb);
    expectBothExecutors(tc.name, epilogue(kb), tc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    MovSelS2r, LaneTableTest, ::testing::ValuesIn(kLaneCases),
    [](const ::testing::TestParamInfo<LaneCase> &info) {
        return std::string(info.param.name);
    });

TEST(AluTable, FloatOpWithIntegerImmediate)
{
    // An integer literal in a float op's B slot means that value as a
    // float: FMUL R5, R2, 3 multiplies by 3.0f, not by the bits 0x3.
    const Program p = assembleOrDie(R"(
        S2R R0, TID
        SHL R1, R0, 2
        MOV R2, 1.5f
        FMUL R5, R2, 3
        STG [R1+0x1000], R5
        EXIT
    )");
    expectBothExecutors("fmul_int_imm", p, constant(f2b(4.5f)));

    const Program q = assembleOrDie(R"(
        S2R R0, TID
        SHL R1, R0, 2
        MOV R2, 2.0f
        FSETP.GT P0, R2, 1
        MOV R5, 0
        @P0 MOV R5, 1
        STG [R1+0x1000], R5
        EXIT
    )");
    expectBothExecutors("fsetp_int_imm", q, constant(1));
}

TEST(AluTable, EveryLaneValuedOpcodeHasACase)
{
    std::set<Opcode> covered;
    for (const auto &c : kIntegerCases)
        covered.insert(c.op);
    for (const auto &c : kFloatCases)
        covered.insert(c.op);
    for (const auto &c : kCmpCases)
        covered.insert(c.op);
    for (const auto &c : kLaneCases)
        covered.insert(c.op);

    for (const OpInfo &info : opTable) {
        EXPECT_EQ(info.lane != nullptr, isLaneValued(info.cls)) << info.name;
        if (info.lane != nullptr) {
            EXPECT_TRUE(covered.count(info.op)) << info.name;
        }
    }
}
