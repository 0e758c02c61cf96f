/** @file Unit tests for the text assembler (Figure 9 notation). */

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "isa/assembler.hh"

using namespace si;

namespace {

Program
ok(const std::string &src)
{
    AsmResult r = assemble(src);
    EXPECT_TRUE(r.ok) << r.error;
    return std::move(r.program);
}

std::string
err(const std::string &src)
{
    AsmResult r = assemble(src);
    EXPECT_FALSE(r.ok);
    return r.error;
}

} // namespace

TEST(Assembler, Fig9ListingAssembles)
{
    const Program p = ok(R"(
.kernel fig9
.regs 16
1: BSSY B0, syncPoint
   @P0 BRA Else
   TLD R2, R0, R1 &wr=sb5
   FMUL R10, R5, 2.0
   FMUL R2, R2, R10 &req=sb5
   BRA syncPoint
Else:
   TEX R1, R8, R9 &wr=sb2
   FADD R1, R1, R3 &req=sb2
   BRA syncPoint
syncPoint:
   BSYNC B0
   EXIT
)");
    EXPECT_EQ(p.name(), "fig9");
    EXPECT_EQ(p.numRegs(), 16u);
    EXPECT_EQ(p.at(2).op, Opcode::TLD);
    EXPECT_EQ(p.at(2).wrSb, 5);
    EXPECT_EQ(p.at(4).reqSbMask, 1u << 5);
    EXPECT_EQ(p.at(1).guard, 0);
    EXPECT_EQ(p.at(1).target, p.labels().at("Else"));
}

TEST(Assembler, CommentsAndBlanksIgnored)
{
    const Program p = ok(R"(
; full-line comment
NOP  ; trailing comment
NOP  // C++ style
EXIT
)");
    EXPECT_EQ(p.size(), 3u);
}

TEST(Assembler, MemoryOperandForms)
{
    const Program p = ok(R"(
LDG R1, [R2+16] &wr=sb0
LDG R3, [R2] &wr=sb0
STG [R2+4], R1
LDC R4, c[32]
EXIT
)");
    EXPECT_EQ(p.at(0).srcA, 2);
    EXPECT_EQ(p.at(0).imm, 16);
    EXPECT_EQ(p.at(1).imm, 0);
    EXPECT_EQ(p.at(2).srcB, 1);
    EXPECT_EQ(p.at(2).imm, 4);
    EXPECT_EQ(p.at(3).op, Opcode::LDC);
    EXPECT_EQ(p.at(3).imm, 32);
}

TEST(Assembler, ImmediateAndRegisterOperands)
{
    const Program p = ok(R"(
IADD R1, R2, 42
IADD R1, R2, R3
FADD R1, R2, 1.5f
MOV R4, -7
MOV R5, R1
ISETP.GE P1, R1, 10
EXIT
)");
    EXPECT_TRUE(p.at(0).bImm);
    EXPECT_EQ(p.at(0).imm, 42);
    EXPECT_FALSE(p.at(1).bImm);
    EXPECT_EQ(Instr::bitsToFloat(p.at(2).imm), 1.5f);
    EXPECT_EQ(p.at(3).imm, -7);
    EXPECT_FALSE(p.at(4).bImm);
    EXPECT_EQ(p.at(5).cmp, CmpOp::GE);
    EXPECT_EQ(p.at(5).pdst, 1);
}

TEST(Assembler, GuardForms)
{
    const Program p = ok(R"(
top:
@P3 BRA top
@!P0 IADD R1, R1, 1
EXIT
)");
    EXPECT_EQ(p.at(0).guard, 3);
    EXPECT_FALSE(p.at(0).guardNeg);
    EXPECT_EQ(p.at(1).guard, 0);
    EXPECT_TRUE(p.at(1).guardNeg);
}

TEST(Assembler, SpecialRegisters)
{
    const Program p = ok(R"(
S2R R0, TID
S2R R1, LANEID
S2R R2, WARPID
S2R R3, CTAID
EXIT
)");
    EXPECT_EQ(SReg(p.at(0).imm), SReg::TID);
    EXPECT_EQ(SReg(p.at(1).imm), SReg::LANEID);
    EXPECT_EQ(SReg(p.at(2).imm), SReg::WARPID);
    EXPECT_EQ(SReg(p.at(3).imm), SReg::CTAID);
}

TEST(Assembler, RZParsesAsNullRegister)
{
    const Program p = ok("IADD R1, RZ, 5\nEXIT\n");
    EXPECT_EQ(p.at(0).srcA, regNone);
}

TEST(Assembler, ErrorUnknownMnemonic)
{
    EXPECT_NE(err("FROB R1, R2, R3\nEXIT\n").find("unknown mnemonic"),
              std::string::npos);
}

TEST(Assembler, ErrorUndefinedLabel)
{
    EXPECT_NE(err("BRA nowhere\nEXIT\n").find("undefined label"),
              std::string::npos);
}

TEST(Assembler, ErrorRedefinedLabel)
{
    EXPECT_NE(err("a:\nNOP\na:\nEXIT\n").find("redefined"),
              std::string::npos);
}

TEST(Assembler, ErrorBadRegister)
{
    EXPECT_NE(err("IADD R1, R999, R2\nEXIT\n").find("malformed"),
              std::string::npos);
}

TEST(Assembler, ErrorBadAnnotation)
{
    EXPECT_NE(err("LDG R1, [R2] &wr=sb9\nEXIT\n").find("annotation"),
              std::string::npos);
}

TEST(Assembler, ErrorReportsLineNumber)
{
    const std::string e = err("NOP\nNOP\nBOGUS\nEXIT\n");
    EXPECT_NE(e.find("line 3"), std::string::npos);
}

TEST(Assembler, ErrorIntegerLiteralOutOfRange)
{
    // Beyond 32 bits (including strtol overflow) is an error naming the
    // line, not a silently truncated value — or, for MOV, a float.
    for (const char *lit :
         {"99999999999", "4294967296", "-2147483649", "0x100000000",
          "99999999999999999999999"}) {
        const std::string e = err("NOP\nMOV R1, " + std::string(lit) +
                                  "\nEXIT\n");
        EXPECT_NE(e.find("line 2"), std::string::npos) << lit << ": " << e;
        EXPECT_NE(e.find("out of range"), std::string::npos) << e;
    }
    EXPECT_NE(err("IADD R1, R2, 5000000000\nEXIT\n").find("out of range"),
              std::string::npos);
    EXPECT_NE(err("LDG R1, [R2+0x1FFFFFFFF]\nEXIT\n").find("out of range"),
              std::string::npos);
    EXPECT_THROW(assembleOrDie("MOV R1, 99999999999\nEXIT\n"), SimError);

    // The 32-bit edges still parse, signed and unsigned.
    const Program p = ok(R"(
MOV R1, 0x10000000
MOV R2, 0x20000000
MOV R3, 4294967295
MOV R4, -2147483648
MOV R5, 0xFFFFFFFF
EXIT
)");
    EXPECT_EQ(p.at(0).imm, 0x10000000);
    EXPECT_EQ(p.at(1).imm, 0x20000000);
    EXPECT_EQ(p.at(2).imm, -1);
    EXPECT_EQ(p.at(3).imm, INT32_MIN);
    EXPECT_EQ(p.at(4).imm, -1);
}

TEST(Assembler, ErrorMissingExitViaProgramCheck)
{
    EXPECT_NE(err("NOP\nNOP\n").find("EXIT"), std::string::npos);
}

TEST(Assembler, ErrorRtqueryWindowPastRegs)
{
    // RTQUERY reads its ray from srcA..srcA+5 and writes its hit record
    // to dst..dst+2: each whole window must fit in .regs.
    EXPECT_NE(err(".regs 8\nRTQUERY R0, R6\nEXIT\n")
                  .find("line 2: source register window of 6 at R6 "
                        "exceeds .regs 8"),
              std::string::npos);
    EXPECT_NE(err(".regs 8\nRTQUERY R6, R0\nEXIT\n")
                  .find("destination register window of 3 at R6"),
              std::string::npos);
    EXPECT_NE(err(".regs 8\nRTQUERY RZ, R0\nEXIT\n").find("RZ"),
              std::string::npos);
    ok(".regs 8\nRTQUERY R5, R2\nEXIT\n");
}

TEST(Assembler, RegsDirectiveValidation)
{
    EXPECT_NE(err(".regs 0\nEXIT\n").find(".regs"), std::string::npos);
    EXPECT_NE(err(".regs 999\nEXIT\n").find(".regs"), std::string::npos);
}

TEST(Assembler, FfmaAndSelForms)
{
    const Program p = ok(R"(
FFMA R1, R2, R3, R4
IMAD R5, R6, 8, R7
SEL R1, R2, R3, P1
SEL R1, R2, 9, P2
EXIT
)");
    EXPECT_EQ(p.at(0).srcC, 4);
    EXPECT_TRUE(p.at(1).bImm);
    EXPECT_EQ(p.at(2).pdst, 1);
    EXPECT_TRUE(p.at(3).bImm);
}

TEST(Assembler, DisasmReassemblesEquivalently)
{
    const char *src = R"(
.kernel round
.regs 24
    S2R R0, TID
    IADD R1, R0, 4
    LDG R2, [R1+0] &wr=sb0
    FADD R3, R3, R2 &req=sb0
    ISETP.LT P0, R1, 100
    EXIT
)";
    const Program p1 = ok(src);
    // Disassemble and re-assemble; instruction stream must match.
    std::string listing = ".kernel round\n.regs 24\n";
    for (std::uint32_t pc = 0; pc < p1.size(); ++pc)
        listing += p1.at(pc).disasm() + "\n";
    const Program p2 = ok(listing);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::uint32_t pc = 0; pc < p1.size(); ++pc) {
        EXPECT_EQ(int(p1.at(pc).op), int(p2.at(pc).op)) << "pc " << pc;
        EXPECT_EQ(p1.at(pc).dst, p2.at(pc).dst) << "pc " << pc;
        EXPECT_EQ(p1.at(pc).imm, p2.at(pc).imm) << "pc " << pc;
        EXPECT_EQ(p1.at(pc).wrSb, p2.at(pc).wrSb) << "pc " << pc;
        EXPECT_EQ(p1.at(pc).reqSbMask, p2.at(pc).reqSbMask) << "pc " << pc;
    }
}

// ---- error paths: every malformed input is a structured failure ----------
//
// assemble() reports ok=false with a line-numbered message;
// assembleOrDie() wraps the same failure in SimError(ErrorKind::Parse).
// None of these may crash or abort.

TEST(Assembler, ErrorMalformedWrAnnotation)
{
    EXPECT_NE(err(".kernel k\n LDG R1, [R2+0] &wr=\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
    EXPECT_NE(err(".kernel k\n LDG R1, [R2+0] &wr=sbx\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
    EXPECT_NE(err(".kernel k\n LDG R1, [R2+0] &wr=7\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
}

TEST(Assembler, ErrorMalformedReqAnnotation)
{
    EXPECT_NE(err(".kernel k\n IADD R1, R1, 1 &req=\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
    EXPECT_NE(err(".kernel k\n IADD R1, R1, 1 &req=sb\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
}

TEST(Assembler, ErrorScoreboardIndexOutOfRange)
{
    // Eight scoreboards: sb0..sb7. sb8/sb9 must be rejected at parse.
    EXPECT_NE(err(".kernel k\n LDG R1, [R2+0] &wr=sb8\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
    EXPECT_NE(err(".kernel k\n IADD R1, R1, 1 &req=sb9\n EXIT\n")
                  .find("bad annotation"),
              std::string::npos);
}

TEST(Assembler, ErrorDanglingBranchLabel)
{
    const std::string msg =
        err(".kernel k\n BRA nowhere\n EXIT\n");
    EXPECT_NE(msg.find("undefined label"), std::string::npos);
    EXPECT_NE(msg.find("nowhere"), std::string::npos);
}

TEST(Assembler, MalformedInputsThrowStructuredSimError)
{
    const char *bad[] = {
        ".kernel k\n LDG R1, [R2+0] &wr=sb8\n EXIT\n",   // sb out of range
        ".kernel k\n LDG R1, [R2+0] &wr=oops\n EXIT\n",  // malformed &wr=
        ".kernel k\n IADD R1, R1, 1 &req=s5\n EXIT\n",   // malformed &req=
        ".kernel k\n BRA nowhere\n EXIT\n",              // dangling label
        ".kernel k\n FROB R1, R2\n EXIT\n",              // unknown mnemonic
    };
    for (const char *src : bad) {
        try {
            assembleOrDie(src);
            FAIL() << "no exception for: " << src;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Parse) << src;
            EXPECT_NE(std::string(e.what()).find("assembly failed"),
                      std::string::npos);
        } catch (...) {
            FAIL() << "non-SimError exception for: " << src;
        }
    }
}

TEST(Assembler, RecordsSourceLineMap)
{
    // Line numbers are 1-based positions in the source text; comments
    // and blanks shift them, which is the whole point of the map.
    const Program p = ok(R"(
.kernel lines
; a comment line
    S2R R0, TID

    IADD R1, R0, 1
    EXIT
)");
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.sourceLine(0), 4u);
    EXPECT_EQ(p.sourceLine(1), 6u);
    EXPECT_EQ(p.sourceLine(2), 7u);
}
