/**
 * @file
 * Disassembler coverage: every opcode renders its mnemonic, and a golden
 * listing pins both printers — Program::disasm() and sourceText() — over
 * the bundled kernels plus one builder-made instruction per opcode.
 * sourceText() feeds the checkpoint program fingerprint, so any change
 * to its text would stop older checkpoints from resuming.
 *
 * To regenerate the listing after an intentional printer change, run
 * with SI_UPDATE_GOLDEN=1 and review the diff like any other change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/instr.hh"

using namespace si;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** One instruction of every opcode, covering every printed field. */
Program
everyOpcodeKernel()
{
    KernelBuilder kb("every_opcode");
    Label top = kb.newLabel("top");
    Label join = kb.newLabel("join");
    kb.bind(top);
    kb.nop();
    kb.mov(1, 2).pred(0);
    kb.movi(1, -7).pred(1, true);
    kb.movf(1, 0.1f);
    kb.s2r(1, SReg::TID);
    kb.s2r(1, SReg::CTAID);
    kb.s2r(1, SReg::LANEID);
    kb.s2r(1, SReg::WARPID);
    kb.iadd(1, 2, 3);
    kb.iaddi(1, regNone, -42);
    kb.isub(1, 2, 3);
    kb.imul(1, 2, 3);
    kb.imuli(1, 2, 6);
    kb.imad(1, 2, 3, 4);
    kb.imadi(1, 2, 9, 4);
    for (Opcode op : {Opcode::IMIN, Opcode::IMAX, Opcode::OR,
                      Opcode::FMIN, Opcode::FMAX}) {
        Instr in;
        in.op = op;
        in.dst = 1;
        in.srcA = 2;
        in.srcB = 3;
        kb.emit(in);
        in.bImm = true;
        in.imm = op == Opcode::FMIN || op == Opcode::FMAX
                     ? Instr::fbits(-0.75f)
                     : 0x7fff;
        kb.emit(in);
    }
    kb.andi(1, 2, 0xff);
    kb.xorr(1, 2, 3);
    kb.shli(1, 2, 3);
    kb.shri(1, 2, 31);
    kb.fadd(1, 2, 3);
    kb.faddi(1, 2, 0.1f);
    kb.fmul(1, 2, 3);
    kb.fmuli(1, 2, 1e30f);
    kb.ffma(1, 2, 3, 4);
    {
        Instr in;
        in.op = Opcode::FFMA;
        in.dst = 1;
        in.srcA = 2;
        in.bImm = true;
        in.imm = Instr::fbits(3.14159265f);
        in.srcC = 4;
        kb.emit(in);
    }
    kb.frcp(1, 2);
    kb.fsqrt(1, 2);
    kb.i2f(1, 2);
    kb.f2i(1, 2);
    kb.isetp(0, CmpOp::LT, 2, 3);
    kb.isetpi(6, CmpOp::NE, 2, -1).pred(3, true);
    kb.fsetp(1, CmpOp::GE, 2, 3);
    kb.fsetpi(2, CmpOp::EQ, 2, 1.0e-7f);
    kb.isetp(predNone, CmpOp::LE, 2, 3);
    kb.sel(1, 2, 3, 0);
    kb.sel(1, 2, 3, predNone);
    {
        Instr &in = kb.sel(1, 2, regNone, 5);
        in.bImm = true;
        in.imm = 12;
    }
    kb.ldg(1, 2, 16).wr(0);
    kb.ldg(1, regNone, 0x2000).wr(1).req(0);
    kb.stg(2, 8, 3).req(1);
    kb.ldc(1, 12);
    kb.tex(1, 2, 3).wr(2);
    kb.tld(1, 2, 3).wr(3).req(2);
    kb.rtquery(8, 2).wr(4).req(3).req(4);
    kb.marker("alpha");
    kb.marker("beta");
    kb.marker("alpha");
    kb.bssy(0, join);
    kb.bra(top).pred(0).stallHint = 1;
    kb.bra(join).pred(1, true).stallHint = -1;
    kb.yield().req(5);
    kb.bind(join);
    kb.bsync(0);
    kb.exit();
    return kb.build(16);
}

/** Both printers over @p p, under a header naming it. */
std::string
listing(const std::string &title, const Program &p)
{
    return "== " + title + " disasm\n" + p.disasm() + "== " + title +
           " sourceText\n" + p.sourceText();
}

} // namespace

TEST(DisasmCoverage, GoldenListing)
{
    std::vector<std::string> kernels;
    for (const auto &e : std::filesystem::directory_iterator(SI_KERNELS_DIR))
        if (e.path().extension() == ".sasm")
            kernels.push_back(e.path().filename().string());
    std::sort(kernels.begin(), kernels.end());
    ASSERT_FALSE(kernels.empty());

    std::string actual;
    for (const std::string &k : kernels) {
        actual += listing(
            "kernels/" + k,
            assembleOrDie(readFile(std::string(SI_KERNELS_DIR) + "/" + k)));
    }
    actual += listing("builder", everyOpcodeKernel());

    const std::string path = std::string(SI_GOLDEN_DIR) + "/isa_listing.txt";
    if (std::getenv("SI_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path) << actual;
        GTEST_SKIP() << "updated " << path;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " missing — run with SI_UPDATE_GOLDEN=1 to create it";
    EXPECT_EQ(actual, expected)
        << "printer output drifted from " << path
        << "; if intended, rerun with SI_UPDATE_GOLDEN=1 and review the diff";
}

TEST(DisasmCoverage, EveryOpcodeRendersItsMnemonic)
{
    for (unsigned o = 0; o < unsigned(Opcode::NumOpcodes); ++o) {
        Instr in;
        in.op = Opcode(o);
        in.dst = 1;
        in.srcA = 2;
        in.srcB = 3;
        in.srcC = 4;
        in.pdst = 0;
        in.bar = 0;
        const std::string d = in.disasm();
        EXPECT_NE(d.find(opcodeName(in.op)), std::string::npos)
            << "opcode " << o;
        // Mnemonic table must not fall through to the placeholder.
        EXPECT_STRNE(opcodeName(in.op), "???") << "opcode " << o;
    }
}

TEST(DisasmCoverage, EveryOpcodeHasATimingClass)
{
    for (unsigned o = 0; o < unsigned(Opcode::NumOpcodes); ++o) {
        const OpClass c = opClassOf(Opcode(o));
        // Long-latency classification is consistent with the class.
        const bool longlat = isLongLatency(Opcode(o));
        const bool mem_class = c == OpClass::GlobalLoad ||
                               c == OpClass::Texture ||
                               c == OpClass::RtQuery;
        EXPECT_EQ(longlat, mem_class) << "opcode " << o;
    }
}

TEST(DisasmCoverage, EveryCmpOpRenders)
{
    for (CmpOp cmp : {CmpOp::LT, CmpOp::LE, CmpOp::GT, CmpOp::GE,
                      CmpOp::EQ, CmpOp::NE}) {
        EXPECT_STRNE(cmpName(cmp), "??");
        Instr in;
        in.op = Opcode::ISETP;
        in.pdst = 2;
        in.srcA = 1;
        in.srcB = 3;
        in.cmp = cmp;
        EXPECT_NE(in.disasm().find(cmpName(cmp)), std::string::npos);
    }
}

TEST(DisasmCoverage, ImmediateFormsRender)
{
    Instr in;
    in.op = Opcode::IADD;
    in.dst = 1;
    in.srcA = 2;
    in.bImm = true;
    in.imm = -42;
    EXPECT_NE(in.disasm().find("-42"), std::string::npos);

    Instr fin;
    fin.op = Opcode::FMUL;
    fin.dst = 1;
    fin.srcA = 2;
    fin.bImm = true;
    fin.imm = Instr::fbits(2.5f);
    EXPECT_NE(fin.disasm().find("2.5"), std::string::npos);
}
