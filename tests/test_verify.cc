/**
 * @file
 * Unit tests for the static kernel verifier (src/verify): CFG
 * construction, the scoreboard/barrier dataflow diagnostics, the
 * dominator-based barrier-reuse check that catches the differential
 * oracle's bug class statically, and the verify-on-build hooks. Also
 * proves every shipped kernel generator emits verifier-clean programs.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "ref/kernelgen.hh"
#include "rt/apps.hh"
#include "rt/compute.hh"
#include "rt/microbench.hh"
#include "verify/cfg.hh"
#include "verify/verifier.hh"

using namespace si;

namespace {

Program
asmOk(const std::string &src)
{
    AsmResult r = assemble(src);
    EXPECT_TRUE(r.ok) << r.error;
    return std::move(r.program);
}

VerifyReport
lint(const std::string &src)
{
    return verifyProgram(asmOk(src));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

// ---- CFG ----------------------------------------------------------------

TEST(Cfg, DiamondBlocksAndEdges)
{
    // 0: ISETP / 1: BSSY / 2: @!P0 BRA 5 / 3: then / 4: BRA 6
    // 5: else / 6: BSYNC / 7: EXIT
    const Program p = asmOk(R"(
.kernel diamond
    ISETP.LT P0, R0, 16
    BSSY B0, conv
    @!P0 BRA Else
    IADD R1, R1, 1
    BRA conv
Else:
    IADD R1, R1, 2
conv:
    BSYNC B0
    EXIT
)");
    const Cfg cfg = Cfg::build(p);
    ASSERT_EQ(cfg.numBlocks(), 4u);
    // Block 0 = pcs [0,3): ends at the guarded branch.
    EXPECT_EQ(cfg.block(0).first, 0u);
    EXPECT_EQ(cfg.block(0).end, 3u);
    EXPECT_EQ(cfg.block(0).succs.size(), 2u); // Else + fall-through
    EXPECT_EQ(cfg.blockOf(5), 2u);
    // Both arms merge at the BSYNC block.
    const std::uint32_t conv = cfg.blockOf(6);
    EXPECT_EQ(cfg.block(conv).preds.size(), 2u);
    EXPECT_TRUE(cfg.reachable(conv));
}

TEST(Cfg, DominatorsAndReachability)
{
    const Program p = asmOk(R"(
.kernel dom
    ISETP.LT P0, R0, 16
    @!P0 BRA Else
    IADD R1, R1, 1
    BRA Join
Else:
    IADD R1, R1, 2
Join:
    EXIT
)");
    const Cfg cfg = Cfg::build(p);
    const std::vector<std::uint32_t> idom = cfg.immediateDominators();
    // pc 5 is the join (EXIT). The entry dominates everything; neither
    // arm (pc 2/3 then, pc 4 else) dominates the join.
    EXPECT_TRUE(cfg.dominates(0, 5, idom));
    EXPECT_FALSE(cfg.dominates(2, 5, idom));
    EXPECT_FALSE(cfg.dominates(4, 5, idom));
    // Arms are mutually unreachable; both reach the join.
    EXPECT_FALSE(cfg.reaches(2, 4));
    EXPECT_FALSE(cfg.reaches(4, 2));
    EXPECT_TRUE(cfg.reaches(2, 5));
    EXPECT_TRUE(cfg.reaches(4, 5));
    for (std::uint32_t id = 0; id < cfg.numBlocks(); ++id)
        EXPECT_TRUE(cfg.canReachExit(p)[id]) << id;
}

TEST(Cfg, LoopBackEdge)
{
    const Program p = asmOk(R"(
.kernel loop
    MOV R1, 0
Top:
    IADD R1, R1, 1
    ISETP.LT P0, R1, 4
    @P0 BRA Top
    EXIT
)");
    const Cfg cfg = Cfg::build(p);
    const std::uint32_t top = cfg.blockOf(1);
    // The loop header has two predecessors: entry and the back edge.
    EXPECT_EQ(cfg.block(top).preds.size(), 2u);
    EXPECT_TRUE(cfg.reaches(3, 1)); // around the back edge
    const std::vector<std::uint32_t> idom = cfg.immediateDominators();
    EXPECT_TRUE(cfg.dominates(1, 3, idom));
}

// ---- clean programs -----------------------------------------------------

TEST(Verifier, Fig9StyleKernelIsSpotless)
{
    const VerifyReport r = lint(R"(
.kernel clean
    S2R R0, LANEID
    ISETP.LT P0, R0, 16
    BSSY B0, conv
    @P0 BRA Else
    TLD R2, R0, R1 &wr=sb5
    FMUL R2, R2, R3 &req=sb5
    BRA conv
Else:
    TEX R1, R0, R2 &wr=sb2
    FADD R1, R1, R3 &req=sb2
    BRA conv
conv:
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.spotless()) << r.render();
}

TEST(Verifier, LoopCarriedSelfRewriteIsLegal)
{
    // The canonical software-pipelined loop: one scoreboard, rewritten
    // by the same static load each iteration after a consuming &req.
    const VerifyReport r = lint(R"(
.kernel pipeline
    MOV R1, 0
Top:
    LDG R2, [R3+0] &wr=sb0
    IADD R4, R4, R2 &req=sb0
    IADD R1, R1, 1
    ISETP.LT P0, R1, 8
    @P0 BRA Top
    EXIT
)");
    EXPECT_TRUE(r.spotless()) << r.render();
}

// ---- scoreboard diagnostics ---------------------------------------------

TEST(Verifier, WaitOnNeverWrittenScoreboard)
{
    const VerifyReport r = lint(R"(
.kernel w
    LDG R1, [R2+0] &wr=sb0
    IADD R3, R3, R1 &req=sb4
    EXIT
)");
    EXPECT_TRUE(r.has("sb-wait-never-written")) << r.render();
    EXPECT_TRUE(r.clean()); // timing-only: warning, not error
    EXPECT_FALSE(r.spotless());
}

TEST(Verifier, RewriteInFlightScoreboard)
{
    const VerifyReport r = lint(R"(
.kernel w
    LDG R1, [R2+0] &wr=sb3
    LDG R4, [R2+4] &wr=sb3
    IADD R5, R1, R4 &req=sb3
    EXIT
)");
    EXPECT_TRUE(r.has("sb-rewrite-in-flight")) << r.render();
    EXPECT_TRUE(r.clean());
}

TEST(Verifier, PartialWriteIsOnlyANote)
{
    // A load inside one divergent arm, consumed after reconvergence:
    // the wait covers some paths only — informational, never gating.
    const VerifyReport r = lint(R"(
.kernel w
    ISETP.LT P0, R0, 16
    @!P0 BRA Skip
    LDG R1, [R2+0] &wr=sb1
Skip:
    IADD R3, R3, R1 &req=sb1
    EXIT
)");
    EXPECT_TRUE(r.has("sb-wait-partial")) << r.render();
    EXPECT_TRUE(r.spotless());

    VerifyOptions quiet;
    quiet.notes = false;
    const AsmResult a = assemble(R"(
.kernel w
    ISETP.LT P0, R0, 16
    @!P0 BRA Skip
    LDG R1, [R2+0] &wr=sb1
Skip:
    IADD R3, R3, R1 &req=sb1
    EXIT
)");
    ASSERT_TRUE(a.ok);
    EXPECT_FALSE(verifyProgram(a.program, quiet).has("sb-wait-partial"));
}

// ---- barrier diagnostics ------------------------------------------------

TEST(Verifier, SiblingDiamondBarrierReuseIsAnError)
{
    // Depth-keyed allocation: two nested diamonds on mutually exclusive
    // arms share B1. Pathwise each pairing looks fine; concurrently
    // interleaved subwarps occupy both regions and merge masks.
    const VerifyReport r = lint(R"(
.kernel sibling
    ISETP.LT P0, R0, 16
    BSSY B0, oconv
    @!P0 BRA OElse
    BSSY B1, tconv
tconv:
    BSYNC B1
    BRA oconv
OElse:
    BSSY B1, econv
econv:
    BSYNC B1
oconv:
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("bar-reuse-sibling")) << r.render();
    EXPECT_FALSE(r.clean());
}

TEST(Verifier, SequentialBarrierReuseIsAWarning)
{
    // Region 2 opens only after region 1's BSYNC on every path: the
    // dominator chain BSSY -> BSYNC -> BSSY holds, so this degrades to
    // a warning (unsound only if a subwarp roams past the first sync).
    const VerifyReport r = lint(R"(
.kernel seq
    ISETP.LT P0, R0, 16
    BSSY B0, c1
    @!P0 BRA c1
    IADD R1, R1, 1
c1:
    BSYNC B0
    ISETP.LT P1, R0, 8
    BSSY B0, c2
    @!P1 BRA c2
    IADD R1, R1, 2
c2:
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("bar-reuse-sequential")) << r.render();
    EXPECT_FALSE(r.has("bar-reuse-sibling")) << r.render();
    EXPECT_TRUE(r.clean());
}

TEST(Verifier, BssyWithNoReachableSync)
{
    const VerifyReport r = lint(R"(
.kernel nosync
    BSSY B2, Done
    IADD R1, R1, 1
Done:
    EXIT
)");
    EXPECT_TRUE(r.has("bar-no-sync")) << r.render();
    EXPECT_FALSE(r.clean());
}

TEST(Verifier, BsyncBeforeBssy)
{
    const VerifyReport r = lint(R"(
.kernel orphan
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("bsync-before-bssy")) << r.render();
    EXPECT_TRUE(r.clean()); // empty barrier: a no-op, not corruption
}

TEST(Verifier, RearmInLoopWithoutSync)
{
    // BSSY re-executes around the back edge before any BSYNC: lanes
    // re-register while slower subwarps may still be inside.
    const VerifyReport r = lint(R"(
.kernel rearm
    MOV R1, 0
Top:
    BSSY B0, conv
    IADD R1, R1, 1
    ISETP.LT P0, R1, 4
    @P0 BRA Top
conv:
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("bar-rearm-loop")) << r.render();
}

TEST(Verifier, BssyTargetNotBsync)
{
    const VerifyReport r = lint(R"(
.kernel target
    BSSY B0, Oops
Oops:
    IADD R1, R1, 1
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("bssy-target-not-bsync")) << r.render();
}

TEST(Verifier, BranchIntoBssyShadow)
{
    // A jump from outside lands between the BSSY and its divergent
    // branch: the entering lanes never register with the barrier.
    const VerifyReport r = lint(R"(
.kernel shadow
    ISETP.LT P0, R0, 4
    @P0 BRA Inside
    BSSY B0, conv
Inside:
    ISETP.LT P1, R0, 16
    @!P1 BRA conv
    IADD R1, R1, 1
conv:
    BSYNC B0
    EXIT
)");
    EXPECT_TRUE(r.has("branch-into-bssy-shadow")) << r.render();
}

TEST(Verifier, LoopBackEdgeIntoOwnShadowIsSilent)
{
    // The back edge targets the body right after the loop's BSSY — but
    // the BSSY dominates the jumper, so every lane registered already.
    const VerifyReport r = lint(R"(
.kernel loopshadow
    MOV R1, 0
    BSSY B0, conv
Top:
    IADD R1, R1, 1
    ISETP.LT P0, R1, 4
    @P0 BRA Top
conv:
    BSYNC B0
    EXIT
)");
    EXPECT_FALSE(r.has("branch-into-bssy-shadow")) << r.render();
}

// ---- structure and bounds -----------------------------------------------

TEST(Verifier, InescapableLoopIsAnError)
{
    const VerifyReport r = lint(R"(
.kernel spin
    ISETP.LT P0, R0, 16
    @!P0 BRA Stuck
    EXIT
Stuck:
    BRA Stuck
)");
    EXPECT_TRUE(r.has("no-exit-path")) << r.render();
    EXPECT_FALSE(r.clean());
}

TEST(Verifier, UnreachableCode)
{
    const VerifyReport r = lint(R"(
.kernel dead
    BRA Done
    IADD R1, R1, 1
Done:
    EXIT
)");
    EXPECT_TRUE(r.has("unreachable-code")) << r.render();
}

TEST(Verifier, IndexBoundsViaRawProgram)
{
    // The assembler rejects these forms, so build the program directly.
    std::vector<Instr> code(2);
    code[0].op = Opcode::BSSY;
    code[0].bar = 20; // > numBarriers
    code[0].target = 9; // out of range
    code[1].op = Opcode::EXIT;
    const Program p("raw", std::move(code), 8);
    const VerifyReport r = verifyProgram(p);
    EXPECT_TRUE(r.has("target-oob")) << r.render();
    EXPECT_TRUE(r.has("bad-bar-index")) << r.render();
    EXPECT_FALSE(r.clean());

    std::vector<Instr> code2(2);
    code2[0].op = Opcode::IADD;
    code2[0].dst = 40; // >= numRegs
    code2[0].srcA = 0;
    code2[0].srcB = 0;
    code2[1].op = Opcode::EXIT;
    const Program p2("raw2", std::move(code2), 8);
    EXPECT_TRUE(verifyProgram(p2).has("bad-reg-index"));
}

TEST(Verifier, MissingExitAndFallOffEnd)
{
    std::vector<Instr> code(1);
    code[0].op = Opcode::IADD;
    code[0].dst = 0;
    code[0].srcA = 0;
    code[0].srcB = 0;
    const Program p("noexit", std::move(code), 8);
    const VerifyReport r = verifyProgram(p);
    EXPECT_TRUE(r.has("no-exit")) << r.render();
    EXPECT_TRUE(r.has("bad-last-instr")) << r.render();
    EXPECT_FALSE(r.clean());

    EXPECT_TRUE(verifyProgram(Program("empty", {}, 8))
                    .has("empty-program"));
}

// ---- report rendering ---------------------------------------------------

TEST(Verifier, RenderUsesSourceLines)
{
    const Program p = asmOk(R"(
.kernel lines
    LDG R1, [R2+0] &wr=sb0
    IADD R3, R3, R1 &req=sb7
    EXIT
)");
    const VerifyReport r = verifyProgram(p);
    const std::string text = r.render(&p, "lines.sasm");
    // The offending &req sits on line 4 of the source text.
    EXPECT_NE(text.find("lines.sasm:4: warning:"), std::string::npos)
        << text;
    EXPECT_NE(text.find("[sb-wait-never-written]"), std::string::npos);
}

// ---- bar-reuse-sibling on assembled and built programs ------------------

TEST(Verifier, AssembledSiblingReuseIsAnError)
{
    const std::string src = readFile(std::string(SI_REGRESS_DIR) +
                                     "/barrier_reuse.sasm");
    // Plain assembly accepts it; the verifier refuses.
    const AsmResult a = assemble(src);
    ASSERT_TRUE(a.ok);
    const VerifyReport r = verifyProgram(a.program);
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(r.has("bar-reuse-sibling"));
    EXPECT_NE(r.render(&a.program).find("bar-reuse-sibling"),
              std::string::npos);
}

TEST(Verifier, BuiltSiblingReuseIsAnError)
{
    KernelBuilder good("good");
    good.s2r(0, SReg::TID);
    good.exit();
    const Program good_prog = good.build(8);
    EXPECT_EQ(good_prog.size(), 2u);
    EXPECT_TRUE(verifyProgram(good_prog).clean());

    // Two sibling BSSY regions on one register, built programmatically.
    KernelBuilder bad("bad");
    bad.isetpi(0, CmpOp::LT, 0, 16);
    Label l_else = bad.newLabel();
    Label l_conv = bad.newLabel();
    Label l_tc = bad.newLabel();
    Label l_ec = bad.newLabel();
    bad.bra(l_else).pred(0, true);
    bad.bssy(0, l_tc);
    bad.bind(l_tc);
    bad.bsync(0);
    bad.bra(l_conv);
    bad.bind(l_else);
    bad.bssy(0, l_ec);
    bad.bind(l_ec);
    bad.bsync(0);
    bad.bind(l_conv);
    bad.exit();
    const VerifyReport r = verifyProgram(bad.build(8));
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(r.has("bar-reuse-sibling"));
}

// ---- shipped generators stay verifier-clean -----------------------------

TEST(Verifier, CheckedInKernelsAreSpotless)
{
    for (const char *name : {"fig9.sasm", "reduction.sasm",
                             "skewed.sasm"}) {
        const std::string src =
            readFile(std::string(SI_KERNELS_DIR) + "/" + name);
        const AsmResult a = assemble(src);
        ASSERT_TRUE(a.ok) << name << ": " << a.error;
        const VerifyReport r = verifyProgram(a.program);
        EXPECT_TRUE(r.spotless())
            << name << ":\n" << r.render(&a.program, name);
    }
}

TEST(Verifier, RandomKernelGeneratorIsSpotless)
{
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const Program p = generateKernel(seed);
        const VerifyReport r = verifyProgram(p);
        EXPECT_TRUE(r.spotless())
            << "seed " << seed << ":\n"
            << r.render(&p) << p.sourceText();
    }
}

TEST(Verifier, WorkloadGeneratorsAreClean)
{
    for (AppId id : allApps()) {
        const Workload w = buildApp(id);
        const VerifyReport r = verifyProgram(w.program);
        EXPECT_TRUE(r.clean())
            << w.name << ":\n" << r.render(&w.program);
    }
    for (unsigned sw : {16u, 8u, 4u, 2u, 1u}) {
        MicrobenchConfig mc;
        mc.subwarpSize = sw;
        const Workload w = buildMicrobench(mc);
        EXPECT_TRUE(verifyProgram(w.program).clean())
            << w.name << ":\n"
            << verifyProgram(w.program).render(&w.program);
    }
    for (ComputeKernel k : allComputeKernels()) {
        const Workload w = buildComputeKernel(k);
        EXPECT_TRUE(verifyProgram(w.program).clean())
            << w.name << ":\n"
            << verifyProgram(w.program).render(&w.program);
    }
}
