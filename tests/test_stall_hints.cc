/** @file Static stall-probability hint analysis (Discussion item 3). */

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/stall_hints.hh"
#include "rt/apps.hh"

using namespace si;

namespace {

const char *skewed = R"(
.kernel skewed
.regs 32
    S2R R0, LANEID
    MOV R2, 0x100000
    ISETP.LT P0, R0, 16
    BSSY B0, join
    @P0 BRA mathSide
    LDG R4, [R2+0] &wr=sb0
    FADD R10, R10, R4 &req=sb0
    BRA join
mathSide:
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    BRA join
join:
    BSYNC B0
    EXIT
)";

} // namespace

TEST(StallHints, PathWeightCountsLoadToUseEdges)
{
    Program p = assembleOrDie(skewed);
    const std::uint32_t load_path = p.labels().at("join") - 6; // LDG pc
    // Load path (starts at the LDG): one &req consumer of sb0.
    EXPECT_EQ(pathStallWeight(p, load_path), 1u);
    // Math path: no long-latency producers at all.
    EXPECT_EQ(pathStallWeight(p, p.labels().at("mathSide")), 0u);
}

TEST(StallHints, PathWeightIgnoresForeignScoreboards)
{
    // A &req of a scoreboard NOT written on this path (already
    // outstanding from earlier) is not this path's stall.
    Program p = assembleOrDie(R"(
FADD R1, R1, R2 &req=sb3
EXIT
)");
    EXPECT_EQ(pathStallWeight(p, 0), 0u);
}

TEST(StallHints, AnnotatePrefersLoadHeavySide)
{
    Program p = assembleOrDie(skewed);
    const StallHintReport rep = annotateStallHints(p);
    EXPECT_EQ(rep.branchesAnalyzed, 1u);
    EXPECT_EQ(rep.branchesHinted, 1u);

    // "@P0 BRA mathSide": the fall-through carries the loads.
    for (const Instr &in : p.instrs()) {
        if (in.op == Opcode::BRA && in.guard != predNone) {
            EXPECT_EQ(in.stallHint, -1); // fall-through side first
            return;
        }
    }
    FAIL() << "conditional branch not found";
}

TEST(StallHints, BalancedBranchGetsNoHint)
{
    Program p = assembleOrDie(R"(
    S2R R0, LANEID
    MOV R2, 0x100000
    ISETP.LT P0, R0, 16
    BSSY B0, join
    @P0 BRA b
    LDG R4, [R2+0] &wr=sb0
    FADD R10, R10, R4 &req=sb0
    BRA join
b:
    LDG R5, [R2+64] &wr=sb1
    FADD R11, R11, R5 &req=sb1
    BRA join
join:
    BSYNC B0
    EXIT
)");
    const StallHintReport rep = annotateStallHints(p);
    EXPECT_EQ(rep.branchesAnalyzed, 1u);
    EXPECT_EQ(rep.branchesHinted, 0u);
}

TEST(StallHints, AssemblerAcceptsExplicitHints)
{
    Program p = assembleOrDie(R"(
    ISETP.LT P0, R1, 5
top:
    @P0 BRA top &hint=taken
    @P0 BRA top &hint=fall
    EXIT
)");
    EXPECT_EQ(p.at(1).stallHint, 1);
    EXPECT_EQ(p.at(2).stallHint, -1);
    // Disassembly round-trips the hint.
    EXPECT_NE(p.at(1).disasm().find("&hint=taken"), std::string::npos);
    EXPECT_NE(p.at(2).disasm().find("&hint=fall"), std::string::npos);
}

TEST(StallHints, HintPolicyRecoversUnluckyOrder)
{
    // Under TakenFirst the math side runs first and SI gains nothing;
    // with hints the load side runs first regardless of branch
    // polarity.
    Program hinted = assembleOrDie(skewed);
    annotateStallHints(hinted);

    auto run = [&](const Program &prog, DivergeOrder order) {
        GpuConfig cfg;
        cfg.numSms = 1;
        cfg.siEnabled = true;
        cfg.trigger = SelectTrigger::AllStalled;
        cfg.divergeOrder = order;
        Memory mem;
        return simulate(cfg, mem, prog, {4, 1}).cycles;
    };

    const Cycle unlucky = run(hinted, DivergeOrder::TakenFirst);
    const Cycle with_hints = run(hinted, DivergeOrder::HintStallFirst);
    EXPECT_LT(with_hints, unlucky);
}

TEST(StallHints, AnnotationPreservesProgramSemantics)
{
    Program p = assembleOrDie(skewed);
    const Program original = p;
    annotateStallHints(p);
    ASSERT_EQ(p.size(), original.size());
    for (std::uint32_t pc = 0; pc < p.size(); ++pc) {
        EXPECT_EQ(int(p.at(pc).op), int(original.at(pc).op));
        EXPECT_EQ(p.at(pc).target, original.at(pc).target);
    }
    EXPECT_EQ(p.check(), "");
    EXPECT_EQ(p.labels(), original.labels());
}

TEST(StallHints, AnnotatedAppWithMarkersRunsToCompletion)
{
    // Annotation rebuilds the Program; it must keep the region table
    // the app's MARKERs index, or validation rejects the kernel.
    Workload wl = buildApp(AppId::BFV1, 8);
    const std::vector<std::string> regions = wl.program.regionNames();
    ASSERT_GT(regions.size(), 1u) << "app has no MARKER regions";
    const StallHintReport rep = annotateStallHints(wl.program);
    EXPECT_GT(rep.branchesAnalyzed, 0u);
    EXPECT_EQ(wl.program.regionNames(), regions);
    EXPECT_EQ(wl.program.check(), "");

    GpuConfig cfg;
    cfg.siEnabled = true;
    cfg.divergeOrder = DivergeOrder::HintStallFirst;
    const GpuResult r = runWorkload(wl, cfg);
    ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(r.total.warpsRetired, 8u);
}
