/**
 * @file
 * Differential-oracle harness tests: random kernels agree with the
 * cycle model across the whole config matrix, an injected reconvergence
 * bug is caught and auto-shrunk to a tiny kernel, and the serialization
 * hooks the shrinker relies on (Program::sourceText / withoutInstr)
 * round-trip exactly.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "ref/difftest.hh"

using namespace si;

TEST(Difftest, MatrixHasAllTableOnePoints)
{
    const std::vector<DiffPoint> pts = diffMatrix();
    ASSERT_EQ(pts.size(), 6u);
    unsigned si_points = 0;
    for (const DiffPoint &pt : pts) {
        EXPECT_EQ(pt.config.numSms, 1u);
        si_points += pt.config.siEnabled ? 1 : 0;
    }
    EXPECT_EQ(si_points, 3u);
}

TEST(Difftest, RandomKernelsAgreeAcrossTheMatrix)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const DiffResult r = diffSeed(seed);
        EXPECT_TRUE(r.agree) << "seed " << seed << " @ " << r.point
                             << ": " << r.detail;
    }
}

TEST(Difftest, InjectedReconvergenceBugIsCaughtAndShrunk)
{
    // Inject barrier-mask corruption (a reconvergence bug) into every
    // cycle-model run. The oracle must notice, and greedy shrinking
    // must reduce the witness to a tiny kernel while the bug stays
    // visible.
    DiffOptions inject;
    inject.inject = true;
    inject.injectKind = FaultKind::BarrierMaskCorruption;

    KernelGenOptions small;
    small.minTopItems = 3;
    small.maxTopItems = 5;

    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 16 && !caught; ++seed) {
        const Program prog = generateKernel(seed, small);
        const DiffResult r = diffProgram(prog, inject);
        if (!r.faultFired() || r.agree)
            continue;
        caught = true;

        const Program shrunk = shrinkProgram(prog, [&](const Program &p) {
            const DiffResult d = diffProgram(p, inject);
            return d.faultFired() && !d.agree;
        });
        EXPECT_LE(shrunk.size(), 15u)
            << "seed " << seed << " shrunk witness:\n"
            << shrunk.sourceText();
        // The shrunk kernel must still fail for the same reason.
        const DiffResult d = diffProgram(shrunk, inject);
        EXPECT_TRUE(d.faultFired());
        EXPECT_FALSE(d.agree);
    }
    EXPECT_TRUE(caught)
        << "no seed in 1..16 triggered a detected barrier fault";
}

TEST(Difftest, SourceTextRoundTrips)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Program prog = generateKernel(seed);
        const Program again = assembleOrDie(prog.sourceText());
        ASSERT_EQ(again.size(), prog.size()) << "seed " << seed;
        // Re-serializing the reassembled program must be a fixpoint.
        EXPECT_EQ(again.sourceText(), prog.sourceText())
            << "seed " << seed;
    }
}

TEST(Difftest, WithoutInstrRemapsBranchTargets)
{
    const char *src = R"(
MOV R1, 1
MOV R2, 2
BSSY B0, join
ISETP.LT P0, R1, R2
@!P0 BRA sideB
IADD R3, R1, R2
BRA join
sideB:
MOV R3, 9
join:
BSYNC B0
EXIT
)";
    const Program prog = assembleOrDie(src);
    // Delete "MOV R2, 2" (pc 1): every branch target shifts down one.
    const Program cut = prog.withoutInstr(1);
    ASSERT_EQ(cut.size(), prog.size() - 1);
    EXPECT_EQ(cut.check(), "");
    for (std::uint32_t pc = 0; pc < cut.size(); ++pc) {
        const Instr &a = cut.at(pc);
        const Instr &b = prog.at(pc >= 1 ? pc + 1 : pc);
        EXPECT_EQ(a.op, b.op) << "pc " << pc;
        if (a.op == Opcode::BRA || a.op == Opcode::BSSY) {
            EXPECT_EQ(a.target, b.target - 1) << "pc " << pc;
        }
    }
    // Deleting an instruction a branch lands on retargets the branch to
    // the successor and still validates.
    const Program cut2 = prog.withoutInstr(7); // "MOV R3, 9" at sideB
    EXPECT_EQ(cut2.check(), "");
}

TEST(Difftest, ShrinkReachesAFixpointOnAStablePredicate)
{
    // Predicate: program still contains a store. The shrinker must
    // strip everything else and keep exactly the last store it cannot
    // delete.
    const Program prog = generateKernel(3);
    const Program shrunk = shrinkProgram(prog, [](const Program &p) {
        for (std::uint32_t pc = 0; pc < p.size(); ++pc)
            if (p.at(pc).op == Opcode::STG)
                return true;
        return false;
    });
    unsigned stores = 0;
    for (std::uint32_t pc = 0; pc < shrunk.size(); ++pc)
        stores += shrunk.at(pc).op == Opcode::STG ? 1 : 0;
    EXPECT_EQ(stores, 1u);
    EXPECT_LT(shrunk.size(), prog.size());
}
