/**
 * @file
 * Build-stage smoke test: assemble the paper's Figure 9 listing and run
 * it on baseline and SI configurations.
 */

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"

namespace {

const char *fig9 = R"(
.kernel fig9
.regs 16
    S2R R0, LANEID
    ISETP.LT P0, R0, 16        ; P0 = lane < 16
    BSSY B0, syncPoint
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
)";

TEST(Smoke, Fig9BaselineAndSi)
{
    si::AsmResult asm_result = si::assemble(fig9);
    ASSERT_TRUE(asm_result.ok) << asm_result.error;

    si::GpuConfig base;
    base.numSms = 1;
    si::Memory mem;
    si::GpuResult r0 =
        si::simulate(base, mem, asm_result.program, {1, 1});
    EXPECT_TRUE(r0.ok()) << r0.status.summary();
    EXPECT_GT(r0.cycles, 0u);
    EXPECT_EQ(r0.total.divergentBranches, 1u);

    si::GpuConfig with_si = base;
    with_si.siEnabled = true;
    with_si.trigger = si::SelectTrigger::AllStalled;
    si::Memory mem2;
    si::GpuResult r1 =
        si::simulate(with_si, mem2, asm_result.program, {1, 1});
    EXPECT_TRUE(r1.ok()) << r1.status.summary();
    EXPECT_GE(r1.total.subwarpStalls, 1u);
    EXPECT_LT(r1.cycles, r0.cycles);
}

} // namespace
