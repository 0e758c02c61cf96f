/** @file KernelBuilder misuse and Program edge-case handling. */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "core/gpu.hh"
#include "isa/builder.hh"

using namespace si;
using ::testing::HasSubstr;

TEST(BuilderErrors, UnboundLabelIsParseError)
{
    KernelBuilder kb("bad");
    Label l = kb.newLabel("nowhere");
    kb.bra(l);
    kb.exit();
    EXPECT_THROW(
        try { kb.build(8); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Parse);
            EXPECT_THAT(e.what(), HasSubstr("never bound"));
            throw;
        },
        SimError);
}

TEST(BuilderErrors, DoubleBindIsParseError)
{
    KernelBuilder kb("bad");
    Label l = kb.newLabel("twice");
    kb.bind(l);
    kb.nop();
    EXPECT_THROW(
        try { kb.bind(l); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Parse);
            EXPECT_THAT(e.what(), HasSubstr("bound twice"));
            throw;
        },
        SimError);
}

TEST(BuilderErrors, InvalidLabelIsParseError)
{
    KernelBuilder kb("bad");
    Label uninitialized;
    EXPECT_THROW(
        try { kb.bra(uninitialized); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Parse);
            EXPECT_THAT(e.what(), HasSubstr("invalid label"));
            throw;
        },
        SimError);
}

TEST(BuilderErrors, PredicatePastP6IsParseError)
{
    KernelBuilder kb("p9");
    kb.isetpi(9, CmpOp::LT, 0, 4);
    kb.exit();
    EXPECT_THROW(
        try { kb.build(8); } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Parse);
            EXPECT_THAT(e.what(), HasSubstr("predicate P9"));
            throw;
        },
        SimError);
}

TEST(BuilderErrors, ScoreboardIdPastSb7IsParseError)
{
    for (SbIndex id : {SbIndex(8), SbIndex(31), SbIndex(200)}) {
        KernelBuilder kb("sb");
        Instr &ld = kb.ldg(1, 2, 0);
        for (bool wr : {true, false}) {
            EXPECT_THROW(
                try {
                    wr ? ld.wr(id) : ld.req(id);
                } catch (const SimError &e) {
                    EXPECT_EQ(e.kind(), ErrorKind::Parse);
                    EXPECT_THAT(e.what(), HasSubstr("sb0..sb7"));
                    throw;
                },
                SimError);
        }
        EXPECT_EQ(ld.wrSb, sbNone);
        EXPECT_EQ(ld.reqSbMask, 0u);
    }
    KernelBuilder kb("sb7");
    kb.ldg(1, 2, 0).wr(7).req(7);
    kb.exit();
    EXPECT_EQ(kb.build(8).check(), "");
}

TEST(BuilderErrors, HereTracksEmission)
{
    KernelBuilder kb("here");
    EXPECT_EQ(kb.here(), 0u);
    kb.nop();
    kb.nop();
    EXPECT_EQ(kb.here(), 2u);
}

TEST(ProgramEdge, LabelsSurviveBuild)
{
    KernelBuilder kb("lbl");
    Label a = kb.newLabel("alpha");
    kb.bind(a);
    kb.nop();
    kb.exit();
    const Program p = kb.build(8);
    ASSERT_EQ(p.labels().count("alpha"), 1u);
    EXPECT_EQ(p.labels().at("alpha"), 0u);
}

TEST(ProgramEdge, UnconditionalBackwardBranchAtEndIsLegal)
{
    // A program ending in an unconditional BRA (infinite-loop kernels
    // killed by EXIT inside) passes structural checks.
    KernelBuilder kb("loop_end");
    Label top = kb.newLabel("top");
    kb.bind(top);
    kb.isetpi(0, CmpOp::GT, 1, 0);
    kb.exit().pred(0);
    kb.bra(top);
    EXPECT_EQ(kb.build(8).check(), "");
}

TEST(ProgramEdge, EmptyWarpLaunchRejected)
{
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    const GpuResult r = simulate(cfg, mem, p, {0, 1});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, ::testing::HasSubstr("zero warps"));
}

TEST(ProgramEdge, ZeroSmGpuConstructsAndFailsItsRun)
{
    // The constructor only stores its inputs; the run is where a bad
    // machine shape fails, as a status rather than an exception.
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    GpuConfig cfg;
    cfg.numSms = 0;
    Memory mem;
    std::unique_ptr<Gpu> gpu;
    ASSERT_NO_THROW(gpu = std::make_unique<Gpu>(cfg, mem));
    GpuResult r;
    ASSERT_NO_THROW(r = gpu->run(p, {1, 1}));
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, HasSubstr("numSms = 0"));
    EXPECT_EQ(gpu->numSms(), 0u);
    EXPECT_TRUE(r.perSm.empty());
}

TEST(ProgramEdge, ZeroSizedMachineShapeRejectedAtLaunch)
{
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    for (int field = 0; field < 3; ++field) {
        GpuConfig cfg;
        cfg.numSms = field == 0 ? 0 : 1;
        cfg.pbsPerSm = field == 1 ? 0 : 4;
        cfg.warpSlotsPerPb = field == 2 ? 0 : 8;
        Memory mem;
        Gpu gpu(cfg, mem);
        const GpuResult r = gpu.run(p, {1, 1});
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.status.kind, ErrorKind::Config) << field;
    }
}

TEST(ProgramEdge, SiWithZeroEntryTstRejectedAtLaunch)
{
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = true;
    cfg.maxSubwarps = 0;
    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult r = gpu.run(p, {1, 1});
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, HasSubstr("TST entry"));

    // Without SI the TST is unused, so its size does not matter.
    cfg.siEnabled = false;
    EXPECT_TRUE(simulate(cfg, mem, p, {1, 1}).ok());
}

TEST(ProgramEdge, ZeroInvariantIntervalRejectedAtLaunch)
{
    // The run loop audits every invariantCheckInterval cycles; a zero
    // interval used to divide by zero there instead of failing cleanly.
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.checkInvariants = true;
    cfg.invariantCheckInterval = 0;
    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult r = gpu.run(p, {1, 1});
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, HasSubstr("nonzero interval"));

    // Without the audit the interval is unused.
    cfg.checkInvariants = false;
    EXPECT_TRUE(simulate(cfg, mem, p, {1, 1}).ok());
}

TEST(ProgramEdge, LaunchBeyondTraceIdsRejected)
{
    // TraceEvent names warps in 16 bits and SMs in 8: a larger launch
    // or machine would alias ids (merging retire traces), so both are
    // configuration errors — and the launch check runs before any warp
    // is allocated, so an absurd size fails fast instead of exhausting
    // memory.
    KernelBuilder kb("k");
    kb.exit();
    const Program p = kb.build(8);
    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    for (const unsigned warps : {65537u, 4000000000u}) {
        const GpuResult r = simulate(cfg, mem, p, {warps, 4});
        EXPECT_FALSE(r.ok()) << warps;
        EXPECT_EQ(r.status.kind, ErrorKind::Config) << warps;
    }
    // The cap is on the whole launch, across co-scheduled kernels.
    {
        Gpu gpu(cfg, mem);
        const GpuResult r = gpu.runMulti(
            {{&p, LaunchParams{40000, 4}}, {&p, LaunchParams{40000, 4}}});
        EXPECT_EQ(r.status.kind, ErrorKind::Config);
    }

    cfg.numSms = 257;
    const GpuResult r = simulate(cfg, mem, p, {1, 1});
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    cfg.numSms = 256;
    EXPECT_NO_THROW(Gpu(cfg, mem));
}

TEST(ProgramEdge, RegisterHungryKernelRejected)
{
    KernelBuilder kb("fat");
    kb.exit();
    const Program p = kb.build(255); // 255*32 = 8160 words per warp
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.regFilePerPb = 4096; // cannot host even one warp
    Memory mem;
    const GpuResult r = simulate(cfg, mem, p, {1, 1});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, ::testing::HasSubstr("register file"));
}

TEST(ProgramEdge, PartialWarpKernelRuns)
{
    // Warps narrower than 32 threads (tail CTAs) execute correctly.
    KernelBuilder kb("narrow");
    kb.s2r(0, SReg::LANEID);
    kb.shli(1, 0, 2);
    kb.iaddi(1, 1, 0x1000);
    kb.movi(2, 9);
    kb.stg(1, 0, 2);
    kb.exit();
    const Program p = kb.build(8);

    GpuConfig cfg;
    cfg.numSms = 1;
    Memory mem;
    // Launch via the Sm-level API with a 12-thread warp.
    Sm sm(0, cfg, mem, nullptr);
    sm.addWarp(std::make_unique<Warp>(0, 0, &p, 12));
    Cycle now = 0;
    while (!sm.done() && now < 10000)
        sm.tick(now++);
    ASSERT_TRUE(sm.done());
    EXPECT_EQ(mem.read(0x1000 + 11 * 4), 9u);
    EXPECT_EQ(mem.read(0x1000 + 12 * 4), 0u); // inactive lane wrote nothing
}
