/**
 * @file
 * Tests for the SI-hazard analyzer: the static memory-order pass
 * (verify/memdep — lane-affine address analysis + subwarp-concurrent
 * region pairing) and the dynamic happens-before race sanitizer
 * (race/detector), plus the soundness cross-check that ties them
 * together (ref/difftest raceCheckProgram).
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "race/detector.hh"
#include "ref/difftest.hh"
#include "ref/kernelgen.hh"
#include "verify/memdep.hh"
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The checked-in witness kernel (also a silint WILL_FAIL ctest). */
Program
witnessProgram()
{
    return asmOk(
        readFile(std::string(SI_REGRESS_DIR) + "/si_order_dependent.sasm"));
}

/** First pc carrying opcode @p op (asserts one exists). */
std::uint32_t
pcOf(const Program &prog, Opcode op)
{
    for (std::uint32_t pc = 0; pc < prog.size(); ++pc) {
        if (prog.at(pc).op == op)
            return pc;
    }
    ADD_FAILURE() << "opcode not found";
    return 0;
}

/** Run @p prog on one SM with @p det attached; SI + yield on. */
void
runWithDetector(const Program &prog, RaceDetector &det, unsigned warps = 4)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = true;
    cfg.yieldEnabled = true;
    cfg.raceHooks = &det;
    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult res = gpu.run(prog, LaunchParams{warps, 4});
    EXPECT_TRUE(res.ok()) << res.status.summary();
}

/** The races @p prog shows on one SM; SI + yield on. */
std::vector<RaceReport>
dynamicRaces(const Program &prog, unsigned warps = 4)
{
    RaceDetector det;
    runWithDetector(prog, det, warps);
    return det.races();
}

/** A store access event: @p lane stores to @p addr at @p pc. */
MemAccessEvent
access(unsigned lane, Addr addr, std::uint32_t pc, bool is_store,
       Cycle cycle, std::uint32_t active_mask = 0)
{
    MemAccessEvent ev;
    ev.cycle = cycle;
    ev.warpId = 0;
    ev.pc = pc;
    ev.execMask = 1u << lane;
    ev.activeMask = active_mask ? active_mask : (1u << lane);
    ev.isStore = is_store;
    ev.addr[lane] = addr;
    return ev;
}

} // namespace

// ---- static pass: lane-affine aliasing ---------------------------------

TEST(Memdep, SiblingArmAliasIsFlagged)
{
    const Program p = witnessProgram();
    const MemDepResult dep = analyzeMemDep(p);
    ASSERT_EQ(dep.pairs.size(), 1u);
    EXPECT_EQ(dep.pairs[0].pcA, pcOf(p, Opcode::STG));
    EXPECT_EQ(dep.pairs[0].pcB, pcOf(p, Opcode::LDG));
    EXPECT_FALSE(dep.pairs[0].storeStore);
    EXPECT_FALSE(dep.pairs[0].loopCarried);

    // Surfaced through the verifier as a Warning (gated by --Werror).
    const VerifyReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has("si-order-dependent"));
    EXPECT_TRUE(rep.clean());
    EXPECT_FALSE(rep.spotless());
}

TEST(Memdep, LanePrivateArmsAreNotFlagged)
{
    // Same diamond shape, but both arms touch base + 4*tid only:
    // distinct lanes can never collide (stride 4, no cross-lane shift).
    const Program p = asmOk(R"(
.kernel lane_private
.regs 16
    S2R R0, LANEID
    S2R R1, TID
    SHL R2, R1, 2
    MOV R3, 0x20000000
    IADD R2, R2, R3
    ISETP.LT P0, R0, 16
    BSSY B0, conv
    @!P0 BRA ReadArm
    MOV R5, 7
    STG [R2+0], R5
    BRA conv
ReadArm:
    LDG R4, [R2+0] &wr=sb0
    IADD R6, R4, 1 &req=sb0
conv:
    BSYNC B0
    EXIT
)");
    const MemDepResult dep = analyzeMemDep(p);
    EXPECT_TRUE(dep.pairs.empty());
    EXPECT_FALSE(verifyProgram(p).has("si-order-dependent"));
}

TEST(Memdep, BsyncOrderedAccessesAreNotFlagged)
{
    // The aliasing pair from the witness, but the load sits AFTER the
    // reconverging BSYNC: ordered, not concurrent, not a hazard.
    const Program p = asmOk(R"(
.kernel bsync_ordered
.regs 16
    S2R R0, LANEID
    S2R R1, TID
    SHL R2, R1, 2
    MOV R3, 0x20000000
    IADD R2, R2, R3
    ISETP.LT P0, R0, 16
    BSSY B0, conv
    @!P0 BRA conv
    MOV R5, 7
    STG [R2+64], R5
conv:
    BSYNC B0
    LDG R4, [R2+0] &wr=sb0
    IADD R6, R4, 1 &req=sb0
    EXIT
)");
    const MemDepResult dep = analyzeMemDep(p);
    EXPECT_TRUE(dep.pairs.empty());
    EXPECT_FALSE(verifyProgram(p).has("si-order-dependent"));
}

TEST(Memdep, LoopCarriedStoreIsFlagged)
{
    // A divergent loop storing through a loop-varying address: subwarps
    // of one warp can occupy different iterations, so the store
    // conflicts with itself across iterations (widened address).
    const Program p = asmOk(R"(
.kernel loop_carried
.regs 16
    S2R R0, LANEID
    MOV R2, 0x20000000
    MOV R6, 0
    ISETP.LT P1, R0, 16
    BSSY B0, conv
    @!P1 BRA conv
Top:
    MOV R5, 7
    STG [R2+0], R5
    IADD R2, R2, 4
    IADD R6, R6, 1
    ISETP.LT P0, R6, 8
    @P0 BRA Top
conv:
    BSYNC B0
    EXIT
)");
    const MemDepResult dep = analyzeMemDep(p);
    ASSERT_FALSE(dep.pairs.empty());
    const std::uint32_t stg = pcOf(p, Opcode::STG);
    bool self = false;
    for (const MayRacePair &pr : dep.pairs)
        self |= pr.pcA == stg && pr.pcB == stg && pr.loopCarried;
    EXPECT_TRUE(self);
    EXPECT_TRUE(verifyProgram(p).has("si-order-dependent"));
}

TEST(Memdep, MayRaceAcceptsEitherOrder)
{
    const Program p = witnessProgram();
    const MemDepResult dep = analyzeMemDep(p);
    const std::uint32_t stg = pcOf(p, Opcode::STG);
    const std::uint32_t ldg = pcOf(p, Opcode::LDG);
    EXPECT_TRUE(dep.mayRace(stg, ldg));
    EXPECT_TRUE(dep.mayRace(ldg, stg));
    EXPECT_FALSE(dep.mayRace(0, 1));
}

// ---- dynamic sanitizer --------------------------------------------------

TEST(RaceDetector, WitnessRacesWithExactPcPair)
{
    const Program p = witnessProgram();
    const std::vector<RaceReport> races = dynamicRaces(p);
    ASSERT_EQ(races.size(), 1u);
    EXPECT_EQ(races[0].pcA, pcOf(p, Opcode::STG));
    EXPECT_EQ(races[0].pcB, pcOf(p, Opcode::LDG));
    EXPECT_FALSE(races[0].storeStore);
    // Lane k stores what lane k+16 loads.
    EXPECT_EQ(races[0].laneB % 16, races[0].laneA % 16);
    EXPECT_FALSE(RaceDetector().report().empty() &&
                 races.empty()); // report() formats the finding
}

TEST(RaceDetector, ScoreboardOrderedAccessesAreSilent)
{
    // Store then load of the SAME per-thread address, ordered by
    // program order within each lane and annotated with the scoreboard
    // discipline — no cross-lane conflict, no race.
    const Program p = asmOk(R"(
.kernel ordered
.regs 16
    S2R R1, TID
    SHL R2, R1, 2
    MOV R3, 0x20000000
    IADD R2, R2, R3
    MOV R5, 7
    STG [R2+0], R5
    LDG R4, [R2+0] &wr=sb0
    IADD R6, R4, 1 &req=sb0
    EXIT
)");
    EXPECT_TRUE(dynamicRaces(p).empty());
}

TEST(RaceDetector, BsyncJoinOrdersSiblingArms)
{
    // Synthetic: lane 0 stores, the warp reconverges (BSYNC join over
    // both lanes), lane 1 loads the same word — ordered, silent.
    RaceDetector det;
    det.onAccess(access(0, 0x1000, 5, true, 10));
    det.onSync(0, 0b11u, 8, 20);
    det.onAccess(access(1, 0x1000, 9, false, 30));
    EXPECT_TRUE(det.races().empty());

    // Without the join the same pair races.
    RaceDetector det2;
    det2.onAccess(access(0, 0x1000, 5, true, 10));
    det2.onAccess(access(1, 0x1000, 9, false, 30));
    ASSERT_EQ(det2.races().size(), 1u);
    EXPECT_EQ(det2.races()[0].pcA, 5u);
    EXPECT_EQ(det2.races()[0].pcB, 9u);
    EXPECT_EQ(det2.races()[0].addr, 0x1000u);
}

TEST(RaceDetector, CrossWarpConflictsAreOutOfContract)
{
    // Same word, two different warps: inter-warp hazards exist with or
    // without SI and are never reported (keeps dynamic within the
    // intra-warp static may-race set).
    RaceDetector det;
    MemAccessEvent a = access(0, 0x2000, 3, true, 10);
    a.warpId = 0;
    MemAccessEvent b = access(1, 0x2000, 7, false, 20);
    b.warpId = 1;
    det.onAccess(a);
    det.onAccess(b);
    EXPECT_TRUE(det.races().empty());
}

TEST(RaceDetector, ResetDropsEverything)
{
    RaceDetector det;
    det.onAccess(access(0, 0x5000, 4, true, 10));
    det.onAccess(access(1, 0x5000, 6, false, 30));
    ASSERT_EQ(det.races().size(), 1u);
    det.reset();
    EXPECT_TRUE(det.races().empty());
    det.onAccess(access(1, 0x5000, 6, false, 40));
    EXPECT_TRUE(det.races().empty()); // shadow gone with the findings
}

// ---- soundness cross-check ---------------------------------------------

TEST(RaceOracle, CleanGeneratedKernelsAreRaceFreeOnBothSides)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const RaceCheckResult rc =
            raceCheckProgram(generateKernel(seed));
        EXPECT_EQ(rc.runError, "") << "seed " << seed;
        EXPECT_EQ(rc.staticPairs, 0u) << "seed " << seed;
        EXPECT_TRUE(rc.dynamicRaces.empty()) << "seed " << seed;
        EXPECT_TRUE(rc.sound()) << "seed " << seed;
    }
}

TEST(RaceOracle, RacyWitnessIsCaughtOnBothSidesAndStaysSound)
{
    KernelGenOptions gen;
    gen.racyWitness = true;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Program prog = generateKernel(seed, gen);
        const RaceCheckResult rc = raceCheckProgram(prog);
        EXPECT_EQ(rc.runError, "") << "seed " << seed;
        EXPECT_GE(rc.staticPairs, 1u) << "seed " << seed;
        EXPECT_FALSE(rc.dynamicRaces.empty()) << "seed " << seed;
        EXPECT_TRUE(rc.sound()) << "seed " << seed;

        // The dynamic witness is the intended pc pair: a store/load
        // race over the warp-private kgRaceBase segment.
        bool on_witness = false;
        for (const RaceReport &rr : rc.dynamicRaces)
            on_witness |= !rr.storeStore && rr.addr >= kgRaceBase;
        EXPECT_TRUE(on_witness) << "seed " << seed;
    }
}
