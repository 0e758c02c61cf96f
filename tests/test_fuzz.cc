/**
 * @file
 * Structured program fuzzing: generate random well-formed kernels
 * (ALU bursts, guarded ops, if/else divergence with barriers, bounded
 * loops, scoreboarded loads/textures) and assert the master invariant
 * on each: Subwarp Interleaving — under any policy — never changes
 * architectural results or dynamic instruction counts, and always
 * terminates.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hh"
#include "core/gpu.hh"
#include "isa/builder.hh"

using namespace si;

namespace {

constexpr Addr outBase = 0x1000;

/** Random structured kernel generator. */
class Fuzzer
{
  public:
    explicit Fuzzer(std::uint64_t seed) : rng_(seed), kb_("fuzz") {}

    Program
    generate()
    {
        kb_.s2r(0, SReg::TID);
        kb_.s2r(1, SReg::LANEID);
        // Per-thread base address for loads.
        kb_.shli(2, 0, 8);
        kb_.iaddi(2, 2, 0x100000);
        kb_.movf(10, 1.0f);
        kb_.movi(11, std::int32_t(rng_.below(100)));

        const unsigned blocks = 2 + unsigned(rng_.below(4));
        for (unsigned b = 0; b < blocks; ++b)
            emitBlock(b);

        // Store the accumulators.
        kb_.shli(3, 0, 2);
        kb_.iaddi(3, 3, std::int32_t(outBase));
        kb_.stg(3, 0, 10);
        kb_.stg(3, 4096, 11);
        kb_.exit();
        return kb_.build(32);
    }

  private:
    void
    emitAluBurst(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            switch (rng_.below(5)) {
              case 0:
                kb_.iaddi(11, 11, std::int32_t(rng_.range(-9, 9)));
                break;
              case 1:
                kb_.faddi(10, 10, rng_.uniform(-1.0f, 1.0f));
                break;
              case 2:
                kb_.fmuli(10, 10, rng_.uniform(0.5f, 1.5f));
                break;
              case 3:
                kb_.xorr(11, 11, 1);
                break;
              default:
                kb_.imadi(11, 11, 3, 11);
                break;
            }
        }
    }

    void
    emitLoad(SbIndex sb)
    {
        const RegIndex dst = RegIndex(12 + rng_.below(4));
        if (rng_.chance(0.7f)) {
            kb_.ldg(dst, 2, std::int32_t(rng_.below(16) * 128)).wr(sb);
        } else {
            kb_.tex(dst, 0, 11).wr(sb);
        }
        kb_.fadd(10, 10, dst).req(sb);
    }

    void
    emitIfElse(unsigned depth_tag)
    {
        const BarIndex bar = BarIndex(depth_tag % 14);
        Label join = kb_.newLabel();
        Label else_side = kb_.newLabel();

        // Divergence condition on lane id with a random split point.
        kb_.isetpi(0, CmpOp::LT, 1,
                   std::int32_t(1 + rng_.below(31)));
        kb_.bssy(bar, join);
        kb_.bra(else_side).pred(0);

        emitAluBurst(1 + unsigned(rng_.below(4)));
        if (rng_.chance(0.7f))
            emitLoad(SbIndex(rng_.below(3)));
        kb_.bra(join);

        kb_.bind(else_side);
        emitAluBurst(1 + unsigned(rng_.below(4)));
        if (rng_.chance(0.7f))
            emitLoad(SbIndex(3 + rng_.below(3)));
        kb_.bra(join);

        kb_.bind(join);
        kb_.bsync(bar);
    }

    void
    emitLoop()
    {
        const RegIndex counter = 20;
        kb_.movi(counter, std::int32_t(2 + rng_.below(3)));
        Label top = kb_.newLabel();
        kb_.bind(top);
        emitAluBurst(1 + unsigned(rng_.below(3)));
        if (rng_.chance(0.5f))
            emitLoad(6);
        kb_.iaddi(counter, counter, -1);
        kb_.isetpi(1, CmpOp::GT, counter, 0);
        kb_.bra(top).pred(1);
    }

    void
    emitBlock(unsigned tag)
    {
        switch (rng_.below(4)) {
          case 0:
            emitAluBurst(2 + unsigned(rng_.below(6)));
            break;
          case 1:
            emitLoad(SbIndex(rng_.below(7)));
            break;
          case 2:
            emitIfElse(tag);
            break;
          default:
            emitLoop();
            break;
        }
    }

    Rng rng_;
    KernelBuilder kb_;
};

struct RunOutput
{
    std::vector<std::uint32_t> words;
    std::uint64_t instrs;
    Cycle cycles;
    bool ok;
};

RunOutput
runProgram(const Program &prog, const GpuConfig &cfg, unsigned warps)
{
    Memory mem;
    // Some data for the loads.
    Rng data_rng(99);
    for (unsigned i = 0; i < 4096; ++i)
        mem.write(0x100000 + Addr(i) * 4, std::uint32_t(data_rng.next()));

    const GpuResult r = simulate(cfg, mem, prog, {warps, 4});
    RunOutput out;
    out.instrs = r.total.instrsIssued;
    out.cycles = r.cycles;
    out.ok = r.ok();
    for (unsigned t = 0; t < warps * warpSize; ++t) {
        out.words.push_back(mem.read(outBase + Addr(t) * 4));
        out.words.push_back(mem.read(outBase + 4096 + Addr(t) * 4));
    }
    return out;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t>
{
};

/** The master invariant for one seed, shared by the fixed ctest matrix
 *  and the opt-in extended sweep. */
void
checkSeed(std::uint64_t seed)
{
    Fuzzer fuzzer(seed);
    const Program prog = fuzzer.generate();
    ASSERT_EQ(prog.check(), "");

    GpuConfig base;
    base.numSms = 2;
    const RunOutput rb = runProgram(prog, base, 8);
    ASSERT_TRUE(rb.ok);

    const std::pair<SelectTrigger, bool> points[] = {
        {SelectTrigger::AnyStalled, false},
        {SelectTrigger::HalfStalled, true},
        {SelectTrigger::AllStalled, true},
    };
    for (const auto &pt : points) {
        GpuConfig cfg = base;
        cfg.siEnabled = true;
        cfg.yieldEnabled = pt.second;
        cfg.trigger = pt.first;
        const RunOutput rs = runProgram(prog, cfg, 8);
        ASSERT_TRUE(rs.ok);
        EXPECT_EQ(rb.words, rs.words) << "seed " << seed;
        EXPECT_EQ(rb.instrs, rs.instrs) << "seed " << seed;
    }
}

/** Fixed 64-seed matrix: deterministic in ctest, spread over the seed
 *  space by a Fibonacci-hash stride rather than consecutive integers. */
std::vector<std::uint64_t>
fixedSeeds()
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 64; ++i)
        seeds.push_back(i * 2654435761ull + 17ull);
    return seeds;
}

} // namespace

TEST_P(FuzzTest, SiNeverChangesArchitecturalResults)
{
    checkSeed(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::ValuesIn(fixedSeeds()));

/** Opt-in larger sweep: SI_FUZZ_SEEDS=N checks seeds 0..N-1. */
TEST(FuzzExtended, EnvSelectedSeedRange)
{
    const char *env = std::getenv("SI_FUZZ_SEEDS");
    if (env == nullptr)
        GTEST_SKIP() << "set SI_FUZZ_SEEDS=N to fuzz seeds 0..N-1";
    const std::uint64_t n = std::strtoull(env, nullptr, 0);
    for (std::uint64_t seed = 0; seed < n; ++seed) {
        checkSeed(seed);
        if (::testing::Test::HasFatalFailure())
            FAIL() << "seed " << seed;
    }
}
