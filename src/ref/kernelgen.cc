#include "ref/kernelgen.hh"

#include <string>

#include "common/rng.hh"
#include "isa/builder.hh"

namespace si {

namespace {

// Fixed register allocation. numRegs stays 32 so generated kernels fit
// every occupancy configuration the harness sweeps.
constexpr RegIndex rTid = 0;    ///< S2R TID
constexpr RegIndex rLane = 1;   ///< S2R LANEID
constexpr RegIndex rInBase = 2; ///< kgInputBase
constexpr RegIndex rAddr = 3;   ///< load address scratch
constexpr RegIndex rS0 = 4;     ///< int scratch
constexpr RegIndex rS1 = 5;     ///< int scratch
constexpr RegIndex rU = 6;      ///< texture u
constexpr RegIndex rV = 7;      ///< texture v
constexpr RegIndex rFacc = 10;  ///< float accumulator
constexpr RegIndex rIacc = 11;  ///< int accumulator
constexpr RegIndex rLd0 = 12;   ///< load destinations rLd0..rLd0+3
constexpr unsigned numLdRegs = 4;
constexpr RegIndex rCnt0 = 16;  ///< loop counters by loop depth
constexpr RegIndex rOut = 20;   ///< kgOutputBase + tid*4
constexpr RegIndex rLim0 = 21;  ///< loop limits by loop depth

constexpr PredIndex pIf0 = 0;   ///< if-region predicates by if depth
constexpr PredIndex pLoop0 = 3; ///< loop predicates by loop depth
constexpr PredIndex pAux = 6;   ///< guards / early exit

class Generator
{
  public:
    Generator(std::uint64_t seed, const KernelGenOptions &opts)
        : rng_(seed ^ 0x5157ab1e5eedull),
          opts_(opts),
          kb_("gen_" + std::to_string(seed))
    {
    }

    Program
    run()
    {
        prologue();
        // Reserve the witness diamond's barrier up front so the random
        // body cannot exhaust the register file first.
        BarIndex witness_bar = barNone;
        if (opts_.racyWitness)
            witness_bar = BarIndex(barNext_++);
        const unsigned items =
            unsigned(rng_.range(opts_.minTopItems, opts_.maxTopItems));
        for (unsigned i = 0; i < items; ++i)
            item();
        if (opts_.racyWitness)
            racyWitness(witness_bar);
        epilogue();
        return kb_.build(32);
    }

  private:
    // ---- scoreboard bookkeeping -----------------------------------------
    //
    // Mirrors the static verifier's may-analysis (verify/verifier.cc) so
    // generated kernels carry no scoreboard-discipline diagnostics:
    // sbMayPending_ has a bit set while some path holds an outstanding
    // &wr on that scoreboard, sbMayWritten_ once any path has written
    // it. Divergent arms snapshot/restore/union the state exactly like
    // the verifier joins block states.

    struct SbState
    {
        std::uint8_t mayPending = 0;
        std::uint8_t mayWritten = 0;
        SbIndex pendingSb[numLdRegs] = {sbNone, sbNone, sbNone, sbNone};
    };

    /** Union-join for reconvergence points (both arms may have run). */
    static SbState
    joinSb(const SbState &a, const SbState &b)
    {
        SbState out;
        out.mayPending = a.mayPending | b.mayPending;
        out.mayWritten = a.mayWritten | b.mayWritten;
        for (unsigned s = 0; s < numLdRegs; ++s) {
            out.pendingSb[s] = a.pendingSb[s] != sbNone ? a.pendingSb[s]
                                                        : b.pendingSb[s];
        }
        return out;
    }

    /**
     * Pick a scoreboard for a new long-latency write and annotate
     * @p in. Prefers a scoreboard with no write in flight on any path;
     * when every one is busy the pick carries a self-&req (the req
     * drains the previous producer before this write increments, so
     * the two never alias one counter). Inside a loop body every pick
     * self-reqs: the back edge can carry this very region's writes
     * back to its own top, where a "free" scoreboard is anything but.
     */
    void
    attachWr(Instr &in, unsigned slot)
    {
        const unsigned n = numScoreboards;
        SbIndex sb = sbNone;
        for (unsigned i = 0; i < n; ++i) {
            const SbIndex cand = SbIndex((sbCursor_ + i) % n);
            if (!(sb_.mayPending & (1u << cand))) {
                sb = cand;
                break;
            }
        }
        const bool busy = sb == sbNone;
        if (busy)
            sb = SbIndex(sbCursor_ % n);
        ++sbCursor_;

        in.wr(sb);
        // A self-req on a never-written scoreboard is a no-op wait the
        // verifier flags; inside a loop the write reaches its own top
        // along the back edge, so there it is (at most) partial.
        if (busy || loopDepth_ > 0)
            in.req(sb);
        sb_.mayPending |= std::uint8_t(1u << sb);
        sb_.mayWritten |= std::uint8_t(1u << sb);
        sb_.pendingSb[slot] = sb;
    }

    /** &req annotation for a consumer of load destination @p slot, with a
     *  chance of also waiting on a second pending slot (mixed chains). */
    void
    reqPending(Instr &in, unsigned slot)
    {
        auto req_slot = [&](unsigned s) {
            const SbIndex sb = sb_.pendingSb[s];
            if (sb == sbNone)
                return;
            in.req(sb);
            sb_.mayPending &= std::uint8_t(~(1u << sb));
        };
        req_slot(slot);
        if (rng_.chance(0.3f))
            req_slot(unsigned(rng_.below(numLdRegs)));
    }

    /** Sometimes predicate an ALU op with an already-written predicate. */
    void
    maybeGuard(Instr &in)
    {
        if (!rng_.chance(0.15f))
            return;
        PredIndex candidates[3] = {pIf0, PredIndex(pIf0 + 1), pAux};
        const PredIndex p = candidates[rng_.below(3)];
        if (predWritten_ & (1u << p))
            in.pred(p, rng_.chance(0.5f));
    }

    // ---- structure -------------------------------------------------------

    void
    prologue()
    {
        kb_.s2r(rTid, SReg::TID);
        kb_.s2r(rLane, SReg::LANEID);
        kb_.movi(rInBase, std::int32_t(kgInputBase));
        kb_.movi(rS0, std::int32_t(kgOutputBase));
        kb_.shli(rS1, rTid, 2);
        kb_.iadd(rOut, rS0, rS1);
        kb_.movi(rIacc, std::int32_t(rng_.below(1u << 16)));
        kb_.movf(rFacc, 1.0f);
        kb_.s2r(rS0, SReg::CTAID);
        kb_.iadd(rIacc, rIacc, rS0);
    }

    void
    epilogue()
    {
        // Fold every load destination in so no load is dead code.
        for (unsigned slot = 0; slot < numLdRegs; ++slot) {
            Instr &in =
                kb_.xorr(rIacc, rIacc, RegIndex(rLd0 + slot));
            const SbIndex sb = sb_.pendingSb[slot];
            if (sb != sbNone) {
                in.req(sb);
                sb_.mayPending &= std::uint8_t(~(1u << sb));
            }
        }
        store(rIacc);
        kb_.f2i(rS1, rFacc);
        store(rS1);
        kb_.exit();
    }

    void
    item()
    {
        const unsigned roll = unsigned(rng_.below(100));
        const bool deeper = depth_ < opts_.maxDepth;
        if (roll < 25) {
            alu();
        } else if (roll < 45) {
            load();
        } else if (roll < 53 && opts_.allowTex) {
            texLoad();
        } else if (roll < 63) {
            store(randomValueReg());
        } else if (roll < 81 && deeper && ifDepth_ < 3) {
            ifElse();
        } else if (roll < 91 && deeper && opts_.allowLoops &&
                   loopDepth_ < 3) {
            loop();
        } else if (roll < 94 && opts_.allowYield) {
            kb_.yield();
        } else if (roll < 97 && opts_.allowEarlyExit) {
            earlyExit();
        } else {
            forwardSkip();
        }
    }

    void
    block()
    {
        const unsigned items = unsigned(rng_.range(1, 4));
        for (unsigned i = 0; i < items; ++i)
            item();
    }

    // ---- leaf items ------------------------------------------------------

    RegIndex
    randomValueReg()
    {
        switch (rng_.below(4)) {
          case 0: return rIacc;
          case 1: return RegIndex(rLd0 + rng_.below(numLdRegs));
          case 2: return rS0;
          default: return rLane;
        }
    }

    void
    alu()
    {
        switch (rng_.below(7)) {
          case 0: {
            const unsigned slot = unsigned(rng_.below(numLdRegs));
            Instr &in = kb_.iadd(rIacc, rIacc, RegIndex(rLd0 + slot));
            reqPending(in, slot);
            maybeGuard(in);
            break;
          }
          case 1: {
            Instr &in = kb_.imadi(rIacc, rIacc,
                                  std::int32_t(rng_.range(3, 17)), rLane);
            maybeGuard(in);
            break;
          }
          case 2: {
            const unsigned slot = unsigned(rng_.below(numLdRegs));
            Instr &in = kb_.i2f(rS1, RegIndex(rLd0 + slot));
            reqPending(in, slot);
            kb_.fmuli(rS1, rS1, 1.0f / 4096.0f);
            kb_.fadd(rFacc, rFacc, rS1);
            break;
          }
          case 3:
            kb_.fmuli(rFacc, rFacc, rng_.chance(0.5f) ? 0.75f : 1.25f);
            break;
          case 4: {
            Instr &in = kb_.xorr(rS0, rIacc, rLane);
            maybeGuard(in);
            kb_.andi(rS0, rS0, std::int32_t(rng_.below(255)));
            break;
          }
          case 5: {
            // SEL keyed on an aux predicate (deterministically false
            // until written — both models agree either way).
            kb_.isetpi(pAux, CmpOp::NE, rS0,
                       std::int32_t(rng_.below(16)));
            predWritten_ |= 1u << pAux;
            kb_.sel(rS1, rIacc, rLane, pAux);
            kb_.iadd(rIacc, rIacc, rS1);
            break;
          }
          default: {
            Instr &in = kb_.shri(rS0, rIacc,
                                 std::int32_t(rng_.range(1, 7)));
            maybeGuard(in);
            break;
          }
        }
    }

    /** LDG from the read-only input segment, three aliasing flavors. */
    void
    load()
    {
        const unsigned slot = unsigned(rng_.below(numLdRegs));
        const RegIndex dst = RegIndex(rLd0 + slot);
        switch (rng_.below(3)) {
          case 0: // per-thread: input[tid & (words-1)]
            kb_.andi(rS0, rTid, std::int32_t(kgInputWords - 1));
            kb_.shli(rS0, rS0, 2);
            kb_.iadd(rAddr, rInBase, rS0);
            attachWr(kb_.ldg(dst, rAddr,
                             std::int32_t(4 * rng_.below(8))),
                     slot);
            break;
          case 1: // broadcast: every lane reads the same word
            attachWr(kb_.ldg(dst, rInBase,
                             std::int32_t(4 * rng_.below(kgInputWords - 8))),
                     slot);
            break;
          default: // data-dependent: input[iacc & (words-1)]
            kb_.andi(rS0, rIacc, std::int32_t(kgInputWords - 1));
            kb_.shli(rS0, rS0, 2);
            kb_.iadd(rAddr, rInBase, rS0);
            attachWr(kb_.ldg(dst, rAddr, 0), slot);
            break;
        }
    }

    /** TEX/TLD with u/v masked into the initialized texel window. */
    void
    texLoad()
    {
        const unsigned slot = unsigned(rng_.below(numLdRegs));
        const RegIndex dst = RegIndex(rLd0 + slot);
        kb_.andi(rU, rng_.chance(0.5f) ? rTid : rIacc, 15);
        kb_.andi(rV, rng_.chance(0.5f) ? rLane : rIacc, 255);
        if (rng_.chance(0.5f))
            attachWr(kb_.tex(dst, rU, rV), slot);
        else
            attachWr(kb_.tld(dst, rU, rV), slot);
    }

    /** STG to this thread's private slot for the next store site. */
    void
    store(RegIndex value)
    {
        Instr &in =
            kb_.stg(rOut, std::int32_t(storeSite_ * 4096), value);
        if (value >= rLd0 && value < rLd0 + numLdRegs)
            reqPending(in, unsigned(value - rLd0));
        ++storeSite_;
    }

    // ---- divergent structures --------------------------------------------

    void
    divergentCondition(PredIndex p)
    {
        predWritten_ |= 1u << p;
        switch (rng_.below(4)) {
          case 0: // lane split at a random boundary
            kb_.isetpi(p, rng_.chance(0.5f) ? CmpOp::LT : CmpOp::GE,
                       rLane, std::int32_t(rng_.range(1, 31)));
            break;
          case 1: // small group: lane % 2^k == const
            kb_.andi(rS0, rLane,
                     std::int32_t((1 << rng_.range(1, 3)) - 1));
            kb_.isetpi(p, CmpOp::EQ, rS0, 0);
            break;
          case 2: { // data-dependent on a loaded value
            const unsigned slot = unsigned(rng_.below(numLdRegs));
            Instr &in = kb_.andi(rS0, RegIndex(rLd0 + slot), 7);
            reqPending(in, slot);
            kb_.isetpi(p, CmpOp::NE, rS0,
                       std::int32_t(rng_.below(8)));
            break;
          }
          default: // accumulator parity
            kb_.andi(rS0, rIacc, std::int32_t(rng_.range(1, 15)));
            kb_.isetpi(p, CmpOp::GT, rS0,
                       std::int32_t(rng_.below(4)));
            break;
        }
    }

    /** Diamond with a convergence barrier:
     *    BSSY Bb, Lconv; @!p BRA Lelse; then; BRA Lconv;
     *    Lelse: else; Lconv: BSYNC Bb */
    void
    ifElse()
    {
        // Out of barrier registers: degrade to an unsynchronized skip.
        // Barrier indices are never reused between static regions — two
        // arms of one diamond (or a region and a subwarp roaming ahead
        // of an unsynchronized skip) can occupy sibling regions
        // concurrently, and a shared index would merge their masks into
        // one bogus barrier with two reconvergence points.
        if (barNext_ >= numBarriers) {
            forwardSkip();
            return;
        }
        const PredIndex p = PredIndex(pIf0 + ifDepth_);
        const BarIndex bar = BarIndex(barNext_++);
        divergentCondition(p);

        Label l_else = kb_.newLabel();
        Label l_conv = kb_.newLabel();
        kb_.bssy(bar, l_conv);
        kb_.bra(l_else).pred(p, true);

        // Scoreboard state forks with control flow: the else arm starts
        // from the branch-point state (the then arm's writes are not on
        // its paths), and the reconvergence point sees the union.
        const SbState at_branch = sb_;
        ++depth_, ++ifDepth_;
        block(); // then
        const SbState at_then_end = sb_;
        kb_.bra(l_conv);
        kb_.bind(l_else);
        sb_ = at_branch;
        if (rng_.chance(0.8f))
            block(); // else (sometimes empty)
        --depth_, --ifDepth_;
        sb_ = joinSb(at_then_end, sb_);

        kb_.bind(l_conv);
        kb_.bsync(bar);
    }

    /** Bounded loop, barrier-wrapped when the trip count is divergent. */
    void
    loop()
    {
        const PredIndex p = PredIndex(pLoop0 + loopDepth_);
        const RegIndex cnt = RegIndex(rCnt0 + loopDepth_);
        const RegIndex lim = RegIndex(rLim0 + loopDepth_);
        const bool divergent =
            rng_.chance(0.6f) && barNext_ < numBarriers;
        const BarIndex bar = BarIndex(divergent ? barNext_++ : 0);

        if (divergent) {
            // 1 .. 2^k iterations keyed off the lane id.
            kb_.andi(lim, rLane,
                     std::int32_t((1 << rng_.range(1, 2)) - 1));
            kb_.iaddi(lim, lim, std::int32_t(rng_.range(1, 2)));
        } else {
            kb_.movi(lim, std::int32_t(rng_.range(2, 4)));
        }
        kb_.movi(cnt, 0);

        Label l_conv = kb_.newLabel();
        if (divergent)
            kb_.bssy(bar, l_conv);

        Label l_top = kb_.newLabel();
        kb_.bind(l_top);
        ++depth_, ++loopDepth_;
        block();
        --depth_, --loopDepth_;
        kb_.iaddi(cnt, cnt, 1);
        kb_.isetp(p, CmpOp::LT, cnt, lim);
        predWritten_ |= 1u << p;
        kb_.bra(l_top).pred(p, false);

        kb_.bind(l_conv);
        if (divergent)
            kb_.bsync(bar);
    }

    /** Unstructured forward skip without a barrier (subwarps merge by
     *  reaching the same PC). */
    void
    forwardSkip()
    {
        const PredIndex p = pAux;
        kb_.isetpi(p, CmpOp::LT, rLane,
                   std::int32_t(rng_.range(1, 31)));
        predWritten_ |= 1u << p;
        Label l_skip = kb_.newLabel();
        kb_.bra(l_skip).pred(p, false);
        const SbState at_branch = sb_;
        alu();
        if (rng_.chance(0.5f))
            alu();
        sb_ = joinSb(at_branch, sb_);
        kb_.bind(l_skip);
    }

    /**
     * The opt-in order-dependent diamond (KernelGenOptions::
     * racyWitness): lanes 0..15 store to kgRaceBase + warp*128 +
     * lane*4 + 64 while the sibling arm's lanes 16..31 load
     * kgRaceBase + warp*128 + lane*4 — the same word lane-16-below
     * stores, with no BSYNC between store and load. WARPID keying
     * keeps the conflict inside one warp.
     */
    void
    racyWitness(BarIndex bar)
    {
        kb_.s2r(rS0, SReg::WARPID);
        kb_.shli(rS0, rS0, 7);
        kb_.shli(rS1, rLane, 2);
        kb_.iadd(rS0, rS0, rS1);
        kb_.iaddi(rAddr, rS0, std::int32_t(kgRaceBase));
        kb_.isetpi(pAux, CmpOp::LT, rLane, 16);
        predWritten_ |= 1u << pAux;

        Label l_else = kb_.newLabel();
        Label l_conv = kb_.newLabel();
        kb_.bssy(bar, l_conv);
        kb_.bra(l_else).pred(pAux, true);
        kb_.stg(rAddr, 64, rIacc); // lanes 0..15
        kb_.bra(l_conv);
        kb_.bind(l_else);
        attachWr(kb_.ldg(rS1, rAddr, 0), 0); // lanes 16..31
        Instr &use = kb_.xorr(rIacc, rIacc, rS1);
        reqPending(use, 0);
        kb_.bind(l_conv);
        kb_.bsync(bar);
    }

    /** Guarded EXIT killing a small (possibly empty) lane group. */
    void
    earlyExit()
    {
        kb_.isetpi(pAux, CmpOp::EQ, rLane,
                   std::int32_t(rng_.below(48)));
        predWritten_ |= 1u << pAux;
        kb_.exit().pred(pAux, false);
    }

    Rng rng_;
    KernelGenOptions opts_;
    KernelBuilder kb_;

    unsigned depth_ = 0;
    unsigned ifDepth_ = 0;
    unsigned loopDepth_ = 0;
    unsigned barNext_ = 0; ///< next free barrier index (never reused)
    unsigned storeSite_ = 0;
    unsigned sbCursor_ = 0;
    std::uint32_t predWritten_ = 0;
    SbState sb_;
};

} // namespace

Memory
makeInputImage(std::uint64_t seed)
{
    Memory mem;
    Rng rng(seed);
    for (unsigned i = 0; i < kgInputWords; ++i)
        mem.write(kgInputBase + Addr(i) * 4, std::uint32_t(rng.next()));
    for (unsigned i = 0; i < kgTexWords; ++i)
        mem.write(texSegmentBase + Addr(i) * 4, std::uint32_t(rng.next()));
    for (unsigned i = 0; i < 64; ++i)
        mem.writeConst(i * 4, std::uint32_t(rng.next()));
    return mem;
}

Program
generateKernel(std::uint64_t seed, const KernelGenOptions &opts)
{
    Generator gen(seed, opts);
    return gen.run();
}

} // namespace si
