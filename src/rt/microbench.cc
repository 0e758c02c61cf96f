#include "rt/microbench.hh"

#include <bit>
#include <functional>

#include "common/sim_error.hh"
#include "isa/builder.hh"

namespace si {

namespace {

// Register map:
//   R0 laneid  R1 tid      R2 warpid   R3 subwarpid  R4 loop counter
//   R5 const   R6 it index R7 address  R8 iterations R9 lane offset
//   R12 accumulator        R20.. loaded values       R30-R33 filler
constexpr RegIndex rLane = 0, rTid = 1, rWarp = 2, rSub = 3, rIter = 4;
constexpr RegIndex rConst = 5, rIt = 6, rAddrR = 7, rIterN = 8, rOfs = 9;
constexpr RegIndex rAcc = 12, rVal = 20, rFill = 30;

constexpr PredIndex pLoop = 0, pDispatch = 2;
constexpr SbIndex sbData = 2;

} // namespace

unsigned
divergenceFactor(const MicrobenchConfig &config)
{
    return warpSize / config.subwarpSize;
}

Workload
buildMicrobench(const MicrobenchConfig &config)
{
    sim_throw_if(config.subwarpSize == 0 || config.subwarpSize > warpSize ||
                     !std::has_single_bit(config.subwarpSize),
                 ErrorKind::Config,
                 "SUBWARP_SIZE must be a power of two in [1, 32]");
    sim_throw_if(config.iterations == 0, ErrorKind::Config,
                 "need >= 1 iteration");
    sim_throw_if(config.accessesPerCase == 0 || config.accessesPerCase > 8,
                 ErrorKind::Config, "accessesPerCase must be in [1, 8]");

    const unsigned dfactor = divergenceFactor(config);
    const unsigned shift = unsigned(std::countr_zero(config.subwarpSize));

    KernelBuilder kb("microbench_d" + std::to_string(dfactor));
    Label loop_top = kb.newLabel("loopTop");
    Label sync = kb.newLabel("sync");

    // ---- prologue ----
    kb.s2r(rLane, SReg::LANEID);
    kb.s2r(rTid, SReg::TID);
    kb.s2r(rWarp, SReg::WARPID);
    kb.shri(rSub, rLane, std::int32_t(shift)); // subwarpid
    kb.movi(rIter, std::int32_t(config.iterations));
    kb.movi(rIterN, std::int32_t(config.iterations));
    kb.movf(rAcc, 0.0f);
    // Lane offset within the subwarp's cache line (word addressing).
    kb.andi(rOfs, rLane, std::int32_t(config.subwarpSize - 1));
    kb.shli(rOfs, rOfs, 2);

    // ---- iteration loop (Figure 11's for loop) ----
    kb.bind(loop_top);
    kb.bssy(0, sync);

    // One case per subwarp id, emitted as a binary dispatch tree (the
    // shape a compiler gives a dense switch).
    std::function<void(unsigned, unsigned)> dispatch =
        [&](unsigned lo, unsigned hi) {
            if (lo == hi) {
                const unsigned k = lo;
                // it = iterations - remaining
                kb.isub(rIt, rIterN, rIter);
                // slice = (warpid * dfactor + k) * iterations + it
                kb.imadi(rAddrR, rWarp, std::int32_t(dfactor), regNone);
                kb.iaddi(rAddrR, rAddrR, std::int32_t(k));
                kb.imuli(rAddrR, rAddrR, std::int32_t(config.iterations));
                kb.iadd(rAddrR, rAddrR, rIt);
                // Each slice touches accessesPerCase distinct lines.
                kb.imuli(rAddrR, rAddrR,
                         std::int32_t(config.accessesPerCase * 128));
                kb.ldc(rConst, layout::cDataBuf);
                kb.iadd(rAddrR, rAddrR, rConst);
                kb.iadd(rAddrR, rAddrR, rOfs);

                // gen_ld_to_use_stalls: a rolling reduction — each
                // access is a compulsory miss immediately consumed, so
                // every round is an exposed load-to-use stall.
                for (unsigned j = 0; j < config.accessesPerCase; ++j) {
                    kb.ldg(RegIndex(rVal + (j % 8)), rAddrR,
                           std::int32_t(j * 128)).wr(sbData);
                    kb.fadd(rAcc, rAcc,
                            RegIndex(rVal + (j % 8))).req(sbData);
                }

                // ...and the case's unique instruction footprint, which
                // is what pressures the L0I at high divergence factors.
                for (unsigned i = 0; i < config.fillerMath; ++i) {
                    const RegIndex d = RegIndex(rFill + (i % 4));
                    const RegIndex a = RegIndex(rFill + ((i + 1) % 4));
                    if (i % 2 == 0)
                        kb.ffma(d, a, d, a);
                    else
                        kb.fadd(d, d, a);
                }
                kb.bra(sync);
                return;
            }
            const unsigned mid = lo + (hi - lo) / 2;
            Label right = kb.newLabel();
            kb.isetpi(pDispatch, CmpOp::GT, rSub, std::int32_t(mid));
            kb.bra(right).pred(pDispatch);
            dispatch(lo, mid);
            kb.bind(right);
            dispatch(mid + 1, hi);
        };
    dispatch(0, dfactor - 1);

    // __syncwarp()
    kb.bind(sync);
    kb.bsync(0);
    kb.iaddi(rIter, rIter, -1);
    kb.isetpi(pLoop, CmpOp::GT, rIter, 0);
    kb.bra(loop_top).pred(pLoop);

    // ---- epilogue: _result[tid] = acc ----
    kb.ldc(rConst, layout::cOutBuf);
    kb.imadi(rAddrR, rTid, 4, rConst);
    kb.stg(rAddrR, 0, rAcc);
    kb.exit();

    Workload wl;
    wl.name = "microbench_d" + std::to_string(dfactor);
    wl.program = kb.build(config.numRegs);
    wl.launch = {config.numWarps, 1};
    wl.memory = std::make_shared<Memory>();
    wl.memory->writeConst(std::uint32_t(layout::cDataBuf),
                          std::uint32_t(layout::dataBufBase));
    wl.memory->writeConst(std::uint32_t(layout::cOutBuf),
                          std::uint32_t(layout::outBufBase));
    return wl;
}

} // namespace si
