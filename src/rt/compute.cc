#include "rt/compute.hh"

#include "common/rng.hh"
#include "isa/builder.hh"

namespace si {

namespace {

// Register map (lean: compute kernels run at high occupancy):
//   R0 tid   R1 addr   R2 scratch/base  R3 loop counter
//   R4-R11 data        R12 accumulator  R14 second address
constexpr RegIndex rTid = 0, rAddr = 1, rBase = 2, rLoop = 3;
constexpr RegIndex rData = 4, rAcc = 12, rAddr2 = 14;
constexpr PredIndex p0 = 0, p1 = 1;

/** Common epilogue: store the accumulator and exit. */
void
emitStoreResult(KernelBuilder &kb)
{
    kb.ldc(rBase, layout::cOutBuf);
    kb.imadi(rAddr, rTid, 4, rBase);
    kb.stg(rAddr, 0, rAcc);
    kb.exit();
}

/** y[i] = a * x[i] + y[i]: streaming, convergent, MLP-rich. */
Program
buildSaxpy()
{
    KernelBuilder kb("saxpy");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 8, rBase);
    // Unrolled by 4: plenty of independent loads in flight.
    for (unsigned u = 0; u < 4; ++u) {
        kb.ldg(RegIndex(rData + 2 * u), rAddr,
               std::int32_t(u * 2048)).wr(0);
        kb.ldg(RegIndex(rData + 2 * u + 1), rAddr,
               std::int32_t(u * 2048 + 4)).wr(1);
    }
    kb.movf(rAcc, 0.0f);
    for (unsigned u = 0; u < 4; ++u) {
        Instr &in = kb.ffma(rAcc, RegIndex(rData + 2 * u),
                            RegIndex(rData + 2 * u + 1), rAcc);
        if (u == 0)
            in.req(0).req(1);
    }
    emitStoreResult(kb);
    return kb.build(24);
}

/** Rolling reduction: sequential convergent load-to-use stalls. */
Program
buildReduction()
{
    KernelBuilder kb("reduction");
    Label loop = kb.newLabel("loop");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 512, rBase);
    kb.movf(rAcc, 0.0f);
    kb.movi(rLoop, 4);
    kb.bind(loop);
    kb.ldg(rData, rAddr, 0).wr(0);
    kb.fadd(rAcc, rAcc, rData).req(0);
    kb.iaddi(rAddr, rAddr, 128);
    kb.iaddi(rLoop, rLoop, -1);
    kb.isetpi(p0, CmpOp::GT, rLoop, 0);
    kb.bra(loop).pred(p0);
    emitStoreResult(kb);
    return kb.build(24);
}

/** Inner-product loop: each load pair amortized by an FFMA burst. */
Program
buildMatMulTile()
{
    KernelBuilder kb("matmul_tile");
    Label loop = kb.newLabel("loop");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 256, rBase);
    kb.iaddi(rAddr2, rAddr, 0x100000);
    kb.movf(rAcc, 0.0f);
    kb.movi(rLoop, 4);
    kb.bind(loop);
    kb.ldg(rData, rAddr, 0).wr(0);
    kb.ldg(RegIndex(rData + 1), rAddr2, 0).wr(1);
    Instr &first = kb.ffma(rAcc, rData, RegIndex(rData + 1), rAcc);
    first.req(0).req(1);
    // The "tile" of math that hides the next loads on real GPUs.
    for (unsigned i = 0; i < 12; ++i) {
        kb.ffma(RegIndex(rData + 2 + (i % 2)), rAcc,
                RegIndex(rData + (i % 2)),
                RegIndex(rData + 2 + (i % 2)));
    }
    kb.fadd(rAcc, rAcc, RegIndex(rData + 2));
    kb.iaddi(rAddr, rAddr, 64);
    kb.iaddi(rAddr2, rAddr2, 64);
    kb.iaddi(rLoop, rLoop, -1);
    kb.isetpi(p0, CmpOp::GT, rLoop, 0);
    kb.bra(loop).pred(p0);
    emitStoreResult(kb);
    return kb.build(24);
}

/** 5-point stencil: one row of loads, then math, then a store. */
Program
buildStencil5()
{
    KernelBuilder kb("stencil5");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 4, rBase);
    const std::int32_t offsets[5] = {0, 4, -4, 4096, -4096};
    for (unsigned i = 0; i < 5; ++i)
        kb.ldg(RegIndex(rData + i), rAddr, offsets[i] + 8192).wr(0);
    kb.movf(rAcc, 0.0f);
    Instr &first = kb.fadd(rAcc, rData, RegIndex(rData + 1));
    first.req(0);
    for (unsigned i = 2; i < 5; ++i)
        kb.fadd(rAcc, rAcc, RegIndex(rData + i));
    kb.fmuli(rAcc, rAcc, 0.2f);
    emitStoreResult(kb);
    return kb.build(24);
}

/**
 * Histogram: the branch direction depends on loaded data (divergent),
 * but the divergent blocks are a couple of ALU ops — divergence
 * without long stalls, the common compute-kernel case.
 */
Program
buildHistogram()
{
    KernelBuilder kb("histogram");
    Label join = kb.newLabel("join");
    Label big = kb.newLabel("big");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 4, rBase);
    kb.ldg(rData, rAddr, 0).wr(0);
    kb.andi(RegIndex(rData + 1), rData, 0xff).req(0);
    kb.isetpi(p1, CmpOp::GT, RegIndex(rData + 1), 127);
    kb.bssy(0, join);
    kb.bra(big).pred(p1);
    kb.iaddi(rAcc, rAcc, 1); // small bucket
    kb.shli(rAcc, rAcc, 1);
    kb.bra(join);
    kb.bind(big);
    kb.iaddi(rAcc, rAcc, 2); // large bucket
    kb.xorr(rAcc, rAcc, rData);
    kb.bra(join);
    kb.bind(join);
    kb.bsync(0);
    emitStoreResult(kb);
    return kb.build(24);
}

/**
 * BFS-like irregular kernel: a data-dependent *loop trip count* with a
 * dependent load chain inside — long stalls in divergent code, the
 * rare shape (11 of 400+ in the paper) where SI could in principle
 * apply.
 */
Program
buildBfsLike()
{
    KernelBuilder kb("bfs_like");
    Label loop = kb.newLabel("loop");
    Label done = kb.newLabel("done");
    kb.s2r(rTid, SReg::TID);
    kb.ldc(rBase, layout::cDataBuf);
    kb.imadi(rAddr, rTid, 4, rBase);
    // Degree = 1 + (tid % 4): lanes iterate different counts.
    kb.andi(rLoop, rTid, 3);
    kb.iaddi(rLoop, rLoop, 1);
    kb.movi(rAcc, 0);
    kb.imadi(rAddr2, rTid, 1024, rBase);
    kb.bind(loop);
    // Neighbor fetch: dependent pointer-chase style loads.
    kb.ldg(rData, rAddr2, 0x200000).wr(0);
    kb.iadd(rAcc, rAcc, rData).req(0);
    kb.andi(RegIndex(rData + 1), rData, 0xfff0);
    kb.iadd(rAddr2, rAddr2, RegIndex(rData + 1));
    kb.iaddi(rAddr2, rAddr2, 128);
    kb.iaddi(rLoop, rLoop, -1);
    kb.isetpi(p0, CmpOp::GT, rLoop, 0);
    kb.bra(loop).pred(p0);
    kb.bind(done);
    emitStoreResult(kb);
    return kb.build(24);
}

} // namespace

const char *
computeKernelName(ComputeKernel k)
{
    switch (k) {
      case ComputeKernel::Saxpy: return "saxpy";
      case ComputeKernel::Reduction: return "reduction";
      case ComputeKernel::MatMulTile: return "matmul_tile";
      case ComputeKernel::Stencil5: return "stencil5";
      case ComputeKernel::Histogram: return "histogram";
      case ComputeKernel::BfsLike: return "bfs_like";
    }
    return "?";
}

const std::vector<ComputeKernel> &
allComputeKernels()
{
    static const std::vector<ComputeKernel> all = {
        ComputeKernel::Saxpy,     ComputeKernel::Reduction,
        ComputeKernel::MatMulTile, ComputeKernel::Stencil5,
        ComputeKernel::Histogram, ComputeKernel::BfsLike,
    };
    return all;
}

Workload
buildComputeKernel(ComputeKernel kernel, unsigned num_warps)
{
    Workload wl;
    switch (kernel) {
      case ComputeKernel::Saxpy:
        wl.program = buildSaxpy();
        break;
      case ComputeKernel::Reduction:
        wl.program = buildReduction();
        break;
      case ComputeKernel::MatMulTile:
        wl.program = buildMatMulTile();
        break;
      case ComputeKernel::Stencil5:
        wl.program = buildStencil5();
        break;
      case ComputeKernel::Histogram:
        wl.program = buildHistogram();
        break;
      case ComputeKernel::BfsLike:
        wl.program = buildBfsLike();
        break;
    }
    wl.name = computeKernelName(kernel);
    wl.launch = {num_warps, 4};
    wl.memory = std::make_shared<Memory>();
    wl.memory->writeConst(std::uint32_t(layout::cDataBuf),
                          std::uint32_t(layout::dataBufBase));
    wl.memory->writeConst(std::uint32_t(layout::cOutBuf),
                          std::uint32_t(layout::outBufBase));

    // Data image: pseudo-random words so value-dependent control flow
    // (histogram, bfs) actually diverges.
    Rng rng(std::uint64_t(kernel) * 7919 + 5);
    for (unsigned i = 0; i < num_warps * warpSize; ++i) {
        wl.memory->write(layout::dataBufBase + Addr(i) * 4,
                         std::uint32_t(rng.next()));
    }
    return wl;
}

} // namespace si
