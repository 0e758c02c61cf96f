/**
 * @file
 * Discussion (Section VI) ablation: subwarp execution order. In a warp
 * whose divergence produces one load-heavy and one compute-only
 * subwarp, SI only helps when the load-heavy side executes first; the
 * paper proposes randomizing the order to improve the odds.
 *
 * Two experiments:
 *   1. A skewed two-sided kernel, run under both static orders and the
 *      randomized policy.
 *   2. The full application suite under all four DivergeOrder
 *      policies, including the paper's proposed software stall hints
 *      (implemented in isa/stall_hints.hh).
 */

#include "bench_common.hh"

#include "isa/assembler.hh"
#include "isa/stall_hints.hh"

namespace {

// One side of the branch has three dependent load-to-use stall rounds;
// the other is pure math. Only if the load side runs first can SI hide
// its stalls behind the math side.
const char *skewed = R"(
.kernel skewed_order
.regs 48
    S2R R0, LANEID
    S2R R1, TID
    SHL R2, R1, 8
    MOV R3, 0x20000000
    IADD R2, R2, R3          ; per-thread compulsory-miss addresses
    ISETP.LT P0, R0, 16
    BSSY B0, join
    @P0 BRA mathSide
; loadSide: three sequential exposed load-to-use stalls
    LDG R4, [R2+0] &wr=sb0
    FADD R10, R10, R4 &req=sb0
    LDG R5, [R2+128] &wr=sb0
    FADD R10, R10, R5 &req=sb0
    LDG R6, [R2+256] &wr=sb0
    FADD R10, R10, R6 &req=sb0
    BRA join
mathSide:
    MOV R11, 1.0
    FMUL R12, R11, 2.0
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    FFMA R11, R12, R11, R12
    FFMA R12, R11, R12, R11
    FFMA R11, R12, R11, R12
    BRA join
join:
    BSYNC B0
    EXIT
)";

double
runSkewed(const si::GpuConfig &baseline, si::DivergeOrder order,
          bool si_on)
{
    si::GpuConfig cfg = baseline;
    cfg.numSms = 1;
    cfg.divergeOrder = order;
    if (si_on)
        cfg = si::withSi(cfg, si::bestSiConfigPoint());
    cfg.divergeOrder = order;
    si::Memory mem;
    si::Program prog = si::assembleOrDie(skewed);
    if (order == si::DivergeOrder::HintStallFirst)
        si::annotateStallHints(prog);
    return double(si::simulate(cfg, mem, prog, {4, 1}).cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("ablation_exec_order", argc, argv);

    // ---- experiment 1: the skewed kernel ----
    // The fall-through side of "@P0 BRA mathSide" carries the loads,
    // so TakenFirst models the unlucky order.
    si::TablePrinter t1("Ablation: skewed two-subwarp kernel "
                        "(loads on the fall-through side)");
    t1.header({"diverge order", "baseline cycles", "SI cycles",
               "speedup"});
    struct OrderPoint
    {
        const char *label;
        si::DivergeOrder order;
    };
    const OrderPoint orders[] = {
        {"load side first (NotTakenFirst)",
         si::DivergeOrder::NotTakenFirst},
        {"math side first (TakenFirst)", si::DivergeOrder::TakenFirst},
        {"randomized", si::DivergeOrder::Random},
        {"software stall hints", si::DivergeOrder::HintStallFirst},
    };
    struct SkewedPoint
    {
        double base, si;
    };
    si::parallel::mapIndexed<SkewedPoint>(
        bj.jobs(), std::size(orders),
        [&](std::size_t i) {
            return SkewedPoint{
                runSkewed(bj.baseline(), orders[i].order, false),
                runSkewed(bj.baseline(), orders[i].order, true)};
        },
        [&](std::size_t i, const SkewedPoint &p) {
            t1.row({orders[i].label, si::TablePrinter::num(p.base, 0),
                    si::TablePrinter::num(p.si, 0),
                    si::TablePrinter::pct((p.base / p.si - 1.0) *
                                          100.0)});
        });
    t1.print();

    // ---- experiment 2: the application suite ----
    // Per diverge order, a baseline and SI on top of it. The stall-hint
    // order runs the hint-annotated apps: a second grid whose rows copy
    // the first grid's builds, so it runs second.
    si::bench::Grid plain(bj), hinted(bj);
    plain.apps();
    for (std::size_t r = 0; r < plain.numRows(); ++r) {
        hinted.row(plain.name(r) + " +hints", [&plain, r] {
            si::Workload wl = plain.workload(r);
            si::annotateStallHints(wl.program);
            return wl;
        });
    }
    // Per order: its grid and its baseline column (SI is the next one).
    std::vector<std::pair<si::bench::Grid *, std::size_t>> bases;
    for (const OrderPoint &o : orders) {
        si::bench::Grid &grid =
            o.order == si::DivergeOrder::HintStallFirst ? hinted : plain;
        si::GpuConfig base = bj.baseline();
        base.divergeOrder = o.order;
        bases.emplace_back(&grid, grid.column(o.label, base));
        grid.column(std::string(o.label) + " SI",
                    si::withSi(base, si::bestSiConfigPoint()));
    }
    plain.run();
    hinted.run();

    si::TablePrinter t2("Ablation: mean app speedup by diverge order "
                        "(Both,N>=0.5, lat=600)");
    t2.header({"diverge order", "mean speedup"});
    for (std::size_t i = 0; i < std::size(orders); ++i) {
        const auto &[grid, b] = bases[i];
        const double m = si::mean(grid->speedups(b, b + 1));
        t2.row({orders[i].label, si::TablePrinter::pct(m)});
        bj.metric(std::string("mean_speedup_pct/") + orders[i].label, m);
    }
    t2.print();

    bj.table(t1);
    bj.table(t2);
    return bj.finish() ? 0 : 1;
}
