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

struct OrderPoint
{
    const char *label;
    si::DivergeOrder order;
};

const OrderPoint orders[] = {
    {"load side first (NotTakenFirst)", si::DivergeOrder::NotTakenFirst},
    {"math side first (TakenFirst)", si::DivergeOrder::TakenFirst},
    {"randomized", si::DivergeOrder::Random},
    {"software stall hints", si::DivergeOrder::HintStallFirst},
};

/** An order's grid and its baseline column (SI is the next one). */
using OrderColumns = std::pair<const si::bench::Grid *, std::size_t>;

/**
 * Run @p plain's rows under every diverge order over @p base: a
 * baseline column and SI on top of it. The stall-hint order runs the
 * hint-annotated rows: @p hinted, whose rows copy @p plain's builds,
 * so it runs second. @return one OrderColumns per order.
 */
std::vector<OrderColumns>
runOrders(si::bench::Grid &plain, si::bench::Grid &hinted,
          si::GpuConfig base)
{
    for (std::size_t r = 0; r < plain.numRows(); ++r) {
        hinted.row(plain.name(r) + " +hints", [&plain, r] {
            si::Workload wl = plain.workload(r);
            si::annotateStallHints(wl.program);
            return wl;
        });
    }
    std::vector<OrderColumns> columns;
    for (const OrderPoint &o : orders) {
        si::bench::Grid &grid =
            o.order == si::DivergeOrder::HintStallFirst ? hinted : plain;
        base.divergeOrder = o.order;
        columns.emplace_back(&grid, grid.column(o.label, base));
        grid.column(std::string(o.label) + " SI",
                    si::withSi(base, si::bestSiConfigPoint()));
    }
    plain.run();
    hinted.run();
    return columns;
}

} // namespace

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    si::bench::BenchJson bj("ablation_exec_order", argc, argv);

    // ---- experiment 1: the skewed kernel, four warps on one SM ----
    // The fall-through side of "@P0 BRA mathSide" carries the loads,
    // so TakenFirst models the unlucky order.
    si::bench::Grid skewed_plain(bj), skewed_hinted(bj);
    skewed_plain.row("skewed", [] {
        si::Workload wl;
        wl.program = si::assembleOrDie(skewed);
        wl.launch = {4, 1};
        wl.memory = std::make_shared<si::Memory>();
        return wl;
    });
    si::GpuConfig one_sm = bj.baseline();
    one_sm.numSms = 1;
    const std::vector<OrderColumns> skewed_columns =
        runOrders(skewed_plain, skewed_hinted, one_sm);

    si::TablePrinter t1("Ablation: skewed two-subwarp kernel "
                        "(loads on the fall-through side)");
    t1.header({"diverge order", "baseline cycles", "SI cycles",
               "speedup"});
    for (std::size_t i = 0; i < std::size(orders); ++i) {
        const auto &[grid, b] = skewed_columns[i];
        for (std::size_t r : grid->rows()) {
            t1.row({orders[i].label,
                    std::to_string(grid->result(r, b).cycles),
                    std::to_string(grid->result(r, b + 1).cycles),
                    si::TablePrinter::pct(grid->speedup(r, b, b + 1))});
        }
    }
    t1.print();

    // ---- experiment 2: the application suite ----
    si::bench::Grid plain(bj), hinted(bj);
    plain.apps();
    const std::vector<OrderColumns> app_columns =
        runOrders(plain, hinted, bj.baseline());

    si::TablePrinter t2("Ablation: mean app speedup by diverge order "
                        "(Both,N>=0.5, lat=600)");
    t2.header({"diverge order", "mean speedup"});
    for (std::size_t i = 0; i < std::size(orders); ++i) {
        const auto &[grid, b] = app_columns[i];
        const double m = si::mean(grid->speedups(b, b + 1));
        t2.row({orders[i].label, si::TablePrinter::pct(m)});
        bj.metric(std::string("mean_speedup_pct/") + orders[i].label, m);
    }
    t2.print();

    bj.table(t1);
    bj.table(t2);
    return bj.finish() ? 0 : 1;
}
