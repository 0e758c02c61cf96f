/**
 * @file
 * Figure 12a: per-trace speedup of Subwarp Interleaving over baseline
 * at a fixed L1 miss latency of 600 cycles, across the six
 * configurations {SOS, Both} x {N=1, N>=0.5, N>0}, plus BestOf.
 *
 * Paper shape: mean speedup ~6.3% for the best single setting
 * (Both,N>=0.5); BFV traces near the top (up to ~20%), Coll traces
 * near zero; BestOf mean ~6.6%.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    si::verboseLogging = false;
    std::string campaign_dir;
    bool campaign_resume = false;
    si::bench::BenchJson bj(
        "fig12a_speedup", argc, argv, [&](si::cli::Parser &cli) {
            cli.text("--campaign-state", campaign_dir, "DIR",
                     "run the sweep as a crash-resumable campaign with "
                     "its si-campaign-v1 manifest in DIR")
                .flag("--campaign-resume", campaign_resume,
                      "continue the campaign recorded in DIR");
        });
    const auto &points = si::siConfigPoints();

    si::bench::Grid grid(bj);
    grid.apps();
    const std::size_t base = grid.column("baseline", bj.baseline());
    for (const auto &pt : points)
        grid.column(pt.label, si::withSi(bj.baseline(), pt));
    if (campaign_dir.empty())
        grid.run();
    else
        grid.runCampaign(campaign_dir, campaign_resume);

    si::TablePrinter t("Figure 12a: speedup over baseline (lat=600)");
    std::vector<std::string> hdr = {"trace"};
    for (const auto &pt : points)
        hdr.push_back(pt.label);
    hdr.push_back("BestOf");
    t.header(hdr);

    std::vector<std::vector<double>> cols;
    for (std::size_t i = 0; i < points.size(); ++i)
        cols.push_back(grid.speedups(base, base + 1 + i));
    cols.push_back(grid.perRow([&](std::size_t r) {
        return grid.bestOf(r, base, points.size());
    }));
    const std::vector<double> means = grid.pctRows(t, cols);
    t.print();

    bj.table(t);
    for (std::size_t i = 0; i < points.size(); ++i) {
        bj.metric(std::string("mean_speedup_pct/") + points[i].label,
                  means[i]);
    }
    bj.metric("mean_speedup_pct/BestOf", means.back());
    return bj.finish() ? 0 : 1;
}
