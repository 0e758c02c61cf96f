/**
 * @file
 * Shared helpers for the per-figure bench binaries: run an application
 * suite across SI configurations once and reuse the results.
 */

#ifndef SI_BENCH_COMMON_HH
#define SI_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "harness/campaign.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "parallel/executor.hh"
#include "rt/apps.hh"

namespace si::bench {

/**
 * Machine-readable bench output ("si-bench-v1"). Every bench binary
 * constructs one of these from argv, records each table it prints
 * (table()) plus headline scalars (metric()), and ends with
 * `return bj.finish() ? 0 : 1;`. Without --json FILE on the command
 * line the recorder is inert and the binary behaves exactly as before.
 * CI validates the document against tools/bench_schema.json.
 */
class BenchJson
{
  public:
    /**
     * @param campaign_capable benches that route their sweep through the
     * crash-resumable campaign runner pass true to additionally accept
     * --campaign-state DIR and --campaign-resume.
     * @param metrics_capable benches that export per-config si-stats-v1
     * documents (swprof --diff inputs) pass true to additionally accept
     * --metrics-out PREFIX.
     */
    BenchJson(std::string bench, int argc, char **argv,
              bool campaign_capable = false, bool metrics_capable = false)
        : bench_(std::move(bench))
    {
        cli::Parser cli(bench_, "[options]");
        cli.text("--json", path_, "FILE",
                 "also write the si-bench-v1 document; - is stdout")
            .jobs(jobs_)
            .fastForward(fast_forward_);
        if (campaign_capable) {
            cli.text("--campaign-state", campaign_dir_, "DIR",
                     "run the sweep as a crash-resumable campaign with its "
                     "si-campaign-v1 manifest in DIR")
                .flag("--campaign-resume", campaign_resume_,
                      "continue the campaign recorded in DIR");
        }
        if (metrics_capable) {
            cli.text("--metrics-out", metrics_out_, "PREFIX",
                     "write each app's si-stats-v1 documents, SI off and "
                     "on, to PREFIX_<app>_base.json and PREFIX_<app>_si.json");
        }
        if (const std::optional<int> status = cli.parse(argc, argv))
            std::exit(*status);
    }

    /**
     * Worker threads for the sweep (--jobs N; 0 means all cores; the
     * default is 1, the serial path). Output is byte-identical at any
     * value — the engine collects by cell index, not completion order.
     */
    unsigned jobs() const { return parallel::resolveJobs(jobs_); }

    /** Campaign state directory ("" = run the sweep in-process). */
    const std::string &campaignDir() const { return campaign_dir_; }

    /** Continue the campaign recorded in campaignDir(). */
    bool campaignResume() const { return campaign_resume_; }

    /** Prefix for per-config si-stats-v1 exports ("" = none). */
    const std::string &metricsOut() const { return metrics_out_; }

    /**
     * Event-driven fast-forward (--fast-forward[=off], default on).
     * Bit-identical tables/metrics either way; the off switch exists so
     * CI can time the faithful core and cross-validate that contract.
     * Benches apply it via `cfg.fastForward = bj.fastForward()`.
     */
    bool fastForward() const { return fast_forward_; }

    /** Record a printed table (serialized immediately). */
    void table(const TablePrinter &t) { tables_.push_back(t.json()); }

    /** Record a headline scalar, e.g. the figure's mean speedup. */
    void
    metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /** Write the document if --json was given. True on success. */
    bool
    finish() const
    {
        if (path_.empty())
            return true;
        json::Writer w;
        w.beginObject();
        w.key("schema").value("si-bench-v1");
        w.key("bench").value(bench_);
        w.key("tables").beginArray();
        for (const auto &t : tables_)
            w.raw(t);
        w.endArray();
        w.key("metrics").beginObject();
        for (const auto &m : metrics_)
            w.key(m.first).value(m.second);
        w.endObject();
        w.endObject();
        return cli::writeOutput(path_, w.take(), bench_);
    }

  private:
    std::string bench_;
    std::string path_;
    unsigned jobs_ = 1;
    std::string campaign_dir_;
    bool campaign_resume_ = false;
    std::string metrics_out_;
    bool fast_forward_ = true;
    std::vector<std::string> tables_; ///< pre-serialized JSON objects
    std::vector<std::pair<std::string, double>> metrics_;
};

/** Baseline + all six SI configurations for one workload. */
struct AppSweep
{
    std::string name;
    GpuResult base;
    std::vector<GpuResult> si; ///< indexed like siConfigPoints()

    /** First failure status across the points ("" when all ran). */
    std::string failure;

    bool ok() const { return failure.empty(); }

    double
    speedupOf(std::size_t config_idx) const
    {
        return speedupPct(base, si[config_idx]);
    }

    double
    bestOf() const
    {
        double best = 0.0;
        for (std::size_t i = 0; i < si.size(); ++i)
            best = std::max(best, speedupOf(i));
        return best;
    }
};

/** Run one workload through baseline + the six SI points. */
inline AppSweep
sweepWorkload(const Workload &wl, const GpuConfig &base_config)
{
    AppSweep s;
    s.name = wl.name;
    s.base = runWorkload(wl, base_config);
    if (!s.base.ok())
        s.failure = "base: " + s.base.status.summary();
    for (const auto &pt : siConfigPoints()) {
        s.si.push_back(runWorkload(wl, withSi(base_config, pt)));
        if (!s.si.back().ok() && s.failure.empty()) {
            s.failure = std::string(pt.label) + ": " +
                        s.si.back().status.summary();
        }
    }
    return s;
}

/**
 * Run the full ten-trace suite at one baseline config. An app whose run
 * fails is skipped (with a note) rather than aborting the sweep, so the
 * table still comes out for the healthy apps.
 *
 * @p jobs sweep cells (one cell = one app at one config point) run
 * concurrently (1 = serial, 0 = all cores). Results are keyed by cell
 * index and the per-app progress notes stream in app order, so stderr
 * and the returned sweeps are byte-identical at any jobs value.
 */
inline std::vector<AppSweep>
sweepAllApps(const GpuConfig &base_config, unsigned jobs = 1)
{
    const std::vector<AppId> &ids = allApps();
    const std::vector<SiConfigPoint> &points = siConfigPoints();
    const std::size_t per_app = 1 + points.size();

    // Phase 1: scene/trace generation, one cell per app.
    const std::vector<Workload> apps = parallel::mapIndexed<Workload>(
        jobs, ids.size(),
        [&](std::size_t i) { return buildApp(ids[i]); });

    // Phase 2: app x {baseline + SI points} simulation cells. The
    // in-order sink assembles each AppSweep and emits its progress note
    // as soon as the app's last cell has been delivered.
    std::vector<AppSweep> sweeps(ids.size());
    parallel::mapIndexed<GpuResult>(
        jobs, ids.size() * per_app,
        [&](std::size_t k) {
            const Workload &wl = apps[k / per_app];
            const std::size_t p = k % per_app;
            return runWorkload(wl, p == 0 ? base_config
                                          : withSi(base_config,
                                                   points[p - 1]));
        },
        [&](std::size_t k, const GpuResult &r) {
            AppSweep &s = sweeps[k / per_app];
            const std::size_t p = k % per_app;
            if (p == 0) {
                s.name = apps[k / per_app].name;
                s.base = r;
                if (!r.ok())
                    s.failure = "base: " + r.status.summary();
            } else {
                s.si.push_back(r);
                if (!r.ok() && s.failure.empty()) {
                    s.failure = std::string(points[p - 1].label) + ": " +
                                r.status.summary();
                }
            }
            if (p + 1 < per_app)
                return;
            if (s.ok())
                std::fprintf(stderr, "  [swept %s]\n", s.name.c_str());
            else
                std::fprintf(stderr, "  [SKIPPED %s: %s]\n",
                             s.name.c_str(), s.failure.c_str());
        });

    std::vector<AppSweep> out;
    for (AppSweep &s : sweeps) {
        if (s.ok())
            out.push_back(std::move(s));
    }
    return out;
}

/**
 * Crash-resumable variant of sweepAllApps: the same suite x {baseline +
 * six SI points} grid, but every cell runs in a forked child under the
 * campaign runner — wall budgets, retries, auto-checkpoints, and an
 * si-campaign-v1 manifest in @p state_dir. Kill the bench at any
 * instant and rerun with @p resume to finish the remaining cells;
 * terminal cells are adopted, not re-simulated. Speedup math needs only
 * cycle counts, which the manifest records, so the rebuilt sweeps feed
 * the same table code as the in-process path. An app with any failed
 * cell is skipped with a note, like sweepAllApps.
 *
 * @p jobs > 1 switches the campaign to its in-process thread-pool mode
 * (CampaignOptions::inProcessJobs) — same grid and manifest, no fork
 * isolation; jobs <= 1 keeps the fork-per-cell path.
 */
inline std::vector<AppSweep>
sweepAllAppsCampaign(const GpuConfig &base_config,
                     const std::string &state_dir, bool resume,
                     unsigned jobs = 1)
{
    std::vector<Workload> suite;
    for (AppId id : allApps())
        suite.push_back(buildApp(id));

    std::vector<std::pair<std::string, GpuConfig>> configs;
    configs.emplace_back("baseline", base_config);
    for (const auto &pt : siConfigPoints())
        configs.emplace_back(pt.label, withSi(base_config, pt));

    CampaignOptions opts;
    opts.stateDir = state_dir;
    opts.resume = resume;
    opts.inProcessJobs = jobs > 1 ? jobs : 0;
    CampaignRunner runner(std::move(suite), std::move(configs), opts);
    const CampaignReport report = runner.run();
    std::fprintf(stderr, "  [campaign: %u done, %u failed; manifest %s]\n",
                 report.numDone(), report.numFailed(),
                 report.manifestPath.c_str());

    std::vector<AppSweep> out;
    for (AppId id : allApps()) {
        const std::string name = buildApp(id).name;
        AppSweep s;
        s.name = name;
        for (const CampaignCellRecord &cell : report.cells) {
            if (cell.workload != name)
                continue;
            if (!cell.done()) {
                if (s.failure.empty()) {
                    s.failure = cell.configLabel + ": " + cell.detail +
                                " [" + cell.diagnosis + "]";
                }
                continue;
            }
            GpuResult r;
            r.cycles = cell.cycles;
            if (cell.configLabel == "baseline")
                s.base = r;
            else
                s.si.push_back(r);
        }
        if (!s.ok() || s.si.size() != siConfigPoints().size()) {
            std::fprintf(stderr, "  [SKIPPED %s: %s]\n", s.name.c_str(),
                         s.failure.empty() ? "incomplete cells"
                                           : s.failure.c_str());
            continue;
        }
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace si::bench

#endif // SI_BENCH_COMMON_HH
