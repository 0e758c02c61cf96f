/**
 * @file
 * Shared helpers for the per-figure bench binaries: the si-bench-v1
 * recorder and option table every binary starts with, and the Grid
 * that runs a set of workloads across a set of configurations.
 */

#ifndef SI_BENCH_COMMON_HH
#define SI_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
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
     * @param more registers the binary's own option rows (fig12a's
     * --campaign-state, fig12b's --metrics-out) after the shared ones.
     */
    BenchJson(std::string bench, int argc, char **argv,
              const std::function<void(cli::Parser &)> &more = {})
        : bench_(std::move(bench))
    {
        cli::Parser cli(bench_, "[options]");
        cli.text("--json", path_, "FILE",
                 "also write the si-bench-v1 document; - is stdout")
            .jobs(jobs_)
            .fastForward(fast_forward_);
        if (more)
            more(cli);
        if (const std::optional<int> status = cli.parse(argc, argv))
            std::exit(*status);
    }

    /**
     * Worker threads for the sweep (--jobs N; 0 means all cores; the
     * default is 1, the serial path). Output is byte-identical at any
     * value — the engine collects by cell index, not completion order.
     */
    unsigned jobs() const { return parallel::resolveJobs(jobs_); }

    /**
     * The paper's baseline at L1 miss latency @p lat, with
     * --fast-forward[=off] applied: the one config every bench derives
     * its configurations from. Tables and metrics are bit-identical
     * either way; the off switch exists so CI can time the faithful
     * core and cross-validate that contract.
     */
    GpuConfig
    baseline(Cycle lat = 600) const
    {
        GpuConfig config = baselineConfig(lat);
        config.fastForward = fast_forward_;
        return config;
    }

    /** Record that a sweep dropped a row: finish() then fails. */
    void fail() { failed_ = true; }

    /** Record a printed table (serialized immediately). */
    void table(const TablePrinter &t) { tables_.push_back(t.json()); }

    /** Record a headline scalar, e.g. the figure's mean speedup. */
    void
    metric(const std::string &name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    /**
     * Write the document if --json was given. True when that write
     * succeeded and no sweep dropped a row.
     */
    bool
    finish() const
    {
        if (path_.empty())
            return !failed_;
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
        return cli::writeOutput(path_, w.take(), bench_) && !failed_;
    }

  private:
    std::string bench_;
    std::string path_;
    unsigned jobs_ = 1;
    bool fast_forward_ = true;
    bool failed_ = false;
    std::vector<std::string> tables_; ///< pre-serialized JSON objects
    std::vector<std::pair<std::string, double>> metrics_;
};

/**
 * One sweep: named rows (workloads) x named columns (configurations),
 * one GpuResult per cell. Each row is built once, in parallel, when the
 * grid runs; each column is simulated once per row, so a baseline that
 * several comparisons share is declared, and run, once.
 *
 * Cells run on --jobs workers and are delivered in (row, column) order,
 * so the stderr notes and every table rendered from the results are
 * byte-identical at any jobs value. Failure policy: a row with any
 * failed cell is dropped from rows() — and so from every table and
 * mean — with a `[SKIPPED row: column: reason]` note, and the
 * BenchJson's finish() then fails.
 */
class Grid
{
  public:
    using Build = std::function<Workload()>;
    using Simulate =
        std::function<GpuResult(const Workload &, const GpuConfig &)>;

    explicit Grid(BenchJson &bj) : bj_(bj) {}

    /** Declare a row; @p build runs when the grid does. */
    void
    row(std::string name, Build build)
    {
        rows_.emplace_back(std::move(name), std::move(build));
    }

    /**
     * One row per trace of the suite, in figure order, launched with
     * @p warps warps (0 = each app's calibrated launch).
     */
    void
    apps(unsigned warps = 0)
    {
        for (AppId id : allApps()) {
            row(appName(id), [id, warps] {
                return warps ? buildApp(id, warps) : buildApp(id);
            });
        }
    }

    /** Declare a column. @return its index. */
    std::size_t
    column(std::string label, GpuConfig config)
    {
        columns_.emplace_back(std::move(label), std::move(config));
        return columns_.size() - 1;
    }

    /** What one cell runs (default runWorkload); tests wrap it. */
    void simulateWith(Simulate simulate) { simulate_ = std::move(simulate); }

    /** Build every row and simulate every cell in this process. */
    void
    run()
    {
        build();
        const std::size_t ncols = columns_.size();
        std::string failure; // first failed cell of the current row
        results_ = parallel::mapIndexed<GpuResult>(
            bj_.jobs(), rows_.size() * ncols,
            [&](std::size_t k) {
                return simulate_(workloads_[k / ncols],
                                 columns_[k % ncols].second);
            },
            [&](std::size_t k, const GpuResult &r) {
                if (!r.ok() && failure.empty()) {
                    failure = columns_[k % ncols].first + ": " +
                              r.status.summary();
                }
                if (k % ncols + 1 == ncols) {
                    settle(k / ncols, failure);
                    failure.clear();
                }
            });
    }

    /**
     * run() as a crash-resumable campaign: every cell runs under the
     * campaign runner (wall budgets, retries, auto-checkpoints) with its
     * si-campaign-v1 manifest in @p dir; rerun with @p resume to finish
     * an interrupted campaign without re-simulating its terminal cells.
     * --jobs children run at once. The manifest records only cycle
     * counts, so the results carry cycles alone — enough for speedups.
     */
    void
    runCampaign(const std::string &dir, bool resume)
    {
        build();
        CampaignOptions opts;
        opts.stateDir = dir;
        opts.resume = resume;
        opts.jobs = bj_.jobs();
        CampaignRunner runner(workloads_, columns_, opts);
        CampaignReport report;
        try {
            report = runner.run();
        } catch (const SimError &e) {
            std::fprintf(stderr, "campaign failed: %s\n",
                         e.status().summary().c_str());
            std::exit(1);
        }
        std::fprintf(stderr,
                     "  [campaign: %u done, %u failed; manifest %s]\n",
                     report.numDone(), report.numFailed(),
                     report.manifestPath.c_str());

        // Cells are recorded row-major, like results_.
        results_.assign(report.cells.size(), GpuResult{});
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            std::string failure;
            for (std::size_t c = 0; c < columns_.size(); ++c) {
                const std::size_t k = r * columns_.size() + c;
                const CampaignCellRecord &cell = report.cells[k];
                results_[k].cycles = cell.cycles;
                if (!cell.done() && failure.empty()) {
                    failure = cell.configLabel + ": " + cell.detail +
                              " [" + cell.diagnosis + "]";
                }
            }
            settle(r, failure);
        }
    }

    std::size_t numRows() const { return rows_.size(); }

    /** Rows every cell of which ran, in declaration order. */
    const std::vector<std::size_t> &rows() const { return healthy_; }

    const std::string &name(std::size_t row) const { return rows_[row].first; }

    /** The row's built workload (valid once the grid has run). */
    const Workload &workload(std::size_t row) const { return workloads_[row]; }

    const GpuResult &
    result(std::size_t row, std::size_t col) const
    {
        return results_[row * columns_.size() + col];
    }

    /** Percent speedup of column @p test over column @p base. */
    double
    speedup(std::size_t row, std::size_t base, std::size_t test) const
    {
        return speedupPct(result(row, base), result(row, test));
    }

    /**
     * The paper's BestOf: the highest speedup(row, base, c) over the
     * @p n columns after @p base, or 0 when none is positive.
     */
    double
    bestOf(std::size_t row, std::size_t base, std::size_t n) const
    {
        double best = 0.0;
        for (std::size_t c = base + 1; c <= base + n; ++c)
            best = std::max(best, speedup(row, base, c));
        return best;
    }

    /** @p value of each of rows(), in order. */
    std::vector<double>
    perRow(const std::function<double(std::size_t row)> &value) const
    {
        std::vector<double> out;
        for (std::size_t r : healthy_)
            out.push_back(value(r));
        return out;
    }

    /** speedup(row, base, test) for each of rows(). */
    std::vector<double>
    speedups(std::size_t base, std::size_t test) const
    {
        return perRow([&](std::size_t r) { return speedup(r, base, test); });
    }

    /**
     * Add one line per healthy row to @p t — the row's name, then its
     * entry in each of @p cols (perRow() vectors) as a percentage —
     * and a closing "mean" line. @return the column means.
     */
    std::vector<double>
    pctRows(TablePrinter &t,
            const std::vector<std::vector<double>> &cols) const
    {
        for (std::size_t i = 0; i < healthy_.size(); ++i) {
            std::vector<std::string> line = {name(healthy_[i])};
            for (const auto &c : cols)
                line.push_back(TablePrinter::pct(c[i]));
            t.row(line);
        }
        std::vector<double> means;
        std::vector<std::string> line = {"mean"};
        for (const auto &c : cols) {
            means.push_back(mean(c));
            line.push_back(TablePrinter::pct(means.back()));
        }
        t.row(line);
        return means;
    }

  private:
    void
    build()
    {
        healthy_.clear();
        workloads_ = parallel::mapIndexed<Workload>(
            bj_.jobs(), rows_.size(), [&](std::size_t r) {
                Workload wl = rows_[r].second();
                wl.name = rows_[r].first;
                return wl;
            });
    }

    /** Keep row @p r, or drop it when @p failure names a failed cell. */
    void
    settle(std::size_t r, const std::string &failure)
    {
        if (failure.empty()) {
            healthy_.push_back(r);
            std::fprintf(stderr, "  [swept %s]\n", name(r).c_str());
            return;
        }
        std::fprintf(stderr, "  [SKIPPED %s: %s]\n", name(r).c_str(),
                     failure.c_str());
        bj_.fail();
    }

    BenchJson &bj_;
    std::vector<std::pair<std::string, Build>> rows_;
    std::vector<std::pair<std::string, GpuConfig>> columns_;
    Simulate simulate_ = [](const Workload &wl, const GpuConfig &config) {
        return runWorkload(wl, config);
    };
    std::vector<Workload> workloads_;
    std::vector<GpuResult> results_;
    std::vector<std::size_t> healthy_;
};

} // namespace si::bench

#endif // SI_BENCH_COMMON_HH
