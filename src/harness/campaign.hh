/**
 * @file
 * Crash-resumable campaign runner. A campaign is the cross product of a
 * workload suite and a set of named configurations; each cell runs in a
 * forked child process so that a crash, livelock, or runaway cell can
 * never take the parent down. The parent keeps up to `jobs` children
 * running, enforces a wall-clock budget per child (SIGKILL on overrun),
 * retries transiently-failed cells with backoff, and rewrites a
 * resumable JSON manifest ("si-campaign-v1") after every cell, so a
 * campaign killed at any instant — parent included — resumes with
 * --resume and finishes with the same report an uninterrupted campaign
 * produces.
 *
 * Graceful degradation: a cell that exhausts its retries is recorded as
 * failed with the detector that flagged it (errorDetectorName) and the
 * path of its last auto-checkpoint, so a human can resume and diagnose
 * that exact machine state offline.
 */

#ifndef SI_HARNESS_CAMPAIGN_HH
#define SI_HARNESS_CAMPAIGN_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "fault/injector.hh"
#include "harness/runner.hh"

namespace si {

/** Durable record of one campaign cell (workload x configuration). */
struct CampaignCellRecord
{
    std::string workload;
    std::string configLabel;

    /** "pending" | "done" | "failed". */
    std::string state = "pending";

    /** Child processes launched for this cell so far. */
    unsigned attempts = 0;

    /** Final (or latest) classification. */
    ErrorKind kind = ErrorKind::None;

    /** Status message of the last attempt ("" when ok). */
    std::string detail;

    /** Which detector flagged the failure ("" when ok). */
    std::string diagnosis;

    /** Kernel runtime of the successful run (0 otherwise). */
    Cycle cycles = 0;

    /** Last auto-checkpoint the cell wrote ("" when none exists). */
    std::string checkpoint;

    bool done() const { return state == "done"; }
    bool failed() const { return state == "failed"; }
};

/**
 * Child-side config mutation, applied after the cell's base config and
 * before the machine is built; @p attempt counts from 1.
 */
using ChildConfigHook = std::function<void(
    GpuConfig &, const CampaignCellRecord &, unsigned attempt)>;

/** Campaign policy knobs. */
struct CampaignOptions
{
    /** Directory for the manifest, per-cell results, and checkpoints. */
    std::string stateDir = "campaign-state";

    /** Wall-clock budget per child attempt; 0 = unlimited. */
    double cellTimeoutSec = 0;

    /** Retries after the first attempt of a transiently-failed cell. */
    unsigned maxRetries = 2;

    /** Auto-checkpoint period in cycles inside each child; 0 = off. */
    std::uint64_t checkpointEvery = 0;

    /** Adopt done/failed cells from an existing manifest and continue. */
    bool resume = false;

    /** Stop after this many cells have executed (0 = no cap). Used to
     *  force a mid-campaign restart in soak tests. */
    unsigned maxCellsThisRun = 0;

    /** Widens the transient classification (errorKindIsTransient): a
     *  livelock under fault injection is the injector working, so it
     *  earns a retry instead of a permanent failure. */
    bool faultInjectionActive = false;

    /**
     * Children running at once (0 = all cores). Results are committed
     * by cell index, so the final manifest is byte-identical at any
     * value; 1 runs the attempts in the serial order.
     */
    unsigned jobs = 1;

    /**
     * Applied in the child. The chaos tests use it to plant in-child
     * fault hooks (e.g. SIGKILL at a seeded cycle).
     */
    ChildConfigHook childConfigHook;
};

/**
 * Soak hook: inject @p kind from cycle @p at into every cell's first
 * attempt, seeded by the cell's identity so each cell gets its own
 * fault site whatever order the cells run in. The retry runs clean.
 */
ChildConfigHook faultFirstAttempt(FaultKind kind, Cycle at);

/** Outcome of one CampaignRunner::run() invocation. */
struct CampaignReport
{
    std::vector<CampaignCellRecord> cells;

    /** True when no cell is left pending. */
    bool complete = false;

    /** Cells executed (not adopted/skipped) by this invocation. */
    unsigned cellsRun = 0;

    /** Where the manifest lives. */
    std::string manifestPath;

    unsigned
    numDone() const
    {
        unsigned n = 0;
        for (const auto &c : cells)
            n += c.done() ? 1 : 0;
        return n;
    }

    unsigned
    numFailed() const
    {
        unsigned n = 0;
        for (const auto &c : cells)
            n += c.failed() ? 1 : 0;
        return n;
    }
};

/**
 * The runner. Construct with the suite and the named configurations,
 * then call run() — repeatedly, across process restarts, with
 * options.resume = true — until the report says complete.
 */
class CampaignRunner
{
  public:
    CampaignRunner(std::vector<Workload> suite,
                   std::vector<std::pair<std::string, GpuConfig>> configs,
                   CampaignOptions options);

    /**
     * Execute (or continue) the campaign. Throws SimError when the state
     * directory cannot be created (ErrorKind::Config) or the manifest
     * cannot be written (ErrorKind::Snapshot).
     */
    CampaignReport run();

    /** Serialize a report as an "si-campaign-v1" manifest document. */
    static std::string manifestJson(const CampaignReport &report);

    /**
     * Parse an "si-campaign-v1" manifest. @return false (with
     * @p error set) when the document is malformed.
     */
    static bool parseManifest(const std::string &text,
                              CampaignReport &out, std::string &error);

  private:
    /** Fork a child running the next attempt of @p rec. */
    pid_t launchAttempt(CampaignCellRecord &rec, const Workload &workload,
                        const GpuConfig &config);

    /** Record how the attempt ended from its wait status. */
    void classifyAttempt(CampaignCellRecord &rec, int wstatus,
                         bool timed_out) const;

    /** Settle a classified attempt. @return true when @p rec is
     *  terminal, false when it earned a retry. */
    bool settleAttempt(CampaignCellRecord &rec) const;

    /** Never returns: simulate the cell, write its result, _exit. */
    [[noreturn]] void childMain(const CampaignCellRecord &rec,
                                const Workload &workload,
                                GpuConfig config);

    std::string cellStem(const CampaignCellRecord &rec) const;
    std::string checkpointPath(const CampaignCellRecord &rec) const;
    std::string resultPath(const CampaignCellRecord &rec) const;
    void writeManifest(const CampaignReport &report) const;

    std::vector<Workload> suite_;
    std::vector<std::pair<std::string, GpuConfig>> configs_;
    CampaignOptions options_;
};

} // namespace si

#endif // SI_HARNESS_CAMPAIGN_HH
