/**
 * @file
 * Experiment runner: applies a GPU configuration to a Workload (with a
 * fresh copy of its memory image), and enumerates the paper's six SI
 * configurations ({SOS, Both} x {N=1, N>=0.5, N>0}) plus helpers for
 * speedups and means.
 */

#ifndef SI_HARNESS_RUNNER_HH
#define SI_HARNESS_RUNNER_HH

#include <string>
#include <vector>

#include "rt/workload.hh"

namespace si {

namespace cli {
class Parser;
}

/** One point in the paper's SI configuration sweep (Figure 12a). */
struct SiConfigPoint
{
    const char *label; ///< e.g. "Both,N>=0.5"
    bool yield;        ///< false = SOS (switch-on-stall only)
    SelectTrigger trigger;
};

/** The six configurations of Figure 12a/13, in the paper's order. */
const std::vector<SiConfigPoint> &siConfigPoints();

/** The single best setting the paper reports (Both, N >= 0.5). */
const SiConfigPoint &bestSiConfigPoint();

/** The paper's Turing-like baseline configuration (Table I). */
GpuConfig baselineConfig();

/** Baseline config at a given L1 miss latency. */
GpuConfig baselineConfig(Cycle l1_miss_latency);

/** What swsim's and swprof's shared machine-model options set. */
struct MachineOptions
{
    GpuConfig config;
    unsigned warps = 4; ///< warps to launch
    bool hints = false; ///< run the static stall-hint pass first
};

/**
 * Register the machine-model rows (--warps --lat --si --yield --trigger
 * --tst --sms --slots --mshrs --hints --sched), writing into @p m.
 */
void addMachineOptions(cli::Parser &parser, MachineOptions &m);

/** Apply an SI point to a baseline config. */
GpuConfig withSi(GpuConfig config, const SiConfigPoint &point);

/**
 * Dynamic Warp Subdivision comparator config (Related Work VII-B):
 * stall-point interleaving gated by free warp slots instead of a TST,
 * with no subwarp switch latency.
 */
GpuConfig withDws(GpuConfig config);

/**
 * Simulate @p workload under @p config. The workload's memory image is
 * copied and its RT-core parameters are installed, so repeated runs are
 * independent and deterministic.
 */
GpuResult runWorkload(const Workload &workload, GpuConfig config);

/** One sweep point from the fault-tolerant runners. */
struct RunOutcome
{
    std::string name;   ///< workload name
    GpuResult result;   ///< status + whatever statistics accumulated
    double wallSeconds = 0;

    bool ok() const { return result.ok(); }
};

/**
 * Like runWorkload(), but never aborts the process and never lets an
 * exception escape: simulator errors (deadlock, livelock, invariant
 * violations, bad configs) come back classified in the outcome's
 * GpuResult::status. A nonzero @p wall_timeout_sec installs a
 * cancellation hook that fails the run with ErrorKind::WallClock once
 * the budget is spent.
 */
RunOutcome runWorkloadSafe(const Workload &workload, GpuConfig config,
                           double wall_timeout_sec = 0);

/**
 * Sweep @p suite under @p config with skip-and-record semantics: a
 * workload that deadlocks, livelocks, or exceeds @p per_run_timeout_sec
 * is recorded as failed and the sweep moves on, so one sick kernel
 * cannot take down the table for the healthy ones.
 *
 * @p jobs workloads run concurrently (1 = the serial path, 0 = all
 * cores). Results are collected by suite index and failure warnings are
 * emitted in suite order, so the outcome vector and the log stream are
 * byte-identical at any jobs value.
 */
std::vector<RunOutcome> runSuiteSafe(const std::vector<Workload> &suite,
                                     const GpuConfig &config,
                                     double per_run_timeout_sec = 0,
                                     unsigned jobs = 1);

/** Percent speedup of @p test over @p base (positive = faster). */
double speedupPct(const GpuResult &base, const GpuResult &test);

/** Arithmetic mean. */
double mean(const std::vector<double> &xs);

} // namespace si

#endif // SI_HARNESS_RUNNER_HH
