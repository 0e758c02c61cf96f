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
 * copied, so repeated runs are independent and deterministic. The run
 * takes its RT-core shape from Workload::rtc: @p config's rtc is
 * replaced before the config is validated. Given @p checkpoint, the run
 * resumes from that sisnap container (Gpu::runMulti). No simulator
 * error escapes: every one, a workload without a memory image or a
 * corrupt checkpoint included, comes back classified in
 * GpuResult::status, so one sick cell cannot take a sweep down.
 */
GpuResult runWorkload(const Workload &workload, GpuConfig config,
                      const std::string *checkpoint = nullptr);

/** Percent speedup of @p test over @p base (positive = faster). */
double speedupPct(const GpuResult &base, const GpuResult &test);

/** Arithmetic mean. */
double mean(const std::vector<double> &xs);

} // namespace si

#endif // SI_HARNESS_RUNNER_HH
