/**
 * @file
 * Reports over a GpuResult: a gem5-style "stat value" listing per SM
 * and aggregated, its si-stats-v1 JSON form, and the stall-attribution
 * report swprof prints (per-reason, per-pc and per-opcode lost issue
 * slots, text and si-stall-v1 JSON).
 */

#ifndef SI_HARNESS_REPORT_HH
#define SI_HARNESS_REPORT_HH

#include <string>

#include "core/gpu.hh"

namespace si {

/**
 * Render every counter of @p stats under the group name @p name, one
 * "name.key  value" line each: the smStatFields scalars in list order
 * (a stall-reason row expands to one <key>_<reason> line per reason),
 * then the derived ratios. @p norm_cycles overrides the denominator
 * of the fraction ratios (needed for aggregates, whose counters sum
 * over SMs while cycles is the max); 0 uses stats.cycles.
 */
std::string statsReport(const std::string &name, const SmStats &stats,
                        std::uint64_t norm_cycles = 0);

/** Render the aggregate and per-SM statistics of a run. */
std::string statsReport(const GpuResult &result);

/** Optional extras attached to an si-stats-v1 document. */
struct StatsJsonOptions
{
    /**
     * Region-name table (Program::regionNames()) labelling the
     * aggregate per-region counters in the top-level "regions" array;
     * indices beyond the table fall back to "region<i>".
     */
    std::vector<std::string> regionNames;

    /** When true, emit a "trace" object with the sink's drop stats. */
    bool includeTrace = false;
    std::uint64_t traceRecorded = 0;
    std::uint64_t traceDropped = 0;
};

/**
 * Machine-readable run statistics ("si-stats-v1"): run status, cycles,
 * one object per group (aggregate "gpu" first, then per-SM) whose
 * "scalars" and "formulas" are statsReport()'s lines, and the
 * aggregate per-region warp-cycle partition, all with stable key
 * order. swsim --stats-json emits this.
 */
std::string statsJson(const GpuResult &result,
                      const std::string &kernel = "",
                      const StatsJsonOptions &options = {});

/**
 * Stall-attribution report: the per-reason split of lost issue slots,
 * then the top-@p top_n rows of result.stallsByPc per pc and per
 * opcode (folded through prog.at(pc).op). Rows sort by descending
 * total, key ascending on ties. Deterministic (golden-tested).
 */
std::string stallReport(const GpuResult &result, const Program &prog,
                        std::size_t top_n = 10);

/** Machine-readable form of the same data, every row ("si-stall-v1"). */
std::string stallReportJson(const GpuResult &result, const Program &prog);

} // namespace si

#endif // SI_HARNESS_REPORT_HH
