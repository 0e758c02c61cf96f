/**
 * @file
 * The benchmark's three workloads. Each is split in two steps: a pure
 * function of the seed that generates the inputs (camera offsets, chain
 * shapes, data values), and a SuiteBuilder that turns only those inputs
 * into ready-to-simulate cells; running it is the timed set-up. Seed 0
 * reproduces the calibrated inputs: the app profiles of rt/apps.cc,
 * the kernels/memlat.sasm chain shape, and the Figure 11
 * microbenchmark defaults.
 */

#ifndef PERFBENCH_SUITES_HH
#define PERFBENCH_SUITES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "probe.hh"
#include "rt/workload.hh"

namespace perfbench {

/** One simulation of the sweep: a workload under one configuration. */
struct Cell
{
    std::string label;
    std::size_t workload = 0; ///< index into Suite::workloads
    si::GpuConfig config;     ///< rtc is installed from the workload
    bool sampled = false;     ///< run with a MetricsSampler attached
    std::size_t bare = 0;     ///< sampled cells: the same run unsampled
    int app = -1;             ///< rt-sweep: app index (accuracy line)
    int point = -1;           ///< rt-sweep: SI point, -1 = baseline
};

/** Built inputs of one workload. */
struct Suite
{
    std::vector<si::Workload> workloads;
    std::vector<Cell> cells;
};

/**
 * Cycles per MetricsSampler window in sampled cells: the interval the
 * repo's swsim --metrics-interval tests run (tools/CMakeLists.txt).
 */
inline constexpr si::Cycle samplerInterval = 100;

/** Builds a Suite from already-generated inputs, recording set-up spans. */
using SuiteBuilder = std::function<Suite(Tracer *)>;

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Generate @p workload's inputs from @p seed and return the
 * SuiteBuilder that consumes them. Throws std::invalid_argument on an
 * unknown name.
 */
SuiteBuilder makeSuiteBuilder(const std::string &workload,
                              std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_SUITES_HH
