/**
 * @file
 * Chrome trace_event exporter: turns a TraceEvent stream into a JSON
 * document loadable by Perfetto (ui.perfetto.dev) or chrome://tracing.
 * One process per SM, one track per warp slot; per-instruction slices
 * plus subwarp-residency slices make the interleaving visible — a
 * living version of the paper's Figure 10.
 */

#ifndef SI_TRACING_CHROME_TRACE_HH
#define SI_TRACING_CHROME_TRACE_HH

#include <string>
#include <vector>

#include "trace/events.hh"

namespace si {

class Program;

/**
 * One counter-track sample (Chrome trace_event ph:"C"): at @p cycle the
 * track named @p name takes the given series values. Multiple series in
 * one sample render stacked in Perfetto — that is how the windowed
 * metrics sampler charts its CPI stacks (metrics/sampler.hh produces
 * these via metricsCounterSamples()).
 */
struct CounterSample
{
    std::string name;  ///< counter track ("sm0 ipc", ...)
    unsigned pid = 0;  ///< process (SM) the track belongs to
    Cycle cycle = 0;
    std::vector<std::pair<std::string, double>> values;
};

/**
 * Serialize @p events (chronological) as a Chrome trace_event JSON
 * document. Timestamps are simulator cycles, 1 cycle == 1 us, so
 * Perfetto's time axis reads directly in cycles. When @p prog is
 * given, issue slices are named after the instruction at their pc.
 * @p counters appends counter tracks (ph:"C") under the same timeline,
 * e.g. windowed IPC/stall series from the metrics sampler.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events,
                            const Program *prog = nullptr,
                            const std::vector<CounterSample> &counters = {});

} // namespace si

#endif // SI_TRACING_CHROME_TRACE_HH
