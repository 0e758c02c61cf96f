/**
 * @file
 * Windowed metrics sampler: the in-tree CycleSampler implementation.
 * Every `interval` cycles it snapshots each SM's live statistics and
 * records the delta over the closed window into a per-SM ring buffer,
 * yielding time series of IPC, the Figure-3 stall breakdown, cache hit
 * rates, occupancy, subwarp-mode residency, and per-region (MARKER)
 * attribution — without perturbing the simulation (read-only observer,
 * excluded from the config fingerprint).
 *
 * Exports: si-metrics-v1 JSON, CSV, and Chrome trace counter tracks.
 * Because finish() flushes the open partial window, the field-wise sum
 * of all windows equals the end-of-run SmStats exactly whenever no
 * window was dropped — the invariant `swprof --diff` and the schema
 * validator build on.
 */

#ifndef SI_METRICS_SAMPLER_HH
#define SI_METRICS_SAMPLER_HH

#include <string>
#include <vector>

#include "core/gpu.hh"
#include "trace/chrome_trace.hh"

namespace si {

/** Field-wise difference @p cur - @p prev of every SmStats counter
 *  (regions element-wise; @p cur's region table may be longer). */
SmStats statsDelta(const SmStats &prev, const SmStats &cur);

/** One sampled window: per-SM counter deltas over [start, end). */
struct MetricsWindow
{
    Cycle start = 0;
    Cycle end = 0;
    SmStats delta;
};

/**
 * The windowed sampler. Install via GpuConfig::metricsSampler; the run
 * loop drives onCycle()/finish(). Ring capacity bounds memory: once a
 * per-SM ring is full the oldest window is dropped and counted — the
 * exporters surface the count so consumers know the series is partial.
 *
 * Checkpoint/restore: save()/restore() serialize the complete sampler
 * (baselines, rings, drop counts), so a resumed run's exports are
 * byte-identical to an uninterrupted one's.
 */
class MetricsSampler : public CycleSampler
{
  public:
    /**
     * @param interval cycles per window; 0 = one whole-run window
     *        (finish() still flushes it)
     * @param ring_capacity max windows retained per SM
     */
    explicit MetricsSampler(Cycle interval,
                            std::size_t ring_capacity = 4096);

    void onCycle(const Gpu &gpu, Cycle now) override;
    void finish(const Gpu &gpu, Cycle now) override;
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

    /**
     * Window edges are leap barriers: the fast-forward engine may skip
     * any cycle where onCycle() is a no-op, but must execute the next
     * interval multiple so the window closes on live state. With
     * interval 0 (one whole-run window) there is no edge to protect.
     */
    Cycle horizonPin(Cycle now) const override;

    Cycle interval() const { return interval_; }
    unsigned numSms() const { return unsigned(sms_.size()); }
    unsigned warpSlotsPerSm() const { return warpSlotsPerSm_; }

    const std::vector<MetricsWindow> &
    windows(unsigned sm) const
    {
        return sms_[sm].ring;
    }

    /** Windows evicted from @p sm's ring (series incomplete if > 0). */
    std::uint64_t dropped(unsigned sm) const { return sms_[sm].dropped; }

    /** Total dropped windows across SMs. */
    std::uint64_t droppedTotal() const;

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    struct PerSm
    {
        SmStats prev; ///< baseline at the last sample point
        std::vector<MetricsWindow> ring;
        std::uint64_t dropped = 0;
    };

    void sampleAll(const Gpu &gpu, Cycle now);

    Cycle interval_;
    std::size_t cap_;
    Cycle lastSampleCycle_ = 0;
    unsigned warpSlotsPerSm_ = 0;
    std::vector<PerSm> sms_;
};

/**
 * si-metrics-v1 JSON export. @p region_names is the program's region
 * table (Program::regionNames()); windows reference regions by index
 * into the document's top-level "regions" list.
 */
std::string metricsJson(const MetricsSampler &sampler,
                        const std::string &kernel,
                        const std::vector<std::string> &region_names);

/** CSV export: one row per (SM, window), scalar series only. */
std::string metricsCsv(const MetricsSampler &sampler);

/**
 * Chrome trace counter tracks: per SM, an "ipc" track, an "occupancy"
 * track, and a stacked "stall cycles" track (one series per reason),
 * each sampled at the start of every window. Feed to chromeTraceJson().
 */
std::vector<CounterSample>
metricsCounterSamples(const MetricsSampler &sampler);

} // namespace si

#endif // SI_METRICS_SAMPLER_HH
