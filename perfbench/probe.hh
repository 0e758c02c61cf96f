/**
 * @file
 * Host-time probes for the simulator benchmark: a monotonic clock, an
 * in-memory span recorder, and a CycleSampler that timestamps every
 * run-loop iteration. All of them sit outside the simulator: spans wrap
 * calls into each module's public functions, and the sampler attaches
 * through GpuConfig::metricsSampler without constraining fast-forward.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * One recorded span. `ns` is the inclusive duration; it equals
 * end - start except for aggregate spans, which sum many short calls
 * (every MetricsSampler::onCycle of one run) between start and end.
 */
struct Span
{
    std::string name; ///< "<layer>.<what>", e.g. "core.run"
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t ns = 0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
    int cell = -1;   ///< cell id, -1 outside cells
    bool counted = false; ///< part of the self-time table
};

/**
 * Append-only span store; written out once at the end of a run. Spans
 * opened with open() nest: a span recorded while one is open defaults
 * to it as parent.
 */
class Tracer
{
  public:
    /** Start a span now, under the innermost open one. */
    int open(std::string name);

    /** End the innermost open span @p id now. */
    void close(int id);

    /** Index of the innermost open span, -1 when none. */
    int top() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Record a finished span; returns its index (a parent handle). */
    int record(std::string name, std::int64_t start, std::int64_t end,
               int parent, int cell = -1);

    /** Record an aggregate span of @p ns inside [start, end]. */
    int recordAggregate(std::string name, std::int64_t start,
                        std::int64_t end, std::int64_t ns, int parent,
                        int cell);

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop every span from index @p n on (none may be open). */
    void truncate(std::size_t n) { spans_.resize(n); }

    /**
     * Spans recorded from now on are (or are not) counted in the
     * self-time table, which then covers one instance of each phase.
     */
    void setCounting(bool on) { counting_ = on; }

    /**
     * Self ns (inclusive minus children) of the counted spans, summed
     * per layer, the name up to its first '.'.
     */
    std::vector<std::pair<std::string, std::int64_t>> selfNsByLayer() const;

    /** Chrome trace-event JSON (one complete event per span). */
    std::string chromeJson() const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    bool counting_ = false;
};

/** Opens a span for its lifetime; a null tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/**
 * Run-loop probe. Timestamps every onCycle() (one per run-loop
 * iteration that ticks; leaps skip iterations) and records the host ns
 * between consecutive iterations. An optional inner sampler (the
 * MetricsSampler of a sampled cell) is forwarded to, its time summed
 * separately and excluded from the iteration times. With no inner
 * sampler the horizon is unconstrained, so leaping is not perturbed.
 */
class ProbeSampler final : public si::CycleSampler
{
  public:
    /** @p tick_ns receives the iteration times; null counts only. */
    ProbeSampler(std::vector<float> *tick_ns, si::CycleSampler *inner)
        : tickNs_(tick_ns), inner_(inner)
    {
    }

    void onCycle(const si::Gpu &gpu, si::Cycle now) override;
    void finish(const si::Gpu &gpu, si::Cycle now) override;
    si::Cycle horizonPin(si::Cycle now) const override;
    void save(si::SnapshotWriter &w) const override;
    void restore(si::SnapshotReader &r) override;

    /** Iterations observed so far. */
    std::uint64_t ticks() const { return ticks_; }

    /** Host ns spent inside the inner sampler. */
    std::int64_t innerNs() const { return innerNs_; }

  private:
    void closeIteration(std::int64_t t);

    std::vector<float> *tickNs_;
    si::CycleSampler *inner_;
    std::int64_t last_ = 0;
    std::int64_t innerNs_ = 0;
    std::uint64_t ticks_ = 0;
};

/**
 * Host-speed reference. On a shared host, neighbours on a sibling
 * hardware thread can slow the simulator by up to 2x for minutes at a
 * time, mostly by contending for L1 and L2. This loop of independent
 * random loads over a 512 KB table (missing L1, hitting L2) slows down
 * with it: measured against the Fig. 11 microbenchmark across a 2.2x
 * range of contention, their ratio stayed within about 7%. Samples are
 * taken between cells; the factors scale host times to a host on which
 * the loop takes nominalNs.
 */
class HostSpeed
{
  public:
    /** The loop's time on an uncontended core of the 4-vCPU Xeon
     *  (Sapphire Rapids class) this benchmark was defined on. */
    static constexpr double nominalNs = 2.5e6;

    HostSpeed();

    /** Time the loop once, unless the last sample is recent. */
    void sample();

    /** Time the loop once now; returns its host ns. */
    double sampleNow();

    /** nominalNs / median sample: multiply a host time by this. */
    double factor() const;

    /** The same over the latest few samples only: the factor for work
     *  timed now, when the host's speed changes within a run. */
    double recentFactor() const;

    std::size_t samples() const { return ns_.size(); }

    /** Host ns spent sampling, to exclude from surrounding timings. */
    std::int64_t spentNs() const { return spentNs_; }

  private:
    std::vector<std::uint32_t> table_;
    std::vector<double> ns_;
    std::int64_t last_ = 0;
    std::int64_t spentNs_ = 0;
};

/** Median of @p xs (0 when empty); reorders a copy. */
double median(std::vector<double> xs);

/** Nearest-rank percentile @p pct in [0, 100] of @p xs. */
double percentile(std::vector<double> xs, double pct);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
