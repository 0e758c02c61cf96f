/**
 * @file
 * perfbench: the simulator's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Generates NAME's inputs from the seed, times the set-up (median over
 * batches of builds), runs one untimed warm-up cell, then runs the
 * workload's whole grid of cells ("a pass") repeatedly for about S
 * seconds, checking every cell. With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it alternates untraced and traced
 * passes, re-runs a seed-chosen sample of cells with fast-forward off,
 * and reports the per-layer metrics, each layer's self time, and the
 * tracing overhead. Host times are scaled by a host-speed reference
 * (HostSpeed) sampled between cells. Spans go to
 * DIR/spans-NAME-seedN.json. The last stdout line is one JSON object:
 * correct, attempted, failed, metrics. See README.md for what each
 * metric means and which layer moves it.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/runner.hh"
#include "metrics/sampler.hh"
#include "probe.hh"
#include "snapshot/snapshot.hh"
#include "suites.hh"
#include "trace/events.hh"

namespace perfbench {

namespace {

/**
 * Set-up builds are timed in batches of at least setupBatchNs, each
 * between two host-speed samples, until there are setupMinBatches
 * batches and setupMinSeconds have passed; setup_s is their median.
 */
constexpr unsigned setupMinBatches = 7;
constexpr double setupMinSeconds = 1.0;
constexpr std::int64_t setupBatchNs = 20'000'000;

/** Percentile of the per-cell medians reported as cell_ms.tail. */
constexpr double tailPercentile = 85;

/**
 * glibc's default mmap threshold rises after each large free, so where
 * a large block lands, and with it peak_rss_mb, would depend on the
 * order of earlier allocations. Pinned at its initial value, the peak
 * is the same for every run of the same inputs.
 */
constexpr int mmapThreshold = 128 * 1024;

/** Cells re-run with fast-forward off in a traced run. */
constexpr std::size_t twinSample = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 20;
    bool trace = false;
    std::string outDir = ".";
};

/** A reported metric, in BENCHMARK.json order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The simulated outcome of one cell; identical on every pass. */
struct Outcome
{
    si::GpuResult result;
    std::uint64_t leaps = 0;
    std::uint64_t skipped = 0;
    std::uint64_t windows = 0;       ///< sampled cells: windows, all SMs
    std::uint64_t windowsDigest = 0; ///< sampled cells: every window
    std::string error; ///< exception text, empty when none
};

/** Host timestamps of one cell run. */
struct Stamps
{
    std::int64_t start = 0, copied = 0, initStart = 0, inited = 0,
                 ran = 0;
    std::int64_t samplerNs = 0;
    std::uint64_t ticks = 0;
};

/** Host times of one cell in one pass, in ns. */
struct CellTime
{
    double copy = 0, init = 0, run = 0, total = 0;
    double factor = 1; ///< host-speed factor when the cell ran
};

struct Pass
{
    bool traced = false;
    double wallNs = 0;
    std::vector<CellTime> cells;
};

/** Fnv1a digest of a snapshot byte stream. */
std::uint64_t
digestOf(const si::SnapshotWriter &w)
{
    const std::string bytes = w.finish();
    si::Fnv1a fnv;
    fnv.update(bytes.data(), bytes.size());
    return fnv.digest();
}

/**
 * Record @p sampler's window series in @p o as a count and a digest,
 * so a sweep holds no window series beyond the cell that made it.
 */
void
recordWindows(const si::MetricsSampler &sampler, Outcome &o)
{
    si::SnapshotWriter w;
    for (unsigned sm = 0; sm < sampler.numSms(); ++sm) {
        w.u64(sampler.dropped(sm));
        for (const si::MetricsWindow &win : sampler.windows(sm)) {
            w.u64(win.start);
            w.u64(win.end);
            win.delta.save(w);
        }
        o.windows += sampler.windows(sm).size();
    }
    o.windowsDigest = digestOf(w);
}

/** The partition identity of one SmStats. */
bool
partitionHolds(const si::SmStats &s)
{
    std::uint64_t sum = s.instrsIssued + s.arbLossCycles;
    for (std::uint64_t c : s.stallCyclesByReason)
        sum += c;
    return sum == s.liveWarpCycles;
}

/** Why @p o is not a correct run of @p wl; empty when it is. */
std::string
checkOutcome(const si::Workload &wl, const Outcome &o)
{
    if (!o.error.empty())
        return "exception: " + o.error;
    if (!o.result.ok())
        return "status " + o.result.status.summary();
    if (!partitionHolds(o.result.total))
        return "warp-cycle partition identity broken";
    for (const si::SmStats &s : o.result.perSm) {
        if (!partitionHolds(s))
            return "per-SM warp-cycle partition identity broken";
    }
    if (o.result.total.warpsRetired != wl.launch.numWarps) {
        return std::to_string(o.result.total.warpsRetired) + " of " +
               std::to_string(wl.launch.numWarps) + " warps retired";
    }
    return {};
}

/** Same simulated result: cycles, every SM's stats, sampler windows. */
bool
sameOutcome(const Outcome &a, const Outcome &b)
{
    return a.result.cycles == b.result.cycles &&
           a.result.perSm == b.result.perSm &&
           a.result.total == b.result.total &&
           a.windows == b.windows && a.windowsDigest == b.windowsDigest;
}

class Bench
{
  public:
    explicit Bench(const Options &opt) : opt_(opt) {}

    int run();

  private:
    void setup();
    void rtcoreProbes();
    void warmUp();
    Pass runPass(bool traced);
    Outcome runCell(const Cell &cell, bool traced, Stamps &st);
    void twinCheck();
    void fail(const std::string &label, const std::string &why);

    std::vector<Metric> endToEnd() const;
    std::vector<Metric> perLayer() const;
    std::uint64_t digest() const;
    void printAccuracy() const;
    void writeSpans() const;

    const Options &opt_;
    HostSpeed speed_;
    Suite suite_;
    Tracer tracer_;
    std::vector<double> setupNs_; ///< scaled ns per build, per batch
    unsigned setupBuilds_ = 0;
    std::map<std::string, std::vector<double>> setupSpanNs_;
    std::vector<Outcome> first_; ///< per cell, from the first pass
    std::vector<Pass> passes_;
    std::vector<float> tickNs_; ///< iteration times, first traced pass
    std::uint64_t ticksPerTracedPass_ = 0;
    bool firstTraced_ = false; ///< inside the first traced pass
    int nextCellId_ = 0;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;

    double bvhBuildNs_ = 0;
    double traceNsPerRay_ = 0;
    double twinOffNs_ = 0, twinOnNs_ = 0;
    std::size_t twins_ = 0;
    std::size_t twinMismatches_ = 0;
};

void
Bench::fail(const std::string &label, const std::string &why)
{
    ++failed_;
    if (failed_ <= 10)
        std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                     label.c_str(), why.c_str());
}

void
Bench::setup()
{
    // Generate the inputs once; time only the build that consumes them.
    const SuiteBuilder build = makeSuiteBuilder(opt_.workload, opt_.seed);
    Tracer *tracer = opt_.trace ? &tracer_ : nullptr;
    const std::int64_t begin = nowNs();
    // Neighbours on a shared host slow a build for bursts shorter than
    // HostSpeed's usual cadence, so every batch is scaled by the mean of
    // the samples just before and just after it.
    double before = speed_.sampleNow();
    unsigned builds = 0;
    for (unsigned batch = 0;; ++batch) {
        std::int64_t batch_ns = 0;
        unsigned in_batch = 0;
        do {
            // Every build is traced for the per-layer medians; only the
            // first one's spans are kept and counted in self times.
            tracer_.setCounting(builds == 0);
            const std::size_t first_span = tracer_.spans().size();
            const int span = tracer ? tracer_.open("perfbench.setup") : -1;
            suite_ = Suite{}; // hold one input set at a time
            const std::int64_t t0 = nowNs();
            suite_ = build(tracer);
            batch_ns += nowNs() - t0;
            if (tracer) {
                tracer_.close(span);
                std::map<std::string, double> sums;
                for (std::size_t i = first_span; i < tracer_.spans().size();
                     ++i)
                    sums[tracer_.spans()[i].name] +=
                        double(tracer_.spans()[i].ns);
                for (const auto &[name, ns] : sums)
                    setupSpanNs_[name].push_back(ns);
                if (builds > 0)
                    tracer_.truncate(first_span);
            }
            ++builds;
            ++in_batch;
        } while (batch_ns < setupBatchNs);
        const double after = speed_.sampleNow();
        setupNs_.push_back(double(batch_ns) / in_batch *
                           HostSpeed::nominalNs / ((before + after) / 2));
        before = after;
        const double spent = double(nowNs() - begin) / 1e9;
        if (batch + 1 >= setupMinBatches && spent >= setupMinSeconds)
            break;
    }
    setupBuilds_ = builds;
    tracer_.setCounting(false);
}

void
Bench::rtcoreProbes()
{
    // Standalone Bvh build and Bvh::trace over each scene's primary
    // rays: the RT-core layer's host cost, separable from outside.
    constexpr unsigned grid = 32, batches = 5;
    tracer_.setCounting(true);
    std::vector<double> per_ray;
    for (const si::Workload &wl : suite_.workloads) {
        if (!wl.scene)
            continue;
        const si::Scene &scene = *wl.scene;
        auto trace_grid = [&](const si::Bvh &bvh) {
            unsigned hits = 0;
            for (unsigned y = 0; y < grid; ++y) {
                for (unsigned x = 0; x < grid; ++x) {
                    const si::Ray ray = scene.primaryRay(
                        (float(x) + 0.5f) / grid, (float(y) + 0.5f) / grid);
                    hits += bvh.trace(ray).valid ? 1 : 0;
                }
            }
            return hits;
        };

        const std::int64_t t0 = nowNs();
        const si::Bvh rebuilt(scene.triangles);
        const std::int64_t t1 = nowNs();
        tracer_.record("rtcore.bvh_build", t0, t1, -1);
        bvhBuildNs_ += double(t1 - t0);

        // The rebuilt BVH must see the same hits as the scene's own.
        ++attempted_;
        const unsigned expected = trace_grid(rebuilt);
        for (unsigned b = 0; b < batches; ++b) {
            const std::int64_t s0 = nowNs();
            const unsigned hits = trace_grid(scene.bvh);
            const std::int64_t s1 = nowNs();
            tracer_.record("rtcore.trace", s0, s1, -1);
            per_ray.push_back(double(s1 - s0) / (grid * grid));
            if (b == 0 && hits != expected)
                fail(wl.name + "/bvh", "rebuilt BVH disagrees");
        }
    }
    traceNsPerRay_ = median(per_ray);
    tracer_.setCounting(false);
}

void
Bench::warmUp()
{
    // One untimed cell through the public harness entry point.
    const Cell &cell = suite_.cells.front();
    tracer_.setCounting(true);
    Scope span(opt_.trace ? &tracer_ : nullptr, "harness.run_workload");
    const si::GpuResult r =
        si::runWorkload(suite_.workloads[cell.workload], cell.config);
    if (!r.ok())
        fail(cell.label + "/warm-up", r.status.summary());
    tracer_.setCounting(false);
}

Outcome
Bench::runCell(const Cell &cell, bool traced, Stamps &st)
{
    const si::Workload &wl = suite_.workloads[cell.workload];
    Outcome o;
    try {
        st.start = nowNs();
        si::Memory mem = *wl.memory;
        st.copied = nowNs();
        si::GpuConfig config = cell.config;
        config.rtc = wl.rtc;
        std::optional<si::MetricsSampler> sampler;
        if (cell.sampled)
            sampler.emplace(samplerInterval);
        si::CycleSampler *inner = sampler ? &*sampler : nullptr;
        std::optional<ProbeSampler> probe;
        if (traced)
            probe.emplace(firstTraced_ ? &tickNs_ : nullptr, inner);
        config.metricsSampler = traced ? &*probe : inner;

        st.initStart = nowNs();
        si::Gpu gpu(config, mem, wl.bvh());
        st.inited = nowNs();
        o.result = gpu.run(wl.program, wl.launch);
        st.ran = nowNs();

        o.leaps = gpu.fastForwardLeaps();
        o.skipped = gpu.fastForwardCyclesSkipped();
        if (sampler)
            recordWindows(*sampler, o);
        if (probe) {
            st.samplerNs = probe->innerNs();
            st.ticks = probe->ticks();
        }
    } catch (const std::exception &e) {
        o.error = e.what();
        st.ran = nowNs();
    }
    return o;
}

Pass
Bench::runPass(bool traced)
{
    Pass pass;
    pass.traced = traced;
    const bool first = first_.empty();
    // The first traced pass gives the self-time table and tick times.
    firstTraced_ = traced && ticksPerTracedPass_ == 0;
    tracer_.setCounting(firstTraced_);
    std::uint64_t ticks = 0;
    const std::int64_t t0 = nowNs();
    const std::int64_t sampling0 = speed_.spentNs();
    for (std::size_t c = 0; c < suite_.cells.size(); ++c) {
        const Cell &cell = suite_.cells[c];
        speed_.sample();
        Stamps st;
        Outcome o = runCell(cell, traced, st);

        const std::int64_t check0 = nowNs();
        ++attempted_;
        std::string why = checkOutcome(suite_.workloads[cell.workload], o);
        if (why.empty() && !first && !sameOutcome(o, first_[c]))
            why = "result differs from the first pass";
        if (!why.empty())
            fail(cell.label, why);
        if (first)
            first_.push_back(std::move(o));
        const std::int64_t check1 = nowNs();

        pass.cells.push_back({double(st.copied - st.start),
                              double(st.inited - st.initStart),
                              double(st.ran - st.inited),
                              double(st.ran - st.start),
                              speed_.recentFactor()});
        ticks += st.ticks;
        if (traced) {
            const int id = nextCellId_++;
            const int p = tracer_.record("perfbench.cell", st.start, check1,
                                         -1, id);
            tracer_.record("mem.image_copy", st.start, st.copied, p);
            tracer_.record("core.init", st.initStart, st.inited, p);
            const int run =
                tracer_.record("core.run", st.inited, st.ran, p);
            if (cell.sampled) {
                tracer_.recordAggregate("metrics.on_cycle", st.inited,
                                        st.ran, st.samplerNs, run, id);
            }
            tracer_.record("perfbench.check", check0, check1, p);
        }
    }
    pass.wallNs = double(nowNs() - t0 - (speed_.spentNs() - sampling0));
    if (firstTraced_)
        ticksPerTracedPass_ = ticks;
    firstTraced_ = false;
    tracer_.setCounting(false);
    return pass;
}

void
Bench::twinCheck()
{
    // Fast-forward is a pure host optimisation: the same cell with it
    // off must give bit-identical SmStats (and sampler windows).
    std::vector<std::size_t> order(suite_.cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    si::Rng rng(si::Rng::streamSeed(opt_.seed, 0x7f1e));
    const std::size_t n = std::min(twinSample, order.size());
    for (std::size_t i = 0; i < n; ++i)
        std::swap(order[i], order[i + rng.below(order.size() - i)]);

    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t c = order[k];
        const Cell &cell = suite_.cells[c];
        si::GpuConfig config = cell.config;
        config.fastForward = false;
        std::optional<si::MetricsSampler> sampler;
        if (cell.sampled) {
            sampler.emplace(samplerInterval);
            config.metricsSampler = &*sampler;
        }
        Outcome twin;
        const std::int64_t t0 = nowNs();
        twin.result = si::runWorkload(suite_.workloads[cell.workload],
                                      config);
        const std::int64_t t1 = nowNs();
        tracer_.record("harness.run_workload", t0, t1, -1);
        if (sampler)
            recordWindows(*sampler, twin);

        ++attempted_;
        std::string why =
            checkOutcome(suite_.workloads[cell.workload], twin);
        if (why.empty() && !sameOutcome(twin, first_[c])) {
            why = "fast-forward off changes the simulated result";
            ++twinMismatches_;
        }
        if (!why.empty())
            fail(cell.label + "/ff-off", why);

        std::vector<double> on;
        for (const Pass &p : passes_) {
            if (!p.traced)
                on.push_back(p.cells[c].total);
        }
        twinOffNs_ += double(t1 - t0);
        twinOnNs_ += median(on);
        ++twins_;
    }
}

std::uint64_t
Bench::digest() const
{
    si::SnapshotWriter w;
    for (const Outcome &o : first_) {
        w.u64(o.result.cycles);
        for (const si::SmStats &s : o.result.perSm)
            s.save(w);
    }
    return digestOf(w);
}

/** Field sums over every cell's end-of-run totals. */
si::SmStats
sumTotals(const std::vector<Outcome> &outcomes)
{
    si::SmStats sum;
    for (const Outcome &o : outcomes)
        sum.accumulate(o.result.total);
    return sum;
}

/** Median over untraced passes of f(pass). */
template <typename F>
double
overUntraced(const std::vector<Pass> &passes, F f)
{
    std::vector<double> xs;
    for (const Pass &p : passes) {
        if (!p.traced)
            xs.push_back(f(p));
    }
    return median(xs);
}

std::vector<Metric>
Bench::endToEnd() const
{
    const si::SmStats sum = sumTotals(first_);
    std::uint64_t cycles = 0;
    for (const Outcome &o : first_)
        cycles += o.result.cycles;

    // Each cell's host time is scaled by the host-speed factor of the
    // moment it ran, so a slowdown that starts mid-run is corrected
    // where it happens.
    const double wall_s = overUntraced(passes_, [](const Pass &p) {
                              double sum = 0;
                              for (const CellTime &t : p.cells)
                                  sum += t.total * t.factor;
                              return sum;
                          }) /
                          1e9;
    // Each cell's median over the untraced passes, so a burst of host
    // noise in one pass does not move the per-cell statistics.
    std::vector<double> cell_ms;
    for (std::size_t c = 0; c < suite_.cells.size(); ++c) {
        cell_ms.push_back(overUntraced(passes_, [c](const Pass &p) {
                              return p.cells[c].total * p.cells[c].factor;
                          }) /
                          1e6);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::printf("  cell_ms.tail is p%.0f of %zu per-cell medians\n",
                tailPercentile, cell_ms.size());
    return {
        {"wall_s", wall_s, "s"},
        {"sim_cycles_per_s", double(cycles) / wall_s, "1/s"},
        {"sim_instrs_per_s", double(sum.instrsIssued) / wall_s, "1/s"},
        {"cell_ms.p50", median(cell_ms), "ms"},
        {"cell_ms.tail", percentile(cell_ms, tailPercentile), "ms"},
        {"setup_s", median(setupNs_) / 1e9, "s"},
        {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"},
    };
}

std::vector<Metric>
Bench::perLayer() const
{
    const si::SmStats sum = sumTotals(first_);
    std::uint64_t cycles = 0, leaps = 0, skipped = 0, windows = 0;
    for (const Outcome &o : first_) {
        cycles += o.result.cycles;
        leaps += o.leaps;
        skipped += o.skipped;
        windows += o.windows;
    }
    auto setup_ms = [&](const char *name) {
        auto it = setupSpanNs_.find(name);
        return it == setupSpanNs_.end() ? 0.0 : median(it->second) / 1e6;
    };
    auto cell_median_ms = [&](double CellTime::*field) {
        std::vector<double> xs;
        for (const Pass &p : passes_) {
            if (p.traced)
                continue;
            for (const CellTime &t : p.cells)
                xs.push_back(t.*field / 1e6);
        }
        return median(xs);
    };
    const double run_ns = overUntraced(passes_, [](const Pass &p) {
        double s = 0;
        for (const CellTime &t : p.cells)
            s += t.run;
        return s;
    });
    // Sampled minus bare run time, per paired cell and untraced pass.
    std::vector<double> sampler_ms;
    for (const Pass &p : passes_) {
        if (p.traced)
            continue;
        for (std::size_t c = 0; c < suite_.cells.size(); ++c) {
            const Cell &cell = suite_.cells[c];
            if (cell.sampled)
                sampler_ms.push_back(
                    (p.cells[c].run - p.cells[cell.bare].run) / 1e6);
        }
    }
    std::vector<float> ticks = tickNs_;
    double tick_us = 0;
    if (!ticks.empty()) {
        auto mid = ticks.begin() + std::ptrdiff_t(ticks.size() / 2);
        std::nth_element(ticks.begin(), mid, ticks.end());
        tick_us = double(*mid) / 1e3;
    }
    auto pass_wall_s = [&](bool traced) {
        std::vector<double> xs;
        for (const Pass &p : passes_) {
            if (p.traced == traced)
                xs.push_back(p.wallNs);
        }
        return median(xs) / 1e9;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::vector<Metric> m = {
        {"rt.scene_build_ms", setup_ms("rt.scene_build"), "ms"},
        {"rt.kernel_gen_ms", setup_ms("rt.kernel_gen"), "ms"},
        {"isa.assemble_ms", setup_ms("isa.assemble"), "ms"},
        {"mem.image_copy_ms", cell_median_ms(&CellTime::copy), "ms"},
        {"core.init_ms", cell_median_ms(&CellTime::init), "ms"},
        {"core.run_ms", run_ns / 1e6, "ms"},
        {"core.tick_us", tick_us, "us"},
        {"core.ticks", double(ticksPerTracedPass_), "count"},
        {"core.ns_per_warp_cycle", ratio(run_ns, double(sum.liveWarpCycles)),
         "ns"},
        {"core.ns_per_instr", ratio(run_ns, double(sum.instrsIssued)), "ns"},
        {"core.ff_leaps", double(leaps), "count"},
        {"core.ff_skip_ratio", ratio(double(skipped), double(cycles)),
         "ratio"},
        {"core.ff_speedup", ratio(twinOffNs_, twinOnNs_), "x"},
        {"rtcore.queries", double(sum.rtQueriesIssued), "count"},
        {"rtcore.trace_ns", traceNsPerRay_, "ns"},
        {"rtcore.bvh_build_ms", bvhBuildNs_ / 1e6, "ms"},
        {"metrics.sampler_ms", median(sampler_ms), "ms"},
        {"metrics.windows", double(windows), "count"},
        {"core.live_warp_cycles", double(sum.liveWarpCycles), "count"},
        {"core.instrs_issued", double(sum.instrsIssued), "count"},
        {"core.arb_loss_cycles", double(sum.arbLossCycles), "count"},
    };
    for (unsigned r = 0; r < si::numStallReasons; ++r) {
        m.push_back({std::string("core.stall.") +
                         si::stallReasonName(si::StallReason(r)),
                     double(sum.stallCyclesByReason[r]), "count"});
    }
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"core.subwarp.selects", sum.subwarpSelects},
        {"core.subwarp.stalls", sum.subwarpStalls},
        {"core.subwarp.wakeups", sum.subwarpWakeups},
        {"core.subwarp.yields", sum.subwarpYields},
        {"core.subwarp.tst_denials", sum.tstFullDenials},
        {"mem.l1d_hits", sum.l1dHits},
        {"mem.l1d_misses", sum.l1dMisses},
        {"mem.l1i_misses", sum.l1iMisses},
        {"mem.l0i_misses", sum.l0iMisses},
        {"mem.gmem_transactions", sum.gmemTransactions},
    };
    for (const auto &[name, v] : counts)
        m.push_back({name, double(v), "count"});

    std::map<std::string, double> self;
    for (const auto &[layer, ns] : tracer_.selfNsByLayer())
        self[layer] = double(ns) / 1e6;
    for (const char *layer : {"rt", "isa", "rtcore", "mem", "core",
                              "metrics", "harness", "perfbench"}) {
        m.push_back({std::string("self.") + layer + "_ms", self[layer],
                     "ms"});
    }
    m.push_back({"trace_overhead_s", pass_wall_s(true) - pass_wall_s(false),
                 "s"});
    return m;
}

void
Bench::printAccuracy() const
{
    // Mean over apps of the Both,N>=0.5 speedup and of each app's best
    // SI point, beside the paper's Figure 12a numbers.
    const int best = int(&si::bestSiConfigPoint() -
                         si::siConfigPoints().data());
    std::map<int, const si::GpuResult *> base;
    std::map<int, double> best_pt, best_of;
    for (std::size_t c = 0; c < suite_.cells.size(); ++c) {
        const Cell &cell = suite_.cells[c];
        if (cell.app < 0)
            continue;
        if (cell.point < 0) {
            base[cell.app] = &first_[c].result;
            best_of[cell.app] = -1e9;
            continue;
        }
        const double s = si::speedupPct(*base[cell.app], first_[c].result);
        best_of[cell.app] = std::max(best_of[cell.app], s);
        if (cell.point == best)
            best_pt[cell.app] = s;
    }
    if (base.empty())
        return;
    std::vector<double> a, b;
    for (const auto &[app, s] : best_pt)
        a.push_back(s);
    for (const auto &[app, s] : best_of)
        b.push_back(s);
    std::printf("  accuracy (informational; the model is unvalidated "
                "against hardware): mean SI speedup Both,N>=0.5 %+.2f%% "
                "(paper 6.3%%), BestOf %+.2f%% (paper 6.6%%)\n",
                si::mean(a), si::mean(b));
}

void
Bench::writeSpans() const
{
    const std::string path = opt_.outDir + "/spans-" + opt_.workload +
                             "-seed" + std::to_string(opt_.seed) + ".json";
    std::ofstream out(path);
    out << tracer_.chromeJson();
    std::printf("  spans: %zu written to %s\n", tracer_.spans().size(),
                path.c_str());
}

/** Scale every host time by @p factor (host rates by its inverse). */
void
scaleHostTimes(std::vector<Metric> &ms, double factor)
{
    for (Metric &m : ms) {
        if (m.unit == "s" || m.unit == "ms" || m.unit == "us" ||
            m.unit == "ns")
            m.value *= factor;
        else if (m.unit == "1/s")
            m.value /= factor;
    }
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("  %s:\n", title);
    for (const Metric &m : ms) {
        std::printf("    %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

int
Bench::run()
{
    std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
                opt_.workload.c_str(), opt_.seed, opt_.seconds,
                int(opt_.trace));
    setup();
    if (opt_.trace)
        rtcoreProbes();
    warmUp();

    // Whole passes until the next one would overrun the budget.
    speed_.sampleNow();
    const double budget = opt_.seconds * 1e9;
    const std::int64_t t0 = nowNs();
    double last = 0;
    do {
        const std::int64_t r0 = nowNs();
        passes_.push_back(runPass(false));
        if (opt_.trace)
            passes_.push_back(runPass(true));
        last = double(nowNs() - r0);
    } while (double(nowNs() - t0) + last <= budget);
    speed_.sampleNow();
    if (opt_.trace)
        twinCheck();

    std::printf("  setup: %u builds in %zu batches; passes: %zu x %zu cells\n",
                setupBuilds_, setupNs_.size(), passes_.size(),
                suite_.cells.size());
    const double factor = speed_.factor();
    std::printf("  host speed: %zu reference samples, median factor "
                "%.4f to the reference host\n",
                speed_.samples(), factor);
    const std::vector<Metric> e2e = endToEnd();
    printMetrics("end-to-end", e2e);
    std::printf("    %-28s %.6g (%" PRIu64 " failed / %" PRIu64
                " attempted)\n",
                "cell_fail_ratio",
                attempted_ ? double(failed_) / double(attempted_) : 0.0,
                failed_, attempted_);
    std::printf("  digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                opt_.workload.c_str(), opt_.seed, digest());
    printAccuracy();

    std::vector<Metric> result = e2e;
    if (opt_.trace) {
        result = perLayer();
        scaleHostTimes(result, factor);
        printMetrics("per-layer", result);
        std::printf("  ff twins: %zu cells re-run with fast-forward off, "
                    "%zu mismatched\n",
                    twins_, twinMismatches_);
        writeSpans();
    }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < result.size(); ++i) {
        const double v = std::isfinite(result[i].value) ? result[i].value
                                                        : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", result[i].name.c_str(), v,
                    result[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "rt-sweep|memlat-ff|subwarp-micro --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    mallopt(M_MMAP_THRESHOLD, mmapThreshold);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
        if (end && *end)
            return usage(("bad number for " + a).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        return usage("unknown or missing --workload");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");
    try {
        return Bench(opt).run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
