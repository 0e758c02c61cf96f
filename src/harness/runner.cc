#include "harness/runner.hh"

#include <chrono>
#include <exception>
#include <limits>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "parallel/executor.hh"

namespace si {

const std::vector<SiConfigPoint> &
siConfigPoints()
{
    static const std::vector<SiConfigPoint> points = {
        {"SOS,N=1", false, SelectTrigger::AllStalled},
        {"Both,N=1", true, SelectTrigger::AllStalled},
        {"SOS,N>=0.5", false, SelectTrigger::HalfStalled},
        {"Both,N>=0.5", true, SelectTrigger::HalfStalled},
        {"SOS,N>0", false, SelectTrigger::AnyStalled},
        {"Both,N>0", true, SelectTrigger::AnyStalled},
    };
    return points;
}

const SiConfigPoint &
bestSiConfigPoint()
{
    return siConfigPoints()[3]; // Both, N >= 0.5
}

GpuConfig
baselineConfig()
{
    return GpuConfig{};
}

GpuConfig
baselineConfig(Cycle l1_miss_latency)
{
    GpuConfig config;
    config.lat.l1Miss = l1_miss_latency;
    return config;
}

void
addMachineOptions(cli::Parser &parser, MachineOptions &m)
{
    GpuConfig &c = m.config;
    const std::vector<std::pair<std::string, SelectTrigger>> triggers = {
        {"any", SelectTrigger::AnyStalled},
        {"half", SelectTrigger::HalfStalled},
        {"all", SelectTrigger::AllStalled}};
    const std::vector<std::pair<std::string, SchedPolicy>> scheds = {
        {"gto", SchedPolicy::GTO}, {"lrr", SchedPolicy::LRR}};
    parser.number("--warps", m.warps, "warps to launch (default 4)")
        .number("--lat", c.lat.l1Miss,
                "L1 miss latency in cycles (default 600)", 0,
                std::numeric_limits<unsigned>::max())
        .flag("--si", c.siEnabled, "enable Subwarp Interleaving (SOS)")
        .flag("--yield", [&c] { c.siEnabled = c.yieldEnabled = true; },
              "also enable subwarp-yield (implies --si)")
        .choice("--trigger", c.trigger, triggers,
                "selection trigger: N>0, N>=0.5 or N=1 of the live warps "
                "stalled (default half)")
        .number("--tst", c.maxSubwarps,
                "thread status table entries (default 32)")
        .number("--sms", c.numSms, "number of SMs (default 2)")
        .number("--slots", c.warpSlotsPerPb,
                "warp slots per processing block (default 8)")
        .number("--mshrs", c.maxOutstandingMisses,
                "outstanding-miss budget (default 0 = unlimited)")
        .flag("--hints", m.hints,
              "run the static stall-hint pass and the hint policy")
        .choice("--sched", c.sched, scheds, "warp scheduler (default gto)");
}

GpuConfig
withSi(GpuConfig config, const SiConfigPoint &point)
{
    config.siEnabled = true;
    config.yieldEnabled = point.yield;
    config.trigger = point.trigger;
    return config;
}

GpuConfig
withDws(GpuConfig config)
{
    config.siEnabled = true;
    config.dwsEnabled = true;
    config.yieldEnabled = false;
    config.trigger = SelectTrigger::AnyStalled;
    config.maxSubwarps = 32; // slot availability is the real limit
    config.switchLatency = 0; // splits live in their own warp slots
    return config;
}

GpuResult
runWorkload(const Workload &workload, GpuConfig config)
{
    sim_throw_if(!workload.memory, ErrorKind::Config,
                 "workload '%s' has no memory image",
                 workload.name.c_str());
    config.rtc = workload.rtc;
    Memory mem = *workload.memory; // fresh copy per run
    return simulate(config, mem, workload.program, workload.launch,
                    workload.bvh());
}

RunOutcome
runWorkloadSafe(const Workload &workload, GpuConfig config,
                double wall_timeout_sec)
{
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    if (wall_timeout_sec > 0) {
        const auto deadline =
            start + std::chrono::duration_cast<clock::duration>(
                        std::chrono::duration<double>(wall_timeout_sec));
        config.cancelHook = [deadline] {
            return clock::now() >= deadline;
        };
    }

    RunOutcome outcome;
    outcome.name = workload.name;
    try {
        outcome.result = runWorkload(workload, std::move(config));
    } catch (const SimError &e) {
        // simulate() absorbs run-time SimErrors; this catches the
        // pre-run ones (e.g. a workload with no memory image).
        outcome.result.status = e.status();
    } catch (const std::exception &e) {
        outcome.result.status = RunStatus::failure(
            ErrorKind::Internal,
            std::string("unexpected exception: ") + e.what());
    }
    outcome.wallSeconds =
        std::chrono::duration<double>(clock::now() - start).count();
    return outcome;
}

std::vector<RunOutcome>
runSuiteSafe(const std::vector<Workload> &suite, const GpuConfig &config,
             double per_run_timeout_sec, unsigned jobs)
{
    return parallel::mapIndexed<RunOutcome>(
        jobs, suite.size(),
        [&](std::size_t i) {
            return runWorkloadSafe(suite[i], config,
                                   per_run_timeout_sec);
        },
        [](std::size_t, const RunOutcome &o) {
            if (!o.ok()) {
                // Name the detector explicitly: a wall-clock budget
                // kill and a forward-progress watchdog trip used to
                // read identically here, sending people to debug the
                // wrong mechanism.
                warn("workload '%s' failed (%s; flagged by %s); "
                     "continuing sweep",
                     o.name.c_str(), o.result.status.summary().c_str(),
                     errorDetectorName(o.result.status.kind));
            }
        });
}

double
speedupPct(const GpuResult &base, const GpuResult &test)
{
    if (test.cycles == 0)
        return 0.0;
    return (double(base.cycles) / double(test.cycles) - 1.0) * 100.0;
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / double(xs.size());
}

} // namespace si
