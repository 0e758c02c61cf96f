#include "harness/runner.hh"

#include "common/sim_error.hh"

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
runWorkload(const Workload &workload, GpuConfig config,
            const std::string *checkpoint)
{
    if (!workload.memory) {
        GpuResult result;
        result.status = RunStatus::failure(
            ErrorKind::Config,
            "workload '" + workload.name + "' has no memory image");
        return result;
    }
    config.rtc = workload.rtc;
    Memory mem = *workload.memory; // fresh copy per run
    Gpu gpu(config, mem, workload.bvh());
    return gpu.runMulti({{&workload.program, workload.launch}}, checkpoint);
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
