#include "trace/events.hh"

namespace si {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Issue: return "issue";
      case TraceEventKind::WarpRetire: return "warp-retire";
      case TraceEventKind::Watchdog: return "watchdog";
      case TraceEventKind::FaultInject: return "fault-inject";
      case TraceEventKind::SubwarpDiverge: return "subwarp-diverge";
      case TraceEventKind::SubwarpReconverge: return "subwarp-reconverge";
      case TraceEventKind::SubwarpBlock: return "subwarp-block";
      case TraceEventKind::BarrierRelease: return "barrier-release";
      case TraceEventKind::SubwarpSelect: return "subwarp-select";
      case TraceEventKind::SubwarpStall: return "subwarp-stall";
      case TraceEventKind::SubwarpWakeup: return "subwarp-wakeup";
      case TraceEventKind::SubwarpYield: return "subwarp-yield";
      case TraceEventKind::TstFull: return "tst-full";
      case TraceEventKind::CacheAccess: return "cache-access";
      case TraceEventKind::CacheFill: return "cache-fill";
      case TraceEventKind::Writeback: return "writeback";
    }
    return "unknown";
}

const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::LoadToUse: return "load-to-use";
      case StallReason::IFetch: return "i-fetch";
      case StallReason::Barrier: return "barrier";
      case StallReason::NoReadySubwarp: return "no-ready-subwarp";
      case StallReason::Pipe: return "pipe";
      case StallReason::Switch: return "switch";
    }
    return "unknown";
}

const char *
traceCacheLevelName(TraceCacheLevel level)
{
    switch (level) {
      case TraceCacheLevel::L1D: return "l1d";
      case TraceCacheLevel::L1I: return "l1i";
      case TraceCacheLevel::L0I: return "l0i";
    }
    return "unknown";
}

} // namespace si
