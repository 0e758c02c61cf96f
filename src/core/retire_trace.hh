/**
 * @file
 * Per-lane retirement traces. A RetireEvent records one instruction a
 * lane retired (its PC, plus whether the guard predicate passed). Each
 * lane's trace is schedule-invariant: it does not depend on how the
 * warp scheduler, subwarp scheduler, or SI policies interleave subwarps
 * — only on the lane's architectural control flow. That makes the
 * traces directly comparable between the cycle model and the functional
 * reference interpreter (src/ref), which executes with a completely
 * different (canonical lowest-PC) schedule.
 */

#ifndef SI_CORE_RETIRE_TRACE_HH
#define SI_CORE_RETIRE_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/thread_mask.hh"
#include "common/types.hh"
#include "trace/events.hh"

namespace si {

/** One retired instruction as seen by a single lane. */
struct RetireEvent
{
    std::uint32_t pc = 0;

    /** True when the lane's guard passed (it executed, not just advanced). */
    bool executed = true;

    bool operator==(const RetireEvent &) const = default;
};

/** A full warp of per-lane retirement traces. */
using WarpRetireTrace = std::array<std::vector<RetireEvent>, warpSize>;

/**
 * Collects retirement traces from the cycle model's trace stream. A
 * TraceSink adapter over the Issue events: install with
 * `config.traceSink = &collector`; the collector must outlive the run.
 * Traces are keyed by warp id (for single-kernel launches this equals
 * the warp's launch index; Gpu caps launches at traceMaxWarps, so ids
 * never alias).
 */
class RetireTraceCollector : public TraceSink
{
  public:
    void
    record(const TraceEvent &ev) override
    {
        if (ev.kind != TraceEventKind::Issue)
            return;
        const ThreadMask active(ev.mask);
        const ThreadMask exec(ev.mask2);
        WarpRetireTrace &warp = traces_[ev.warpId];
        for (unsigned lane : lanesOf(active))
            warp[lane].push_back({ev.pc, exec.test(lane)});
    }

    const std::map<unsigned, WarpRetireTrace> &traces() const
    {
        return traces_;
    }

    /** Trace for one warp (empty traces when the warp never issued). */
    const WarpRetireTrace &
    warp(unsigned warp_id) const
    {
        static const WarpRetireTrace empty{};
        auto it = traces_.find(warp_id);
        return it == traces_.end() ? empty : it->second;
    }

    void clear() { traces_.clear(); }

  private:
    std::map<unsigned, WarpRetireTrace> traces_;
};

} // namespace si

#endif // SI_CORE_RETIRE_TRACE_HH
