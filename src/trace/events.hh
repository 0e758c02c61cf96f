/**
 * @file
 * Event taxonomy and sink interface of the tracing layer.
 *
 * The cycle model publishes typed, fixed-size TraceEvent records into a
 * user-installed TraceSink (GpuConfig::traceSink). Every event is
 * stamped with cycle / SM / processing block / warp, and carries the
 * subwarp (lane mask) it concerns plus a small kind-specific payload.
 *
 * There is one emission tier: every event kind is emitted whenever a
 * sink is installed, in every build. Emission goes through
 * SI_EMIT_EVENT(), whose lazy argument evaluation means event
 * construction is skipped when no sink is installed — the cost is then
 * one branch per emission site.
 *
 * No event fires on a quiet cycle (one before an SM's event horizon,
 * which issues nothing and changes no machine state; see
 * Sm::nextEventAt). Every event marks a state change, and the one
 * repeating condition, TstFull, is edge-triggered. So the fast-forward
 * engine may leap over quiet stretches with any sink installed and the
 * recorded stream is identical to a per-cycle run's. Stall attribution
 * is not an event stream: the core counts lost warp-slots per (pc,
 * StallReason) itself (Sm::stallsByPc).
 */

#ifndef SI_TRACING_EVENTS_HH
#define SI_TRACING_EVENTS_HH

#include <cstdint>
#include <limits>
#include <string>

#include "common/types.hh"

namespace si {

/** What happened. See the emitting site for exact payload semantics. */
enum class TraceEventKind : std::uint8_t {
    Issue,       ///< instruction issued: pc, mask=active, mask2=exec,
                 ///< arg=opcode
    WarpRetire,  ///< every lane of the warp has exited
    Watchdog,    ///< run failed: arg=ErrorKind (livelock, deadlock, ...)
    FaultInject, ///< fault-injection campaign corrupted state: arg=FaultKind
    SubwarpDiverge,    ///< branch split: mask=kept, mask2=demoted,
                       ///< pc=kept pc, arg=demoted pc
    SubwarpReconverge, ///< BSYNC completed: mask=participants, arg=barrier
    SubwarpBlock,      ///< BSYNC blocked the subwarp: mask, arg=barrier
    BarrierRelease,    ///< barrier force-released on exit: mask, arg=barrier
    SubwarpSelect,     ///< READY subwarp promoted: mask, pc
    SubwarpStall,      ///< ACTIVE subwarp demoted to STALLED: mask, pc,
                       ///< arg=scoreboard
    SubwarpWakeup,     ///< TST entry drained, lanes READY: mask, pc, arg=sb
    SubwarpYield,      ///< ACTIVE subwarp yielded: mask, pc
    TstFull,           ///< stall demotion denied, no free TST entry;
                       ///< edge-triggered: once per warp until a
                       ///< demotion next finds a free entry
    CacheAccess,       ///< arg=CacheLevel | hit<<8; addr=line address
    CacheFill,         ///< miss fill: arg=CacheLevel | evicted<<9;
                       ///< addr=line
    Writeback,         ///< scoreboard release drained: mask, arg=sb|port<<8
};

/** The highest TraceEventKind (binary-trace validation). */
inline constexpr TraceEventKind lastTraceEventKind = TraceEventKind::Writeback;

/** Short stable name ("issue", "subwarp-stall", ...). */
const char *traceEventKindName(TraceEventKind kind);

/**
 * Why a warp lost an issue slot (the paper's Figure 3 reason buckets,
 * at warp-cycle granularity). SmStats derives the coarser per-status
 * counters from these (SmStats::warpScoreboardStallCycles() and
 * friends). Pipe and Switch together form the paper's "structural"
 * bucket.
 */
enum class StallReason : std::uint8_t {
    LoadToUse,      ///< &req scoreboard outstanding (load-to-use)
    IFetch,         ///< instruction fetch in flight
    Barrier,        ///< no ACTIVE subwarp; blocked lanes wait at a BSYNC
    NoReadySubwarp, ///< no ACTIVE subwarp; all demoted subwarps pending
    Pipe,           ///< short-latency operand not ready (structural)
    Switch,         ///< subwarp switch / issue penalty timer (structural)
};

inline constexpr unsigned numStallReasons = 6;

/** Short stable name ("load-to-use", "i-fetch", ...). */
const char *stallReasonName(StallReason reason);

/**
 * The name as a key suffix ("load_to_use"): the per-reason si-stats-v1
 * scalars and si-metrics CSV columns.
 */
std::string stallReasonKey(StallReason reason);

/** Which cache a CacheAccess/CacheFill event concerns. */
enum class TraceCacheLevel : std::uint8_t { L1D, L1I, L0I };

/** Short stable name ("l1d", ...). */
const char *traceCacheLevelName(TraceCacheLevel level);

/**
 * One trace record. Fixed-size POD: this exact layout is what the
 * binary ring-buffer dump writes (see trace/sinks.hh), so additions
 * must bump the binary format version.
 */
struct TraceEvent
{
    Cycle cycle = 0;
    Addr addr = 0;           ///< cache line for Cache* events
    std::uint32_t pc = 0;
    std::uint32_t mask = 0;  ///< subwarp lane mask (ThreadMask::raw())
    std::uint32_t mask2 = 0; ///< second mask payload (exec / demoted)
    std::uint32_t arg = 0;   ///< kind-specific small payload
    std::uint16_t warpId = 0;
    std::uint8_t smId = 0;
    std::uint8_t pb = 0;
    TraceEventKind kind = TraceEventKind::Issue;

    bool operator==(const TraceEvent &) const = default;
};

/**
 * The most warps (ids 0..65535), SMs and processing blocks per SM (ids
 * 0..255) a TraceEvent can name. Gpu rejects larger launches and
 * machines with ErrorKind::Config rather than let two warps' events
 * alias.
 */
inline constexpr std::uint64_t traceMaxWarps =
    std::uint64_t(std::numeric_limits<decltype(TraceEvent::warpId)>::max()) +
    1;
inline constexpr unsigned traceMaxSms =
    unsigned(std::numeric_limits<decltype(TraceEvent::smId)>::max()) + 1;
inline constexpr unsigned traceMaxPbs =
    unsigned(std::numeric_limits<decltype(TraceEvent::pb)>::max()) + 1;

/**
 * Consumer interface. record() is called synchronously from the cycle
 * model's hot paths — implementations must be cheap and must not throw.
 * Sinks are installed via GpuConfig::traceSink (non-owning) and must
 * outlive the run.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent &event) = 0;
};

/**
 * Emit a trace event. @p sink is evaluated once; the event expression
 * is evaluated only when the sink is non-null.
 */
#define SI_EMIT_EVENT(sink, ...) \
    do { \
        ::si::TraceSink *si_emit_sink_ = (sink); \
        if (si_emit_sink_) \
            si_emit_sink_->record(__VA_ARGS__); \
    } while (0)

} // namespace si

#endif // SI_TRACING_EVENTS_HH
