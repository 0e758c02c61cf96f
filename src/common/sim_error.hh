/**
 * @file
 * Structured simulator errors: the one way anything in src/ fails. A
 * process-terminating error would lose every completed data point of a
 * multi-configuration sweep, so every bad input and every broken
 * invariant throws SimError instead; Gpu::runMulti catches it, so a
 * failed kernel run unwinds into a GpuResult whose RunStatus records
 * what went wrong while the process (and the rest of the sweep) keeps
 * going.
 */

#ifndef SI_COMMON_SIM_ERROR_HH
#define SI_COMMON_SIM_ERROR_HH

#include <stdexcept>
#include <string>

namespace si {

/** Classification of a failed kernel run (RunStatus::kind). */
enum class ErrorKind : std::uint8_t {
    None,               ///< run completed normally
    Config,             ///< bad user/launch/architecture configuration
    Parse,              ///< malformed kernel text or invalid program
    Internal,           ///< simulator bug (a broken internal invariant)
    BarrierDeadlock,    ///< convergence barrier can never be released
    Livelock,           ///< no instruction retired and nothing in flight
    InvariantViolation, ///< opt-in state audit found corruption
    CycleLimit,         ///< runaway: GpuConfig::maxCycles exceeded
    ChildTimeout,       ///< campaign cell process killed by the parent's
                        ///< wall-clock budget (distinct from the
                        ///< simulator's own forward-progress watchdog)
    ChildCrash,         ///< campaign cell process died on a signal
    Snapshot,           ///< corrupt/mismatched checkpoint container
};

/** Short stable name for an ErrorKind ("barrier-deadlock", ...). */
const char *errorKindName(ErrorKind kind);

/**
 * Which fault-tolerance mechanism produces this classification — e.g.
 * "forward-progress watchdog" for Livelock vs "campaign child timeout"
 * for ChildTimeout. Splits the historically conflated timeout-ish kinds
 * in diagnostics (swsim --inject, campaign reports).
 */
const char *errorDetectorName(ErrorKind kind);

/**
 * True for failures worth a bounded retry in a sweep campaign: the
 * child process crashed or overran its wall budget, or — only while
 * fault injection is active — a detector tripped (watchdog, invariant
 * checker, cycle cap), since the injected fault is gone on the next
 * attempt. Deterministic
 * failures (config, parse, barrier deadlock, snapshot corruption)
 * never retry: they would fail identically every time.
 */
bool errorKindIsTransient(ErrorKind kind, bool fault_injection_active);

/**
 * Outcome of one kernel run. Default-constructed means success; a failed
 * run carries the classification, a one-line message, and (for watchdog /
 * invariant failures) a multi-line machine-state diagnostic dump.
 */
struct RunStatus
{
    ErrorKind kind = ErrorKind::None;
    std::string message;
    std::string diagnostic;

    bool ok() const { return kind == ErrorKind::None; }

    /** "kind: message" one-liner for tables and logs. */
    std::string summary() const;

    static RunStatus
    failure(ErrorKind kind, std::string message,
            std::string diagnostic = "")
    {
        return RunStatus{kind, std::move(message), std::move(diagnostic)};
    }
};

/**
 * Exception carrying a structured simulator error. Thrown wherever a
 * run cannot go on; caught at the run boundary
 * (Gpu::runMulti, simulate(), runWorkload()) and converted into a
 * RunStatus.
 */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, const std::string &message,
             std::string diagnostic = "")
        : std::runtime_error(message),
          kind_(kind),
          diagnostic_(std::move(diagnostic))
    {
    }

    ErrorKind kind() const { return kind_; }
    const std::string &diagnostic() const { return diagnostic_; }

    RunStatus
    status() const
    {
        return RunStatus{kind_, what(), diagnostic_};
    }

  private:
    ErrorKind kind_;
    std::string diagnostic_;
};

namespace detail {

/** printf-style SimError construction helper (sim_throw macro body). */
[[noreturn]] [[gnu::format(printf, 2, 3)]]
void throwSimError(ErrorKind kind, const char *fmt, ...);

} // namespace detail
} // namespace si

/**
 * Throw a structured SimError with a printf-formatted message. The
 * message carries no source location, so one failure reads the same
 * from any checkout.
 */
#define sim_throw(kind, ...) \
    ::si::detail::throwSimError(kind, __VA_ARGS__)

/** sim_throw() when the failure condition @p cond holds. */
#define sim_throw_if(cond, kind, ...) \
    do { \
        if (cond) \
            sim_throw(kind, __VA_ARGS__); \
    } while (0)

#endif // SI_COMMON_SIM_ERROR_HH
