#include "common/sim_error.hh"

#include <cstdarg>
#include <cstdio>

namespace si {

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::None: return "ok";
      case ErrorKind::Config: return "config";
      case ErrorKind::Parse: return "parse";
      case ErrorKind::Internal: return "internal";
      case ErrorKind::BarrierDeadlock: return "barrier-deadlock";
      case ErrorKind::Livelock: return "livelock";
      case ErrorKind::InvariantViolation: return "invariant-violation";
      case ErrorKind::CycleLimit: return "cycle-limit";
      case ErrorKind::ChildTimeout: return "child-timeout";
      case ErrorKind::ChildCrash: return "child-crash";
      case ErrorKind::Snapshot: return "snapshot";
    }
    return "unknown";
}

const char *
errorDetectorName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Livelock:
        return "forward-progress watchdog";
      case ErrorKind::BarrierDeadlock:
        return "barrier deadlock check";
      case ErrorKind::InvariantViolation:
        return "invariant checker";
      case ErrorKind::CycleLimit:
        return "runaway-cycle watchdog";
      case ErrorKind::ChildTimeout:
        return "campaign child timeout";
      case ErrorKind::ChildCrash:
        return "campaign child exit status";
      default:
        return "run-boundary error handling";
    }
}

bool
errorKindIsTransient(ErrorKind kind, bool fault_injection_active)
{
    switch (kind) {
      case ErrorKind::ChildTimeout:
      case ErrorKind::ChildCrash:
        return true;
      case ErrorKind::Livelock:
      case ErrorKind::InvariantViolation:
      case ErrorKind::CycleLimit:
        return fault_injection_active;
      default:
        return false;
    }
}

std::string
RunStatus::summary() const
{
    if (ok())
        return "ok";
    return std::string(errorKindName(kind)) + ": " + message;
}

namespace detail {

void
throwSimError(ErrorKind kind, const char *file, int line, const char *fmt,
              ...)
{
    char buf[1024];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);

    std::string message(buf);
    message += " (";
    message += file;
    message += ":";
    message += std::to_string(line);
    message += ")";
    throw SimError(kind, message);
}

} // namespace detail
} // namespace si
