/**
 * @file
 * Fault-injection harness. Deterministic, RNG-seeded corruption of live
 * machine state — scoreboard counts, in-flight writebacks, convergence
 * barrier masks — wired into a run through GpuConfig::faultHook. The
 * point is to *prove* the fault-tolerance layer: every injected fault
 * must be caught by the forward-progress watchdog or the invariant
 * checker and surface as a classified RunStatus, never as a hang or a
 * process abort.
 */

#ifndef SI_FAULT_INJECTOR_HH
#define SI_FAULT_INJECTOR_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/gpu.hh"

namespace si {

/** The machine state a FaultInjector corrupts. */
enum class FaultKind : std::uint8_t {
    /**
     * Increment a scoreboard that is already outstanding on a live
     * lane. The extra count has no writeback to drain it, so the lane's
     * consumers wait forever: the invariant checker flags the release
     * imbalance, or the watchdog flags the eventual livelock.
     */
    ScoreboardCorruption,

    /**
     * Silently discard a pending writeback event. The scoreboard it
     * would have released stays nonzero forever — same detectors as
     * ScoreboardCorruption, opposite direction (event lost rather than
     * count gained).
     */
    DroppedWriteback,

    /**
     * Remove a BLOCKED lane from the participation mask of the
     * convergence barrier it waits on. Reconvergence can then never
     * release it: the invariant checker flags the missing participant,
     * or the SM's deadlock check fires once every live lane blocks.
     */
    BarrierMaskCorruption,
};

/** Short stable name ("scoreboard-corruption", ...). */
const char *faultKindName(FaultKind kind);

/** The command-line name of each kind (--inject scoreboard|dropwb|barrier). */
const std::vector<std::pair<std::string, FaultKind>> &faultKindCliNames();

/** One fault to inject into one run. */
struct FaultSpec
{
    FaultKind kind = FaultKind::ScoreboardCorruption;

    /**
     * First cycle at which injection may happen. The injector retries
     * every cycle from here until the machine is in an injectable state
     * (e.g. a writeback is actually in flight).
     */
    Cycle earliestCycle = 500;

    /** Seed for the victim-selection RNG (deterministic campaigns). */
    std::uint64_t seed = 1;
};

/**
 * Injects one fault into a running GPU; armFault() installs one. After
 * the run, fired() says whether an injection point was ever reached and
 * description() what exactly was corrupted.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultSpec &spec)
        : spec_(spec), rng_(spec.seed)
    {
    }

    /** The hook body. Its pin is earliestCycle while armed (no leap
     *  passes an armed injector) and invalidCycle once fired. */
    Cycle onCycle(Gpu &gpu, Cycle now);

    bool fired() const { return fired_; }
    const std::string &description() const { return description_; }
    const FaultSpec &spec() const { return spec_; }

  private:
    void tryScoreboard(Gpu &gpu, Cycle now);
    void tryDropWriteback(Gpu &gpu, Cycle now);
    void tryBarrierMask(Gpu &gpu, Cycle now);

    FaultSpec spec_;
    Rng rng_;
    bool fired_ = false;
    std::string description_;
};

/**
 * The one way to arm a fault: install as @p config's faultHook a hook
 * that owns a FaultInjector for @p spec, and turn the invariant audit on
 * so the fault has a detector aimed at it. The returned injector is the
 * hook's (shared by every copy of the config), for reading fired() and
 * description() after the run.
 */
std::shared_ptr<const FaultInjector> armFault(GpuConfig &config,
                                              const FaultSpec &spec);

} // namespace si

#endif // SI_FAULT_INJECTOR_HH
