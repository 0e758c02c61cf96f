/**
 * @file
 * Concrete TraceSink implementations: an unbounded in-memory sink for
 * tests and short runs, a bounded ring buffer for always-on capture
 * ("flight recorder": keep the last N events, count the rest), and a
 * tee for feeding several consumers from one run.
 */

#ifndef SI_TRACING_SINKS_HH
#define SI_TRACING_SINKS_HH

#include <cstdint>
#include <vector>

#include "trace/events.hh"

namespace si {

/** Append every event to a std::vector. Unbounded; tests and tools. */
class VectorSink : public TraceSink
{
  public:
    void record(const TraceEvent &event) override
    {
        events_.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    void clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
};

/**
 * Bounded-memory sink: keeps the most recent @p capacity events,
 * overwriting the oldest and counting how many were dropped. This is
 * what makes tracing safe to leave on for livelock hunts — memory use
 * is fixed no matter how long the run spins, and the tail of the
 * timeline (the interesting part of a hang) survives.
 */
class RingBufferSink : public TraceSink
{
  public:
    explicit RingBufferSink(std::size_t capacity);

    void record(const TraceEvent &event) override;

    std::size_t capacity() const { return buf_.size(); }
    /** Total record() calls, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events lost to wraparound. */
    std::uint64_t dropped() const
    {
        return recorded_ <= buf_.size() ? 0 : recorded_ - buf_.size();
    }

    /** Surviving events in chronological order. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

  private:
    std::vector<TraceEvent> buf_;
    std::size_t head_ = 0;        ///< next write position
    std::uint64_t recorded_ = 0;
};

/** Forward each event to two sinks (chain for more). */
class TeeSink : public TraceSink
{
  public:
    TeeSink(TraceSink &a, TraceSink &b) : a_(a), b_(b) {}

    void record(const TraceEvent &event) override
    {
        a_.record(event);
        b_.record(event);
    }

  private:
    TraceSink &a_;
    TraceSink &b_;
};

} // namespace si

#endif // SI_TRACING_SINKS_HH
