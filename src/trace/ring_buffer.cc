#include "trace/sinks.hh"

namespace si {

RingBufferSink::RingBufferSink(std::size_t capacity)
    : buf_(capacity == 0 ? 1 : capacity)
{
}

void
RingBufferSink::record(const TraceEvent &event)
{
    buf_[head_] = event;
    head_ = (head_ + 1) % buf_.size();
    ++recorded_;
}

std::vector<TraceEvent>
RingBufferSink::snapshot() const
{
    std::vector<TraceEvent> out;
    if (recorded_ < buf_.size()) {
        out.assign(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(recorded_));
    } else {
        out.reserve(buf_.size());
        // Oldest surviving event sits at head_ once we have wrapped.
        out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                   buf_.end());
        out.insert(out.end(), buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    }
    return out;
}

void
RingBufferSink::clear()
{
    head_ = 0;
    recorded_ = 0;
}

} // namespace si
