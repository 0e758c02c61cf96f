#include "trace/sinks.hh"

#include <cstring>
#include <istream>
#include <ostream>

namespace si {

namespace {

constexpr char binaryMagic[8] = {'S', 'I', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t binaryVersion = 2;

void
putU32(std::ostream &os, std::uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return bool(is);
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return bool(is);
}

} // namespace

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

void
RingBufferSink::writeBinary(std::ostream &os) const
{
    const std::vector<TraceEvent> events = snapshot();
    os.write(binaryMagic, sizeof(binaryMagic));
    putU32(os, binaryVersion);
    putU32(os, std::uint32_t(sizeof(TraceEvent)));
    putU64(os, std::uint64_t(events.size()));
    putU64(os, dropped());
    for (const TraceEvent &ev : events)
        os.write(reinterpret_cast<const char *>(&ev), sizeof(ev));
}

bool
RingBufferSink::readBinary(std::istream &is, std::vector<TraceEvent> &out,
                           std::uint64_t &dropped_out)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, binaryMagic, sizeof(magic)) != 0)
        return false;
    std::uint32_t version, rec_size;
    std::uint64_t count, dropped;
    if (!getU32(is, version) || !getU32(is, rec_size) ||
        !getU64(is, count) || !getU64(is, dropped)) {
        return false;
    }
    if (version != binaryVersion || rec_size != sizeof(TraceEvent))
        return false;
    // The count is untrusted: it must fit in the bytes actually left
    // before anything is allocated for it.
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1) || !is.seekg(0, std::ios::end))
        return false;
    const auto remaining = std::uint64_t(is.tellg() - here);
    is.seekg(here);
    if (!is || count > remaining / sizeof(TraceEvent))
        return false;
    std::vector<TraceEvent> events(count);
    for (TraceEvent &ev : events) {
        is.read(reinterpret_cast<char *>(&ev), sizeof(ev));
        if (!is || ev.kind > lastTraceEventKind)
            return false;
    }
    out = std::move(events);
    dropped_out = dropped;
    return true;
}

} // namespace si
