#include "probe.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

/** Minimum spacing of HostSpeed samples. */
constexpr std::int64_t sampleIntervalNs = 250'000'000;

/** Samples behind recentFactor(): the last ~0.75 s of a run. */
constexpr std::size_t recentSamples = 3;

constexpr std::uint32_t tableWords = 1u << 17; ///< 512 KB
constexpr std::uint32_t loads = 1u << 22;

/** Receives the loop's sum so the loads are not optimised away. */
volatile std::uint64_t referenceSink;

} // namespace

HostSpeed::HostSpeed() : table_(tableWords)
{
    std::uint32_t x = 2463534242u;
    for (std::uint32_t &v : table_) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        v = x;
    }
}

void
HostSpeed::sample()
{
    if (!last_ || nowNs() - last_ >= sampleIntervalNs)
        sampleNow();
}

double
HostSpeed::sampleNow()
{
    const std::int64_t t0 = nowNs();
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < loads; ++i)
        acc += table_[(i * 2654435761u) & (tableWords - 1)];
    referenceSink = acc;
    last_ = nowNs();
    ns_.push_back(double(last_ - t0));
    spentNs_ += last_ - t0;
    return ns_.back();
}

double
HostSpeed::factor() const
{
    return ns_.empty() ? 1.0 : nominalNs / median(ns_);
}

double
HostSpeed::recentFactor() const
{
    const std::size_t n = std::min(ns_.size(), recentSamples);
    if (n == 0)
        return 1.0;
    return nominalNs / median(std::vector<double>(
                           ns_.end() - std::ptrdiff_t(n), ns_.end()));
}

int
Tracer::open(std::string name)
{
    const std::int64_t t = nowNs();
    const int id = record(std::move(name), t, t, top());
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    Span &s = spans_[std::size_t(id)];
    s.end = nowNs();
    s.ns = s.end - s.start;
    stack_.pop_back();
}

int
Tracer::record(std::string name, std::int64_t start, std::int64_t end,
               int parent, int cell)
{
    return recordAggregate(std::move(name), start, end, end - start,
                           parent, cell);
}

int
Tracer::recordAggregate(std::string name, std::int64_t start,
                        std::int64_t end, std::int64_t ns, int parent,
                        int cell)
{
    if (cell < 0 && parent >= 0)
        cell = spans_[std::size_t(parent)].cell;
    spans_.push_back(
        Span{std::move(name), start, end, ns, parent, cell, counting_});
    return int(spans_.size() - 1);
}

std::vector<std::pair<std::string, std::int64_t>>
Tracer::selfNsByLayer() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!spans_[i].counted)
            continue;
        self[i] += spans_[i].ns;
        if (spans_[i].parent >= 0)
            self[std::size_t(spans_[i].parent)] -= spans_[i].ns;
    }
    std::map<std::string, std::int64_t> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!spans_[i].counted)
            continue;
        const std::string &n = spans_[i].name;
        by_layer[n.substr(0, n.find('.'))] += self[i];
    }
    return {by_layer.begin(), by_layer.end()};
}

std::string
Tracer::chromeJson() const
{
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << double(s.start - origin) / 1e3
           << ",\"dur\":" << double(s.end - s.start) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"cell\":" << s.cell << ",\"ns\":" << s.ns << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

void
ProbeSampler::closeIteration(std::int64_t t)
{
    if (last_ && tickNs_)
        tickNs_->push_back(float(t - last_));
}

void
ProbeSampler::onCycle(const si::Gpu &gpu, si::Cycle now)
{
    const std::int64_t t = nowNs();
    closeIteration(t);
    ++ticks_;
    if (inner_) {
        inner_->onCycle(gpu, now);
        last_ = nowNs();
        innerNs_ += last_ - t;
    } else {
        last_ = t;
    }
}

void
ProbeSampler::finish(const si::Gpu &gpu, si::Cycle now)
{
    const std::int64_t t = nowNs();
    closeIteration(t);
    last_ = 0;
    if (inner_) {
        inner_->finish(gpu, now);
        innerNs_ += nowNs() - t;
    }
}

si::Cycle
ProbeSampler::horizonPin(si::Cycle now) const
{
    return inner_ ? inner_->horizonPin(now) : si::invalidCycle;
}

void
ProbeSampler::save(si::SnapshotWriter &w) const
{
    if (inner_)
        inner_->save(w);
}

void
ProbeSampler::restore(si::SnapshotReader &r)
{
    if (inner_)
        inner_->restore(r);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    const std::size_t mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + std::ptrdiff_t(mid),
                     xs.end());
    if (xs.size() % 2)
        return xs[mid];
    const double hi = xs[mid];
    const double lo =
        *std::max_element(xs.begin(), xs.begin() + std::ptrdiff_t(mid));
    return (lo + hi) / 2;
}

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double rank = std::ceil(pct / 100.0 * double(xs.size()));
    const std::size_t idx = rank < 1 ? 0 : std::size_t(rank) - 1;
    return xs[std::min(idx, xs.size() - 1)];
}

} // namespace perfbench
