#include "mem/cache.hh"

#include <bit>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"

namespace si {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    sim_throw_if(config_.lineBytes == 0 ||
                     !std::has_single_bit(
                         std::uint64_t(config_.lineBytes)),
                 ErrorKind::Config,
                 "cache '%s': line size must be a power of two",
                 config_.name.c_str());
    sim_throw_if(config_.assoc == 0, ErrorKind::Config,
                 "cache '%s': assoc must be nonzero",
                 config_.name.c_str());

    std::uint64_t lines = config_.sizeBytes / config_.lineBytes;
    sim_throw_if(lines == 0 || lines % config_.assoc != 0,
                 ErrorKind::Config,
                 "cache '%s': size/line/assoc geometry inconsistent",
                 config_.name.c_str());
    numSets_ = unsigned(lines / config_.assoc);
    sim_throw_if(!std::has_single_bit(std::uint64_t(numSets_)),
                 ErrorKind::Config,
                 "cache '%s': set count must be a power of two",
                 config_.name.c_str());
    lines_.resize(lines);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return unsigned((addr / config_.lineBytes) & (numSets_ - 1));
}

Cache::AccessResult
Cache::accessEx(Addr addr)
{
    const Addr tag = lineOf(addr);
    Line *set = &lines_[std::size_t(setIndex(addr)) * config_.assoc];
    ++useClock_;

    Line *victim = &set[0];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            ++hits_;
            return {true, false};
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    const bool evicted = victim->valid;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    return {false, evicted};
}

bool
Cache::probe(Addr addr) const
{
    const Addr tag = lineOf(addr);
    const Line *set = &lines_[std::size_t(setIndex(addr)) * config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

template <class Self, class Ar>
void
Cache::walk(Self &self, Ar &ar)
{
    const CacheConfig &cfg = self.config_;
    const std::string who = "cache '" + cfg.name + "'";
    ar.tag(SnapTag::Cache);
    ar.fixed(who, "name", cfg.name);
    ar.fixed(who, "size", cfg.sizeBytes);
    ar.fixed(who, "line bytes", cfg.lineBytes);
    ar.fixed(who, "associativity", cfg.assoc);
    ar.fixed(who, "lines", self.lines_.size());
    for (auto &line : self.lines_)
        ar.io(line.tag, line.lastUse, line.valid);
    ar.io(self.useClock_, self.hits_, self.misses_);
}

void
Cache::save(SnapshotWriter &w) const
{
    walk(*this, w);
}

void
Cache::restore(SnapshotReader &r)
{
    walk(*this, r);
}

void
Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    useClock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

} // namespace si
