/**
 * @file
 * A generic set-associative, LRU, tag-only cache model used for the L1
 * data cache and the L0/L1 instruction caches. The simulator is timing-
 * directed: data values live in functional memory, so the cache tracks
 * tags and recency only.
 */

#ifndef SI_MEM_CACHE_HH
#define SI_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace si {

class SnapshotWriter;
class SnapshotReader;

/** Geometry and identity of a cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned lineBytes = 128;
    unsigned assoc = 4;
};

/**
 * Throw SimError(ErrorKind::Config) unless @p config is a buildable
 * geometry: a power-of-two line, nonzero associativity, a whole number
 * of sets and a power-of-two set count.
 */
void checkCacheGeometry(const CacheConfig &config);

/**
 * Tag-only set-associative cache with true-LRU replacement.
 * access() combines lookup and fill-on-miss, which is the behaviour
 * every client here wants (no write-allocate subtleties: stores are
 * fire-and-forget in this simulator, as in the paper's stub model).
 */
class Cache
{
  public:
    /** Throws what checkCacheGeometry() throws for @p config. */
    explicit Cache(const CacheConfig &config);

    /** Bytes of the tag array a cache of geometry @p config allocates. */
    static std::uint64_t tagArrayBytes(const CacheConfig &config);

    /** Outcome of an access, for trace emission. */
    struct AccessResult
    {
        bool hit = false;
        /** Miss only: the fill victimized a valid resident line. */
        bool evicted = false;
    };

    /**
     * Look up @p addr; on miss, victimize the LRU way and fill.
     * @return true on hit.
     */
    bool access(Addr addr) { return accessEx(addr).hit; }

    /** access() plus eviction info (drives CacheFill trace events). */
    AccessResult accessEx(Addr addr);

    /** Look up without filling or touching recency. */
    bool probe(Addr addr) const;

    /** Invalidate everything (kernel launch boundary). */
    void reset();

    /** Line-align an address. */
    Addr
    lineOf(Addr addr) const
    {
        return addr & ~Addr(config_.lineBytes - 1);
    }

    unsigned lineBytes() const { return config_.lineBytes; }
    const CacheConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Serialize tags, recency, and hit/miss counters. */
    void save(SnapshotWriter &w) const;

    /**
     * Restore a state serialized by save(). The geometry (size, line,
     * assoc) must match this cache's configuration; a mismatch throws
     * SimError(ErrorKind::Snapshot).
     */
    void restore(SnapshotReader &r);

  private:
    template <class Self, class Ar>
    static void walk(Self &self, Ar &ar);

    struct Line
    {
        Addr tag = ~Addr(0);
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned setIndex(Addr addr) const;

    CacheConfig config_;
    unsigned numSets_;
    std::vector<Line> lines_; ///< numSets_ * assoc, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace si

#endif // SI_MEM_CACHE_HH
