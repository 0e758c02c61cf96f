/**
 * @file
 * The JSON writers of the warp-cycle partition (regionStatFields) that
 * si-stats-v1, si-metrics-v1, si-stall-v1 and si-profdiff-v1 share.
 * Count is std::int64_t for deltas (test - base modulo 2^64).
 */

#ifndef SI_METRICS_PARTITION_JSON_HH
#define SI_METRICS_PARTITION_JSON_HH

#include "common/json.hh"
#include "core/sm.hh"

namespace si {

/** Write one "<stall reason name>": count member per StallReason. */
template <class Count = std::uint64_t>
void
writeReasonCounts(json::Writer &w, const StallCounts &counts)
{
    for (unsigned k = 0; k < numStallReasons; ++k)
        w.key(stallReasonName(StallReason(k))).value(Count(counts[k]));
}

/**
 * Write one member per regionStatFields row of @p rc, keyed by @p key
 * (default: the row's own key); the stall-reason row is an object of
 * writeReasonCounts() members.
 */
template <class Count = std::uint64_t>
void
writeRegionCounters(json::Writer &w, const RegionCounters &rc,
                    const char *(*key)(const StatField<RegionCounters> &) = {})
{
    for (const StatField<RegionCounters> &f : regionStatFields) {
        w.key(key ? key(f) : f.key);
        if (f.kind != StatKind::Reasons) {
            w.value(Count(f.word(rc)));
            continue;
        }
        w.beginObject();
        writeReasonCounts<Count>(w, rc.*f.reasons);
        w.endObject();
    }
}

} // namespace si

#endif // SI_METRICS_PARTITION_JSON_HH
