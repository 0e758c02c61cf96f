/**
 * @file
 * The SmStats / RegionCounters field lists (core/sm.hh) drive merging,
 * metrics-window deltas, checkpoints and the si-stats-v1 listing. These
 * tests walk the lists themselves, so a row added later is covered
 * without editing them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "harness/report.hh"
#include "metrics/sampler.hh"
#include "snapshot/snapshot.hh"

using namespace si;

namespace {

/** Give every stored row of @p fields in @p s its own value. */
template <class S, std::size_t N>
void
fillDistinct(S &s, const StatField<S> (&fields)[N], std::uint64_t &next)
{
    for (const StatField<S> &f : fields) {
        switch (f.kind) {
          case StatKind::Sum:
          case StatKind::Max:
            s.*f.u64 = next++;
            break;
          case StatKind::Real:
            s.*f.f64 = double(next++) + 0.5;
            break;
          case StatKind::Reasons:
            for (std::uint64_t &v : s.*f.reasons)
                v = next++;
            break;
          case StatKind::Derived:
            break;
        }
    }
}

/** Stats whose counters all differ, from @p first up, @p regions regions. */
SmStats
distinctStats(std::uint64_t first, std::size_t regions)
{
    SmStats s;
    fillDistinct(s, smStatFields, first);
    s.regions.resize(regions);
    for (RegionCounters &rc : s.regions)
        fillDistinct(rc, regionStatFields, first);
    return s;
}

/** Every row of @p fields equal in @p got and @p want, by key. */
template <class S, std::size_t N>
void
expectRowsEq(const S &got, const S &want, const StatField<S> (&fields)[N],
             const std::string &where)
{
    for (const StatField<S> &f : fields) {
        switch (f.kind) {
          case StatKind::Sum:
          case StatKind::Max:
          case StatKind::Derived:
            EXPECT_EQ(f.word(got), f.word(want)) << where << f.key;
            break;
          case StatKind::Real:
            EXPECT_EQ(got.*f.f64, want.*f.f64) << where << f.key;
            break;
          case StatKind::Reasons:
            EXPECT_EQ(got.*f.reasons, want.*f.reasons) << where << f.key;
            break;
        }
    }
}

} // namespace

TEST(StatFields, EveryCounterSurvivesSaveRestore)
{
    const SmStats s = distinctStats(1, 3);
    SnapshotWriter w;
    s.save(w);
    const std::string container = w.finish();
    SnapshotReader r(container);
    SmStats back;
    back.restore(r);
    expectRowsEq(back, s, smStatFields, "");
    ASSERT_EQ(back.regions.size(), s.regions.size());
    for (std::size_t i = 0; i < s.regions.size(); ++i)
        expectRowsEq(back.regions[i], s.regions[i], regionStatFields,
                     "region " + std::to_string(i) + ": ");
    EXPECT_EQ(back, s);
}

TEST(StatFields, AccumulateThenDeltaReturnsTheAddend)
{
    // The addend also has a region the base lacks: the table grows.
    const SmStats base = distinctStats(1, 2);
    const SmStats addend = distinctStats(1000, 3);
    SmStats sum = base;
    sum.accumulate(addend);
    const SmStats d = statsDelta(base, sum);
    for (const StatField<SmStats> &f : smStatFields) {
        if (f.kind == StatKind::Max) {
            EXPECT_EQ(sum.*f.u64, std::max(base.*f.u64, addend.*f.u64))
                << f.key;
            EXPECT_EQ(d.*f.u64, sum.*f.u64 - base.*f.u64) << f.key;
        }
    }
    SmStats want = addend;
    want.cycles = d.cycles;
    expectRowsEq(d, want, smStatFields, "");
    ASSERT_EQ(d.regions.size(), addend.regions.size());
    for (std::size_t i = 0; i < addend.regions.size(); ++i)
        expectRowsEq(d.regions[i], addend.regions[i], regionStatFields,
                     "region " + std::to_string(i) + ": ");
}

TEST(StatFields, StatsGroupListsEveryKeyOnceInListOrder)
{
    const SmStats s = distinctStats(1, 1);
    std::vector<std::pair<std::string, std::uint64_t>> want;
    for (const StatField<SmStats> &f : smStatFields) {
        if (f.kind == StatKind::Reasons) {
            for (unsigned k = 0; k < numStallReasons; ++k)
                want.emplace_back(std::string(f.key) + "_" +
                                      stallReasonKey(StallReason(k)),
                                  (s.*f.reasons)[k]);
        } else if (f.kind != StatKind::Real) {
            want.emplace_back(f.key, f.word(s));
        }
    }

    const json::ParseResult doc =
        json::parse(statsGroup("sm0", s).dumpJson());
    ASSERT_TRUE(doc.ok) << doc.error;
    const json::Value *scalars = doc.value.find("scalars");
    const json::Value *formulas = doc.value.find("formulas");
    ASSERT_TRUE(scalars && scalars->isObject());
    ASSERT_TRUE(formulas && formulas->isObject());

    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const auto &[key, v] : scalars->object)
        got.emplace_back(key, std::uint64_t(v.number));
    EXPECT_EQ(got, want);

    std::map<std::string, int> seen;
    for (const auto &[key, v] : scalars->object)
        ++seen[key];
    for (const auto &[key, v] : formulas->object)
        ++seen[key];
    for (const auto &[key, n] : seen)
        EXPECT_EQ(n, 1) << key;
}
