/** @file GpuConfig's field list: configFingerprint and validate(). */

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "harness/runner.hh"
#include "rt/apps.hh"

using namespace si;
using ::testing::HasSubstr;
using ::testing::Not;

namespace {

/** A different value of the same type. */
template <class T>
T
changed(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return v + "x";
    else if constexpr (std::is_same_v<T, bool>)
        return !v;
    else if constexpr (std::is_floating_point_v<T>)
        return v + 1;
    else if constexpr (std::is_enum_v<T>)
        return T(std::underlying_type_t<T>(v) ^ 1);
    else
        return T(v ^ 1);
}

/**
 * Changes each row's member of @p cfg in turn: the fingerprint must
 * move exactly for the hashed rows, and validate() must reject a value
 * just outside each bounded row's range, naming the row's key.
 */
struct RowProbe
{
    explicit RowProbe(GpuConfig &c) : cfg(c), base(configFingerprint(c)) {}

    GpuConfig &cfg;
    std::uint64_t base;
    std::vector<std::string> keys;
    std::vector<std::string> skipped;

    template <class T>
    void
    row(const char *key, T &member, std::type_identity_t<T> lo,
        std::type_identity_t<T> hi, Fingerprint fp = Fingerprint::Hash)
    {
        row(key, member, fp);
        if constexpr (std::is_floating_point_v<T>) {
            const T inf = std::numeric_limits<T>::infinity();
            rejects(key, member, std::nextafter(lo, -inf));
            rejects(key, member, std::nextafter(hi, inf));
            rejects(key, member, std::numeric_limits<T>::quiet_NaN());
        } else {
            using U = std::conditional_t<std::is_enum_v<T>,
                                         std::underlying_type<T>,
                                         std::type_identity<T>>::type;
            if (U(lo) > std::numeric_limits<U>::min())
                rejects(key, member, T(U(lo) - 1));
            if (U(hi) < std::numeric_limits<U>::max())
                rejects(key, member, T(U(hi) + 1));
        }
        accepts(key, member, lo);
        accepts(key, member, hi);
    }

    template <class T>
    void
    row(const char *key, T &member, Fingerprint fp = Fingerprint::Hash)
    {
        keys.push_back(key);
        if (fp == Fingerprint::Skip)
            skipped.push_back(key);
        const T old = member;
        member = changed(old);
        EXPECT_EQ(configFingerprint(cfg) != base, fp == Fingerprint::Hash)
            << key;
        member = old;
    }

    void constant(const char *, std::uint64_t) {}

    template <class T>
    void
    rejects(const char *key, T &member, T value)
    {
        const T old = member;
        member = value;
        try {
            cfg.validate();
            ADD_FAILURE() << key << " accepted a value outside its range";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config) << key;
            EXPECT_THAT(e.what(), HasSubstr(std::string(key) + " = "));
        }
        member = old;
    }

    /** A bound is in range: validate() may fail, but not on this row. */
    template <class T>
    void
    accepts(const char *key, T &member, T value)
    {
        const T old = member;
        member = value;
        try {
            cfg.validate();
        } catch (const SimError &e) {
            EXPECT_THAT(e.what(), Not(HasSubstr(std::string(key) + " = ")));
        }
        member = old;
    }
};

} // namespace

TEST(GpuConfigRows, FingerprintsMatchTheHandWrittenHash)
{
    // The values the per-field hash produced before the field list:
    // every checkpoint embeds them, so they must never move by accident.
    EXPECT_EQ(configFingerprint(GpuConfig{}), 0x058d6aaf0945260full);
    EXPECT_EQ(configFingerprint(withSi(baselineConfig(), bestSiConfigPoint())),
              0x23fc0f6aa43471efull);
}

TEST(GpuConfigRows, EachRowMovesTheFingerprintAndHasItsRange)
{
    GpuConfig cfg = withSi(baselineConfig(), bestSiConfigPoint());
    cfg.checkInvariants = true;
    ASSERT_NO_THROW(cfg.validate());
    RowProbe probe(cfg);
    GpuConfig::walk(cfg, probe);
    EXPECT_EQ(probe.keys.size(), 45u);
    EXPECT_EQ(probe.skipped,
              (std::vector<std::string>{"fastForward", "checkpointInterval"}));
}

TEST(GpuConfigRows, CrossFieldRules)
{
    GpuConfig cfg;
    cfg.maxSubwarps = 0;
    EXPECT_NO_THROW(cfg.validate()); // the TST is unused without SI
    cfg.siEnabled = true;
    EXPECT_THROW(cfg.validate(), SimError);

    cfg = GpuConfig{};
    cfg.invariantCheckInterval = 0;
    EXPECT_NO_THROW(cfg.validate()); // unused without the audit
    cfg.checkInvariants = true;
    EXPECT_THROW(cfg.validate(), SimError);

    cfg = GpuConfig{};
    cfg.l0i.assoc = 3; // 128 lines do not split into 3-way sets
    try {
        cfg.validate();
        ADD_FAILURE() << "bad geometry accepted";
    } catch (const SimError &e) {
        EXPECT_THAT(e.what(), HasSubstr("cache 'l0i'"));
    }
}

TEST(GpuConfigRows, WorkloadRunValidatesTheWorkloadsRtCore)
{
    // runWorkload takes the RT-core shape from Workload::rtc, so that
    // is the shape validate() sees: a negative per-node cost is a
    // config error, not a wrapped float-to-cycle cast.
    Workload wl = buildApp(AppId::AV1, 8);
    wl.rtc.cyclesPerNode = -1.0f;
    const GpuResult r = runWorkload(wl, baselineConfig());
    EXPECT_EQ(r.status.kind, ErrorKind::Config);
    EXPECT_THAT(r.status.message, HasSubstr("rtc.cyclesPerNode = -1"));
}

TEST(GpuConfigRows, WorkloadRunIgnoresTheConfigsRtCore)
{
    const Workload wl = buildApp(AppId::AV1, 8);
    GpuConfig cfg = baselineConfig();
    cfg.rtc = wl.rtc; // what perfbench does
    const GpuResult want = runWorkload(wl, cfg);
    ASSERT_TRUE(want.ok());

    cfg.rtc.numPipes = 0;
    const GpuResult got = runWorkload(wl, cfg);
    ASSERT_TRUE(got.ok()) << got.status.summary();
    EXPECT_EQ(got.cycles, want.cycles);
}
