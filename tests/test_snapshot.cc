/**
 * @file
 * Checkpoint/restore tests: the sisnap-v2 container round-trips every
 * primitive and fails loudly on any corruption; component and whole-GPU
 * snapshots restore bit-exactly; fingerprint mismatches (wrong config,
 * wrong program) are rejected instead of resurrecting a wrong machine;
 * and the deterministic-replay validator blesses real kernels.
 */

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "metrics/sampler.hh"
#include "snapshot/replay.hh"
#include "snapshot/snapshot.hh"

namespace si {
namespace {

using ::testing::HasSubstr;

// Divergent load-heavy kernel: long enough (hundreds of cycles) that a
// mid-run checkpoint freezes genuinely in-flight state — pending
// writebacks, split subwarps, partially-retired warps.
const char *kDivergentLoads = R"(
S2R R0, LANEID
ISETP.LT P0, R0, 16
BSSY B0, join
@P0 BRA taken
MOV R1, 0x100000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
BSYNC B0
join:
EXIT
taken:
MOV R1, 0x200000
LDG R2, [R1+0] &wr=sb1
FADD R3, R2, R2 &req=sb1
LDG R4, [R1+8] &wr=sb2
FADD R5, R4, R4 &req=sb2
BSYNC B0
BRA join
)";

std::string
tempPath(const char *stem)
{
    return std::string(::testing::TempDir()) + stem;
}

TEST(SnapshotContainer, PrimitivesRoundTrip)
{
    SnapshotWriter w;
    w.tag(SnapTag::Meta);
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(-1234.5678);
    w.b(true);
    w.b(false);
    w.str("hello \x01 world");
    w.tag(SnapTag::End);

    const std::string container = w.finish();
    SnapshotReader r(container);
    r.tag(SnapTag::Meta);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), -1234.5678);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello \x01 world");
    r.tag(SnapTag::End);
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(SnapshotContainer, BadMagicRejected)
{
    SnapshotWriter w;
    w.u32(7);
    std::string container = w.finish();
    container[0] ^= 0x20;
    try {
        SnapshotReader r(container);
        FAIL() << "corrupt magic accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.status().kind, ErrorKind::Snapshot);
    }
}

TEST(SnapshotContainer, TruncationRejected)
{
    SnapshotWriter w;
    w.u64(42);
    const std::string container = w.finish();
    for (std::size_t cut = 0; cut < container.size(); ++cut) {
        try {
            SnapshotReader r(container.substr(0, cut));
            FAIL() << "truncated container (len " << cut << ") accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.status().kind, ErrorKind::Snapshot);
        }
    }
}

TEST(SnapshotContainer, ErrorCarriesNoSourceLocation)
{
    // A source location would put the build tree's absolute path into
    // every message, and from there into campaign manifests.
    SnapshotWriter w;
    w.u64(42);
    const std::string container = w.finish();
    try {
        SnapshotReader r(container.substr(0, container.size() - 1));
        FAIL() << "truncated container accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Snapshot);
        EXPECT_THAT(e.what(), ::testing::HasSubstr("payload length"));
        EXPECT_THAT(e.what(), ::testing::Not(::testing::HasSubstr(".cc:")));
    }
}

TEST(SnapshotContainer, PayloadBitflipFailsChecksum)
{
    SnapshotWriter w;
    w.str("payload payload payload");
    std::string container = w.finish();
    container[container.size() - 3] ^= 0x01;
    try {
        SnapshotReader r(container);
        FAIL() << "bit-flipped payload accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.status().kind, ErrorKind::Snapshot);
        EXPECT_THAT(e.status().message, HasSubstr("checksum"));
    }
}

TEST(SnapshotContainer, TagMismatchRejected)
{
    SnapshotWriter w;
    w.tag(SnapTag::Warp);
    const std::string container = w.finish();
    SnapshotReader r(container);
    try {
        r.tag(SnapTag::Cache);
        FAIL() << "wrong section tag accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.status().kind, ErrorKind::Snapshot);
    }
}

TEST(SnapshotContainer, TrailingGarbageRejected)
{
    SnapshotWriter w;
    w.u32(1);
    w.u32(2); // reader will consume only one
    const std::string container = w.finish();
    SnapshotReader r(container);
    r.u32();
    EXPECT_THROW(r.expectEnd(), SimError);
}

TEST(SnapshotContainer, FileRoundTripIsBitExact)
{
    SnapshotWriter w;
    w.tag(SnapTag::Memory);
    w.str(std::string("\x00\xff\x7f binary", 10));
    const std::string container = w.finish();
    const std::string path = tempPath("snap_file_roundtrip.ckpt");
    writeFileAtomic(path, container);
    EXPECT_EQ(readWholeFile(path), container);
    std::remove(path.c_str());
    EXPECT_EQ(readWholeFile(path), std::nullopt);
}

TEST(SnapshotMemory, RoundTripAndOverwrite)
{
    Memory a;
    a.write(0x1000, 0xdeadbeefu);
    a.write(0x2004, 7);
    a.writeF(0x3000, 1.5f);

    SnapshotWriter w;
    a.save(w);
    const std::string container = w.finish();

    Memory b;
    b.write(0x9999 & ~3u, 1); // stale content must not survive restore
    SnapshotReader r(container);
    b.restore(r);

    Addr diff = 0;
    EXPECT_FALSE(a.firstDifference(b, diff)) << "first diff at " << diff;
    EXPECT_EQ(b.read(0x9999 & ~3u), 0u);
}

TEST(SnapshotCache, CountersAndRecencyRoundTrip)
{
    CacheConfig cc;
    cc.sizeBytes = 4 * 1024;
    cc.lineBytes = 128;
    cc.assoc = 2;
    Cache a(cc);
    for (Addr addr = 0; addr < 64 * 128; addr += 128)
        a.access(addr);
    a.access(0); // re-touch: recency now differs from fill order

    SnapshotWriter w;
    a.save(w);
    const std::string container = w.finish();

    Cache b(cc);
    SnapshotReader r(container);
    b.restore(r);
    EXPECT_EQ(b.hits(), a.hits());
    EXPECT_EQ(b.misses(), a.misses());
    for (Addr addr = 0; addr < 64 * 128; addr += 128)
        EXPECT_EQ(b.probe(addr), a.probe(addr)) << "line " << addr;
}

TEST(SnapshotCache, GeometryMismatchRejected)
{
    CacheConfig cc;
    Cache a(cc);
    SnapshotWriter w;
    a.save(w);
    const std::string container = w.finish();

    cc.assoc *= 2;
    Cache b(cc);
    SnapshotReader r(container);
    try {
        b.restore(r);
        FAIL() << "geometry mismatch accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.status().kind, ErrorKind::Snapshot);
    }
}

/** Run the kernel once, freezing a one-shot checkpoint at @p at. */
std::string
checkpointAt(const GpuConfig &base, const Program &prog, Cycle at,
             GpuResult *fresh_out = nullptr)
{
    GpuConfig cfg = base;
    std::string container;
    cfg.checkpointHook = [&container, at](const Gpu &gpu, Cycle now) {
        if (now < at)
            return at;
        if (now == at) {
            SnapshotWriter w;
            gpu.save(w);
            container = w.finish();
        }
        return invalidCycle;
    };
    Memory mem;
    const GpuResult r = simulate(cfg, mem, prog, {8, 4});
    EXPECT_TRUE(r.ok()) << r.status.summary();
    if (fresh_out)
        *fresh_out = r;
    return container;
}

TEST(SnapshotGpu, MidRunCheckpointResumesBitExactly)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = true;
    cfg.yieldEnabled = true;

    GpuResult fresh;
    const std::string container = checkpointAt(cfg, prog, 50, &fresh);
    ASSERT_FALSE(container.empty()) << "kernel retired before cycle 50";

    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult resumed = gpu.runMulti({{&prog, {8, 4}}}, &container);

    ASSERT_TRUE(resumed.ok()) << resumed.status.summary();
    EXPECT_EQ(resumed.cycles, fresh.cycles);
    EXPECT_EQ(resumed.total.instrsIssued, fresh.total.instrsIssued);
    EXPECT_EQ(resumed.total.warpsRetired, fresh.total.warpsRetired);
    EXPECT_EQ(resumed.total.subwarpSelects, fresh.total.subwarpSelects);
    EXPECT_TRUE(resumed.total == fresh.total);
}

TEST(SnapshotGpu, ConfigFingerprintMismatchRejected)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    const std::string container = checkpointAt(cfg, prog, 50);
    ASSERT_FALSE(container.empty());

    GpuConfig other = cfg;
    other.siEnabled = true; // different machine; restore must refuse
    Memory mem;
    Gpu gpu(other, mem);
    const GpuResult res = gpu.runMulti({{&prog, {8, 4}}}, &container);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status.kind, ErrorKind::Snapshot);
    EXPECT_THAT(res.status.message, HasSubstr("config"));
}

TEST(SnapshotGpu, ProgramFingerprintMismatchRejected)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    const std::string container = checkpointAt(cfg, prog, 50);
    ASSERT_FALSE(container.empty());

    const Program other = assembleOrDie(R"(
MOV R1, 0x100000
LDG R2, [R1+0] &wr=sb0
FADD R3, R2, R2 &req=sb0
EXIT
)");
    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult res = gpu.runMulti({{&other, {8, 4}}}, &container);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status.kind, ErrorKind::Snapshot);
}

TEST(SnapshotGpu, LaunchGeometryMismatchRejected)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    const std::string container = checkpointAt(cfg, prog, 50);
    ASSERT_FALSE(container.empty());

    Memory mem;
    Gpu gpu(cfg, mem);
    const GpuResult res = gpu.runMulti({{&prog, {4, 4}}}, &container);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status.kind, ErrorKind::Snapshot);
}

TEST(SnapshotGpu, CorruptContainerIsARunStatus)
{
    // Container checks run inside the run boundary: truncated or
    // bit-flipped bytes come back as the run's status, never a throw.
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    const std::string container = checkpointAt(cfg, prog, 50);
    ASSERT_FALSE(container.empty());

    std::string flipped = container;
    flipped[flipped.size() - 3] ^= 0x01;
    for (const std::string &bad :
         {container.substr(0, container.size() / 2), flipped}) {
        Memory mem;
        Gpu gpu(cfg, mem);
        GpuResult res;
        ASSERT_NO_THROW(res = gpu.runMulti({{&prog, {8, 4}}}, &bad));
        EXPECT_EQ(res.status.kind, ErrorKind::Snapshot);
    }
    Memory mem;
    Gpu gpu(cfg, mem);
    EXPECT_THAT(gpu.runMulti({{&prog, {8, 4}}}, &flipped).status.message,
                HasSubstr("checksum"));
}

TEST(ReplayValidator, BlessesDeterministicKernel)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.siEnabled = true;
    cfg.yieldEnabled = true;

    const ReplayCheckResult rep =
        validateDeterministicReplay(cfg, {{&prog, {8, 4}}});
    EXPECT_TRUE(rep.ok()) << rep.detail;
    EXPECT_TRUE(rep.checkpointTaken);
    EXPECT_GT(rep.checkpointCycle, 0u);
    EXPECT_GT(rep.cycles, rep.checkpointCycle);
}

TEST(ReplayValidator, HonorsExplicitCheckpointCycle)
{
    const Program prog = assembleOrDie(kDivergentLoads);
    GpuConfig cfg;
    cfg.numSms = 1;

    ReplayCheckOptions opts;
    opts.checkpointCycle = 17;
    const ReplayCheckResult rep =
        validateDeterministicReplay(cfg, {{&prog, {8, 4}}}, opts);
    EXPECT_TRUE(rep.ok()) << rep.detail;
    EXPECT_TRUE(rep.checkpointTaken);
    EXPECT_EQ(rep.checkpointCycle, 17u);
}

// ---- corruption matrix: well-framed payloads carrying bad values ----
//
// Each case patches one field of a real component payload, frames it
// again with a valid checksum, and requires restore() to fail with
// ErrorKind::Snapshot instead of indexing out of bounds or allocating
// whatever a count claims.

std::string
payloadOf(const std::string &container)
{
    return container.substr(container.size() -
                            SnapshotReader(container).remaining());
}

void
putUint(std::string &buf, std::size_t off, std::uint64_t v, unsigned bytes)
{
    ASSERT_LE(off + bytes, buf.size());
    for (unsigned i = 0; i < bytes; ++i)
        buf[off + i] = char((v >> (8 * i)) & 0xff);
}

std::uint64_t
getU64(const std::string &buf, std::size_t off)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(buf[off + i]))
             << (8 * i);
    return v;
}

/** A sisnap container around @p payload, with a valid checksum. */
std::string
reframe(const std::string &payload)
{
    std::string out = SnapshotWriter().finish(); // header only
    const std::size_t header = out.size();
    Fnv1a fnv;
    fnv.update(payload.data(), payload.size());
    putUint(out, header - 16, payload.size(), 8);
    putUint(out, header - 8, fnv.digest(), 8);
    return out + payload;
}

template <typename Component>
std::string
savedPayload(const Component &c)
{
    SnapshotWriter w;
    c.save(w);
    return payloadOf(w.finish());
}

/** Restore @p payload into @p target; expect a Snapshot-kind SimError. */
void
expectRejected(const std::string &payload,
               const std::function<void(SnapshotReader &)> &target,
               const char *what)
{
    const std::string container = reframe(payload);
    SnapshotReader r(container);
    try {
        target(r);
        ADD_FAILURE() << what << ": corrupt payload accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.status().kind, ErrorKind::Snapshot) << what;
    }
}

constexpr std::uint64_t hugeCount = 0x0000ffffffffffffull;

TEST(SnapshotCorruption, WarpRejectsBadStatus)
{
    const Program prog = assembleOrDie("EXIT\n");
    const Warp warp(0, 0, &prog, warpSize);
    const std::string good = savedPayload(warp);

    // tag, id/pb/cta/logical, register count + file, predicates.
    const std::size_t regs_off = 4 + 16;
    const std::size_t state_off = regs_off + 8 +
                                  4 * getU64(good, regs_off) + warpSize;
    const std::size_t live_off = state_off + warpSize + 4 * warpSize;
    const std::size_t blocked_off = live_off + 4 + 4 * Warp::numBarriers;
    const std::size_t tst_off =
        blocked_off + warpSize + warpSize * ScoreboardFile::numSb;
    ASSERT_EQ(getU64(good, tst_off), 0u) << "layout drifted";

    auto into_warp = [&](SnapshotReader &r) {
        Warp w(0, 0, &prog, warpSize);
        w.restore(r);
    };
    {
        Warp w(0, 0, &prog, warpSize);
        const std::string container = reframe(good);
        SnapshotReader r(container);
        EXPECT_NO_THROW(w.restore(r)); // the unpatched control
    }

    std::string bad = good;
    bad[state_off + 3] = char(std::uint8_t(ThreadState::Stalled) + 1);
    expectRejected(bad, into_warp, "state byte past Stalled");

    bad = good;
    putUint(bad, live_off, 0x7fffffffu, 4);
    expectRejected(bad, into_warp, "live word vs INACTIVE mask");

    bad = good;
    bad[blocked_off + 5] = char(Warp::numBarriers);
    expectRejected(bad, into_warp, "blockedOn past the last barrier");

    bad = good;
    putUint(bad, tst_off, hugeCount, 8);
    expectRejected(bad, into_warp, "TST entry count");
}

TEST(SnapshotCorruption, SmRejectsBadIndicesAndCounts)
{
    // One warp, never ticked: it sits in the pending-admission list,
    // every processing block is empty, and no writeback is queued.
    const Program prog = assembleOrDie("EXIT\n");
    const GpuConfig cfg;
    Memory mem;
    auto make_sm = [&] {
        auto sm = std::make_unique<Sm>(0, cfg, mem, nullptr);
        sm->addWarp(std::make_unique<Warp>(0, 0, &prog, warpSize));
        return sm;
    };
    const std::string good = savedPayload(*make_sm());

    const std::size_t warp_bytes =
        savedPayload(Warp(0, 0, &prog, warpSize)).size();
    const std::size_t cache_bytes = savedPayload(Cache(cfg.l0i)).size();
    const std::size_t pb_bytes = 4 + cache_bytes + 8 + 12;
    const std::size_t pending_off = 4 + 4 + 4 + 8 + warp_bytes;
    const std::size_t resident_off = pending_off + 8 + 4 + 8 + 4 +
                                     cache_bytes;
    const std::size_t events_off =
        pending_off + 8 + 4 + 8 + cfg.pbsPerSm * pb_bytes;
    ASSERT_EQ(getU64(good, pending_off), 1u) << "layout drifted";
    ASSERT_EQ(getU64(good, resident_off), 0u) << "layout drifted";
    ASSERT_EQ(getU64(good, events_off), 0u) << "layout drifted";

    auto into_sm = [&](SnapshotReader &r) { make_sm()->restore(r); };

    std::string bad = good;
    putUint(bad, pending_off + 8, 1, 4);
    expectRejected(bad, into_sm, "pending-admission index");

    bad = good;
    putUint(bad, resident_off, hugeCount, 8);
    expectRejected(bad, into_sm, "resident count");

    bad = good;
    putUint(bad, resident_off, 1, 8);
    bad.insert(resident_off + 8, std::string("\x07\0\0\0", 4));
    expectRejected(bad, into_sm, "resident index");

    bad = good;
    putUint(bad, events_off, hugeCount, 8);
    expectRejected(bad, into_sm, "writeback count");

    // One queued writeback: due cycle, warp index, mask, sb, port.
    auto with_writeback = [&](std::uint32_t warp_idx, std::uint8_t sb,
                              std::uint8_t port) {
        std::string entry(8 + 4 + 4 + 1 + 1, '\0');
        putUint(entry, 0, 40, 8);
        putUint(entry, 8, warp_idx, 4);
        putUint(entry, 12, 0xffffffffu, 4);
        entry[16] = char(sb);
        entry[17] = char(port);
        std::string out = good;
        putUint(out, events_off, 1, 8);
        out.insert(events_off + 8, entry);
        return out;
    };
    {
        auto sm = make_sm();
        const std::string container = reframe(with_writeback(0, 3, 1));
        SnapshotReader r(container);
        EXPECT_NO_THROW(sm->restore(r)); // a valid entry is accepted
        EXPECT_TRUE(sm->hasPendingWritebacks());
    }
    expectRejected(with_writeback(1, 0, 0), into_sm, "writeback warp");
    expectRejected(with_writeback(0, ScoreboardFile::numSb, 0), into_sm,
                   "writeback scoreboard");
    expectRejected(with_writeback(0, 0, 2), into_sm, "writeback port");
}

TEST(SnapshotCorruption, SmRejectsStallTableForAnotherLaunch)
{
    // The per-pc stall table is saved last: a row count, then six u64
    // reason counts per row (one row per pc plus "(no subwarp)").
    const Program exit_only = assembleOrDie("EXIT\n");
    const Program longer = assembleOrDie("NOP\nEXIT\n");
    const GpuConfig cfg;
    Memory mem;
    auto make_sm = [&](const Program &prog) {
        auto sm = std::make_unique<Sm>(0, cfg, mem, nullptr);
        sm->addWarp(std::make_unique<Warp>(0, 0, &prog, warpSize));
        return sm;
    };
    const std::string good = savedPayload(*make_sm(exit_only));
    const std::size_t rows_off =
        good.size() - 8 - 2 * 8 * std::size_t(numStallReasons);
    ASSERT_EQ(getU64(good, rows_off), 2u) << "layout drifted";
    {
        const std::string container = reframe(good);
        SnapshotReader r(container);
        EXPECT_NO_THROW(make_sm(exit_only)->restore(r));
    }

    // A launch whose largest program is longer needs a larger table.
    expectRejected(
        good, [&](SnapshotReader &r) { make_sm(longer)->restore(r); },
        "stall table of a shorter program");

    std::string bad = good;
    putUint(bad, rows_off, hugeCount, 8);
    expectRejected(
        bad, [&](SnapshotReader &r) { make_sm(exit_only)->restore(r); },
        "stall-table row count");
}

TEST(SnapshotCorruption, StatsRejectPerStatusWordsOffTheReasonCounts)
{
    // LoadToUse, IFetch, Barrier, NoReadySubwarp, Pipe, Switch.
    SmStats stats;
    stats.stallCyclesByReason = {1, 2, 3, 4, 5, 6};
    const std::string good = savedPayload(stats);

    // tag, five u64 counters, the f64 divergent share, one more u64;
    // then scoreboard (1+3+4), pipe, fetch, switch.
    const std::size_t words_off = 4 + 5 * 8 + 8 + 8;
    const std::uint64_t derived[] = {8, 5, 2, 6};
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_EQ(getU64(good, words_off + 8 * i), derived[i]) << i;
    {
        const std::string container = reframe(good);
        SnapshotReader r(container);
        SmStats back;
        back.restore(r);
        EXPECT_EQ(back, stats);
    }

    for (std::size_t i = 0; i < 4; ++i) {
        std::string bad = good;
        putUint(bad, words_off + 8 * i, derived[i] + 1, 8);
        expectRejected(bad, [](SnapshotReader &r) { SmStats().restore(r); },
                       "per-status word off its reason counts");
    }
}

TEST(SnapshotCorruption, StatsAndSamplerRejectHugeCounts)
{
    std::string bad = savedPayload(SmStats());
    putUint(bad, bad.size() - 8, hugeCount, 8); // regions, saved last
    expectRejected(bad, [](SnapshotReader &r) { SmStats().restore(r); },
                   "region count");

    auto sampler_payload = [](std::uint64_t sms, std::uint64_t ring) {
        SnapshotWriter w;
        w.u64(100);  // interval
        w.u64(4096); // ring capacity
        w.u64(0);    // last sample cycle
        w.u32(32);   // warp slots per SM
        w.u64(sms);
        if (sms == 1) {
            SmStats().save(w);
            w.u64(0); // dropped
            w.u64(ring);
        }
        return payloadOf(w.finish());
    };
    auto into_sampler = [](SnapshotReader &r) {
        MetricsSampler(100).restore(r);
    };
    {
        const std::string container = reframe(sampler_payload(1, 0));
        SnapshotReader r(container);
        EXPECT_NO_THROW(into_sampler(r));
    }
    expectRejected(sampler_payload(hugeCount, 0), into_sampler,
                   "sampler SM count");
    expectRejected(sampler_payload(1, hugeCount), into_sampler,
                   "sampler window count");
}

TEST(SnapshotCorruption, MemoryRejectsHugeConstantPool)
{
    // tag, word count, one (address, value) record, constant count.
    Memory mem;
    mem.write(0x1000, 7);
    mem.writeConst(0, 1);
    const std::string good = savedPayload(mem);
    const std::size_t consts_off = 4 + 8 + 12;
    ASSERT_EQ(getU64(good, consts_off), 1u) << "layout drifted";
    {
        const std::string container = reframe(good);
        SnapshotReader r(container);
        Memory back;
        EXPECT_NO_THROW(back.restore(r));
        EXPECT_EQ(back.readConst(0), 1u);
    }

    auto into_memory = [](SnapshotReader &r) { Memory().restore(r); };
    std::string bad = good;
    putUint(bad, consts_off, std::uint64_t(1) << 62, 8);
    expectRejected(bad, into_memory, "constant-pool count");

    bad = good;
    putUint(bad, 4, std::uint64_t(1) << 62, 8);
    expectRejected(bad, into_memory, "word count");
}

} // namespace
} // namespace si
