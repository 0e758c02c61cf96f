/**
 * @file
 * Checkpoint/restore serialization primitives: the versioned, checksummed
 * `sisnap-v2` binary container every stateful simulator component writes
 * itself into. The format is deliberately dumb — little-endian fixed-width
 * integers, length-prefixed byte strings, and four-byte section tags — so
 * that a snapshot taken by one build restores bit-exactly under another
 * and a truncated or corrupted file fails loudly (ErrorKind::Snapshot)
 * instead of resurrecting a subtly wrong machine.
 *
 * Walks. Each stateful component defines its field order once, as a
 * template over the archive that both directions drive:
 *
 *   template <class Self, class Ar> static void walk(Self &self, Ar &ar);
 *
 * save() is walk(*this, writer) with Self = const T, restore() is
 * walk(*this, reader) with Self = T. SnapshotWriter and SnapshotReader
 * share the walk primitives: tag() a section, io() value fields (the
 * width follows the type; a nested component recurses into its own
 * save/restore), fixed() a value the restoring machine already holds
 * (a mismatch throws, naming component, field and both values), and
 * seq() a length-prefixed sequence whose restored length comes only
 * through count(). Direction-specific parts branch on Ar::restoring.
 *
 * Layering: this header depends only on src/common, so the core, memory,
 * and RT-core libraries can implement save(SnapshotWriter&) /
 * restore(SnapshotReader&) without a dependency cycle. The orchestration
 * (whole-GPU checkpoints, the determinism validator, the campaign
 * runner) lives above, in snapshot/replay.hh and harness/campaign.hh.
 */

#ifndef SI_SNAPSHOT_SNAPSHOT_HH
#define SI_SNAPSHOT_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/sim_error.hh"
#include "common/thread_mask.hh"

namespace si {

/** Container magic; bumped when the payload layout changes. */
inline constexpr char snapshotMagic[] = "sisnap-v2";

/** FNV-1a 64-bit, the container checksum (and fingerprint hash). */
class Fnv1a
{
  public:
    void
    update(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    update(std::string_view s)
    {
        update(s.data(), s.size());
    }

    void
    update(std::uint64_t v)
    {
        unsigned char bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = (unsigned char)(v >> (8 * i));
        update(bytes, sizeof(bytes));
    }

    std::uint64_t digest() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Four-byte section tags; catch component-order drift at restore time. */
enum class SnapTag : std::uint32_t {
    Meta = 0x4154454du,      ///< "META": config + kernel fingerprints
    Clock = 0x4b434c43u,     ///< "CLCK": run-loop cycle counters
    Memory = 0x4d454d47u,    ///< "GMEM": functional memory image
    Sm = 0x204d5320u,        ///< " SM ": one streaming multiprocessor
    Warp = 0x50524157u,      ///< "WARP"
    Cache = 0x48434143u,     ///< "CACH"
    RtCore = 0x43545220u,    ///< " RTC"
    SubwarpUnit = 0x55577353u, ///< "SsWU"
    Pb = 0x20425020u,        ///< " PB "
    Stats = 0x54415453u,     ///< "STAT"
    Metrics = 0x4b52544du,   ///< "MTRK": windowed metrics sampler state
    End = 0x20444e45u,       ///< "END "
};

/** Render a tag as its four ASCII bytes (diagnostics). */
std::string snapTagName(SnapTag tag);

/**
 * Serializes one snapshot payload. Components append typed fields in a
 * fixed order; finish() wraps the payload in the sisnap-v2 header
 * (magic, payload length, FNV-1a checksum).
 */
class SnapshotWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(char(v));
    }

    void u16(std::uint16_t v) { uint(v, 2); }
    void u32(std::uint32_t v) { uint(v, 4); }
    void u64(std::uint64_t v) { uint(v, 8); }

    /** Doubles travel as bit patterns, never through text formatting. */
    void f64(double v);

    void b(bool v) { u8(v ? 1 : 0); }

    /** Length-prefixed byte string. */
    void str(std::string_view s);

    /** Open a component section. */
    void tag(SnapTag t) { u32(std::uint32_t(t)); }

    /** The complete container: header + payload. */
    std::string finish() const;

    std::size_t payloadSize() const { return buf_.size(); }

    // ---- walk primitives (see the file comment) ----

    static constexpr bool restoring = false;

    /** Value fields, in argument order. */
    template <class... T>
    void
    io(const T &...v)
    {
        (put(v), ...);
    }

    /** A value the restoring machine already holds. */
    template <class T>
    void
    fixed(std::string_view, const char *, const T &ours)
    {
        put(ours);
    }

    /** A sequence: its length (@p count_bytes wide), then @p each on
     *  every element. */
    template <class C, class F>
    void
    seq(C &c, std::size_t, F &&each, unsigned count_bytes = 8)
    {
        uint(c.size(), count_bytes);
        for (auto &e : c)
            each(e);
    }

  private:
    void
    uint(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i)
            buf_.push_back(char((v >> (8 * i)) & 0xff));
    }

    void put(std::uint8_t v) { u8(v); }
    void put(std::uint32_t v) { u32(v); }
    void put(std::int32_t v) { u32(std::uint32_t(v)); }
    void put(std::uint64_t v) { u64(v); }
    void put(bool v) { b(v); }
    void put(const std::string &v) { str(v); }
    void put(ThreadMask v) { u32(v.raw()); }

    template <class T, std::size_t N>
    void
    put(const std::array<T, N> &a)
    {
        for (const T &v : a)
            put(v);
    }

    /** A nested component writes itself. */
    template <class C>
        requires requires(const C &c, SnapshotWriter &w) { c.save(w); }
    void
    put(const C &c)
    {
        c.save(*this);
    }

    std::string buf_;
};

/**
 * Deserializes a sisnap-v2 container. The constructor validates magic,
 * length, and checksum before any field is read; every read throws
 * SimError(ErrorKind::Snapshot) on truncation, tag() throws on
 * section-order mismatch and fixed() on a value the machine disagrees
 * with. A throw mid-payload leaves the sections before it applied, so
 * the caller must discard the half-restored machine (Gpu::runMulti
 * returns the failure instead of running it).
 */
class SnapshotReader
{
  public:
    /** @param data the full container (header + payload). Not owned;
     *  must outlive the reader. */
    explicit SnapshotReader(std::string_view data);

    std::uint8_t u8() { return std::uint8_t(byte()); }
    std::uint16_t u16() { return std::uint16_t(uint(2)); }
    std::uint32_t u32() { return std::uint32_t(uint(4)); }
    std::uint64_t u64() { return uint(8); }
    double f64();
    bool b() { return u8() != 0; }
    std::string str();

    /**
     * Read an element count (@p count_bytes wide) for a container the
     * caller is about to size, each element taking at least
     * @p min_bytes_each payload bytes. Throws when the count cannot fit
     * in what remains, so a corrupt count fails here instead of in a
     * huge allocation.
     */
    std::size_t count(std::size_t min_bytes_each, unsigned count_bytes = 8);

    /** Consume a section tag; throws when it isn't @p expected. */
    void tag(SnapTag expected);

    /** Bytes of payload not yet consumed. */
    std::size_t remaining() const { return payload_.size() - pos_; }

    /** Throw unless the whole payload was consumed (trailing garbage). */
    void expectEnd() const;

    // ---- walk primitives (see the file comment) ----

    static constexpr bool restoring = true;

    /** Value fields, in argument order. */
    template <class... T>
    void
    io(T &...v)
    {
        (get(v), ...);
    }

    /** A value the restoring machine already holds: throws unless the
     *  snapshot holds the same. */
    template <class T>
    void
    fixed(std::string_view who, const char *field, const T &ours)
    {
        T got{};
        get(got);
        if (!(got == ours))
            mismatch(who, field, text(got), text(ours));
    }

    /** A sequence; its length comes through count(@p min_bytes_each).
     *  A map is rebuilt from (key, value) pairs. */
    template <class C, class F>
    void
    seq(C &c, std::size_t min_bytes_each, F &&each,
        unsigned count_bytes = 8)
    {
        const std::size_t n = count(min_bytes_each, count_bytes);
        if constexpr (requires { c.resize(n); }) {
            c.resize(n);
            for (auto &e : c)
                each(e);
        } else {
            c.clear();
            for (std::size_t i = 0; i < n; ++i) {
                std::pair<typename C::key_type, typename C::mapped_type> kv;
                each(kv);
                c.insert(std::move(kv));
            }
        }
    }

  private:
    unsigned char byte();
    std::uint64_t uint(unsigned bytes);

    void get(std::uint8_t &v) { v = u8(); }
    void get(std::uint32_t &v) { v = u32(); }
    void get(std::int32_t &v) { v = std::int32_t(u32()); }
    void get(std::uint64_t &v) { v = u64(); }
    void get(bool &v) { v = b(); }
    void get(std::string &v) { v = str(); }
    void get(ThreadMask &v) { v = ThreadMask(u32()); }

    template <class T, std::size_t N>
    void
    get(std::array<T, N> &a)
    {
        for (T &v : a)
            get(v);
    }

    /** A nested component restores itself. */
    template <class C>
        requires requires(C &c, SnapshotReader &r) { c.restore(r); }
    void
    get(C &c)
    {
        c.restore(*this);
    }

    template <class T>
    static std::string
    text(const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>)
            return "'" + v + "'";
        else if constexpr (std::is_same_v<T, bool>)
            return v ? "true" : "false";
        else if constexpr (std::is_same_v<T, ThreadMask>)
            return maskText(v);
        else
            return std::to_string(v);
    }

    static std::string maskText(ThreadMask m);

    [[noreturn]] static void mismatch(std::string_view who,
                                      const char *field,
                                      const std::string &got,
                                      const std::string &ours);

    std::string_view payload_;
    std::size_t pos_ = 0;
};

/**
 * Write @p bytes to @p path atomically (temp file + rename), so a crash
 * mid-write can never leave a half-written checkpoint, manifest or cell
 * result behind; a failed write removes its temp file.
 * @throws SimError(ErrorKind::Snapshot) on I/O failure, which ends a run
 * whose checkpoint hook cannot write.
 */
void writeFileAtomic(const std::string &path, const std::string &bytes);

/** The whole of @p path, or nothing when it cannot be opened or read. */
std::optional<std::string> readWholeFile(const std::string &path);

} // namespace si

#endif // SI_SNAPSHOT_SNAPSHOT_HH
