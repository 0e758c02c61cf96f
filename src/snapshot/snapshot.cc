#include "snapshot/snapshot.hh"

#include <cstdio>
#include <cstring>

namespace si {

namespace {

/** Header layout: magic (9 bytes) + NUL pad + payload u64 + fnv u64. */
constexpr std::size_t magicBytes = sizeof(snapshotMagic); // incl. NUL
constexpr std::size_t headerBytes = magicBytes + 8 + 8;

std::uint64_t
loadU64(const char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
}

void
storeU64(char *p, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[i] = char((v >> (8 * i)) & 0xff);
}

} // namespace

std::string
snapTagName(SnapTag tag)
{
    std::string s(4, '?');
    const auto v = std::uint32_t(tag);
    for (unsigned i = 0; i < 4; ++i) {
        const char c = char((v >> (8 * i)) & 0xff);
        s[i] = (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return s;
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::str(std::string_view s)
{
    u64(s.size());
    buf_.append(s.data(), s.size());
}

std::string
SnapshotWriter::finish() const
{
    Fnv1a fnv;
    fnv.update(buf_.data(), buf_.size());

    std::string out(headerBytes, '\0');
    std::memcpy(out.data(), snapshotMagic, magicBytes);
    storeU64(out.data() + magicBytes, buf_.size());
    storeU64(out.data() + magicBytes + 8, fnv.digest());
    out += buf_;
    return out;
}

SnapshotReader::SnapshotReader(std::string_view data)
{
    sim_throw_if(data.size() < headerBytes, ErrorKind::Snapshot,
                 "snapshot truncated: %zu bytes, need at least the "
                 "%zu-byte header",
                 data.size(), headerBytes);
    sim_throw_if(std::memcmp(data.data(), snapshotMagic, magicBytes) != 0,
                 ErrorKind::Snapshot,
                 "bad snapshot magic (not a %s container)", snapshotMagic);

    const std::uint64_t payload_size = loadU64(data.data() + magicBytes);
    const std::uint64_t checksum = loadU64(data.data() + magicBytes + 8);
    sim_throw_if(data.size() - headerBytes != payload_size,
                 ErrorKind::Snapshot,
                 "snapshot payload length mismatch: header says %llu, "
                 "container holds %zu",
                 static_cast<unsigned long long>(payload_size),
                 data.size() - headerBytes);

    payload_ = data.substr(headerBytes);
    Fnv1a fnv;
    fnv.update(payload_.data(), payload_.size());
    sim_throw_if(fnv.digest() != checksum, ErrorKind::Snapshot,
                 "snapshot checksum mismatch: stored %016llx, computed "
                 "%016llx (corrupt or tampered container)",
                 static_cast<unsigned long long>(checksum),
                 static_cast<unsigned long long>(fnv.digest()));
}

unsigned char
SnapshotReader::byte()
{
    sim_throw_if(pos_ >= payload_.size(), ErrorKind::Snapshot,
                 "snapshot underrun at payload offset %zu", pos_);
    return static_cast<unsigned char>(payload_[pos_++]);
}

std::uint64_t
SnapshotReader::uint(unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= std::uint64_t(byte()) << (8 * i);
    return v;
}

double
SnapshotReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
SnapshotReader::str()
{
    const std::uint64_t n = u64();
    sim_throw_if(n > remaining(), ErrorKind::Snapshot,
                 "snapshot string of %llu bytes exceeds the %zu remaining",
                 static_cast<unsigned long long>(n), remaining());
    std::string s(payload_.substr(pos_, n));
    pos_ += n;
    return s;
}

std::size_t
SnapshotReader::count(std::size_t min_bytes_each)
{
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    sim_throw_if(n > remaining() / min_bytes_each, ErrorKind::Snapshot,
                 "snapshot count %llu at payload offset %zu needs at "
                 "least %zu bytes each but only %zu remain",
                 static_cast<unsigned long long>(n), at, min_bytes_each,
                 remaining());
    return std::size_t(n);
}

void
SnapshotReader::tag(SnapTag expected)
{
    const std::uint32_t got = u32();
    sim_throw_if(got != std::uint32_t(expected), ErrorKind::Snapshot,
                 "snapshot section mismatch: expected '%s', found '%s' "
                 "(component order drift or version skew)",
                 snapTagName(expected).c_str(),
                 snapTagName(SnapTag(got)).c_str());
}

std::string
SnapshotReader::maskText(ThreadMask m)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", m.raw());
    return buf;
}

void
SnapshotReader::mismatch(std::string_view who, const char *field,
                         const std::string &got, const std::string &ours)
{
    sim_throw(ErrorKind::Snapshot,
              "%.*s: snapshot has %s %s, this machine has %s",
              int(who.size()), who.data(), field, got.c_str(),
              ours.c_str());
}

void
SnapshotReader::expectEnd() const
{
    sim_throw_if(remaining() != 0, ErrorKind::Snapshot,
                 "snapshot has %zu trailing payload bytes", remaining());
}

void
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        sim_throw_if(f == nullptr, ErrorKind::Snapshot,
                     "cannot create temp file '%s'", tmp.c_str());
        const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
        const bool flushed = std::fclose(f) == 0;
        if (n != bytes.size() || !flushed) {
            std::remove(tmp.c_str());
            sim_throw(ErrorKind::Snapshot, "short write to temp file '%s'",
                      tmp.c_str());
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        sim_throw(ErrorKind::Snapshot, "cannot rename '%s' into place",
                  path.c_str());
    }
}

std::optional<std::string>
readWholeFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return std::nullopt;
    std::string data;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    const bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        return std::nullopt;
    return data;
}

} // namespace si
