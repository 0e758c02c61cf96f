#include "mem/memory.hh"

#include <algorithm>
#include <cstring>

#include "snapshot/snapshot.hh"

namespace si {

void
Memory::writeF(Addr addr, float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    write(addr, bits);
}

float
Memory::readF(Addr addr) const
{
    std::uint32_t bits = read(addr);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

void
Memory::fill(Addr base, const std::vector<std::uint32_t> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        write(base + Addr(i) * 4, values[i]);
}

bool
Memory::firstDifference(const Memory &other, Addr &addr_out) const
{
    // Hash-map page order is arbitrary, but tracking the minimum makes
    // the answer deterministic regardless of iteration order. Scanning
    // both images covers words present on only one side (the other
    // side reads them as zero).
    bool found = false;
    Addr lowest = 0;
    auto scan = [&](const Memory &a, const Memory &b) {
        for (const auto &[page_idx, page] : a.pages_) {
            for (std::size_t off = 0; off < pageWords; ++off) {
                if (!page.present[off])
                    continue;
                const Addr addr =
                    ((page_idx << pageWordsLog2) | Addr(off)) << 2;
                if (b.read(addr) != page.data[off] &&
                    (!found || addr < lowest)) {
                    found = true;
                    lowest = addr;
                }
            }
        }
    };
    scan(*this, other);
    scan(other, *this);
    if (found)
        addr_out = lowest;
    return found;
}

void
Memory::clear()
{
    pages_.clear();
    liveWords_ = 0;
    cachedPage_ = nullptr;
    constants_.clear();
}

void
Memory::save(SnapshotWriter &w) const
{
    w.tag(SnapTag::Memory);

    // Words go out in ascending address order — sorted page indices,
    // then ascending offsets within each page — exactly the order the
    // old per-word map emitted, so the format is unchanged.
    std::vector<Addr> page_idxs;
    page_idxs.reserve(pages_.size());
    for (const auto &[page_idx, page] : pages_)
        page_idxs.push_back(page_idx);
    std::sort(page_idxs.begin(), page_idxs.end());

    w.u64(liveWords_);
    for (Addr page_idx : page_idxs) {
        const Page &page = pages_.at(page_idx);
        for (std::size_t off = 0; off < pageWords; ++off) {
            if (page.present[off])
                w.io(((page_idx << pageWordsLog2) | Addr(off)) << 2,
                     page.data[off]);
        }
    }
    w.seq(constants_, 4, [&](std::uint32_t c) { w.io(c); });
}

void
Memory::restore(SnapshotReader &r)
{
    r.tag(SnapTag::Memory);
    clear();
    for (std::size_t n = r.count(8 + 4); n > 0; --n) {
        Addr addr = 0;
        std::uint32_t value = 0;
        r.io(addr, value);
        write(addr, value);
    }
    r.seq(constants_, 4, [&](std::uint32_t &c) { r.io(c); });
}

} // namespace si
