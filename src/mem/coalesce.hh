/**
 * @file
 * Global-memory coalescing: the unique cache lines a warp's loads touch,
 * one L1D transaction each.
 */

#ifndef SI_MEM_COALESCE_HH
#define SI_MEM_COALESCE_HH

#include <array>
#include <cstdint>

#include "common/thread_mask.hh"
#include "common/types.hh"

namespace si {

/**
 * Write the distinct @p line_bytes-aligned lines of @p lane_addrs over
 * the lanes of @p lanes to @p lines and return how many there are.
 *
 * The lines come out in first-appearance lane order: that is the L1D
 * access order, so it fixes recency and eviction. A lane on the
 * previous lane's line (the coalesced case) costs one compare; any
 * other lane probes a 64-slot open-addressing set of the lines so far,
 * which at most 32 lines can never fill.
 */
inline unsigned
coalesceLines(const std::array<Addr, warpSize> &lane_addrs, ThreadMask lanes,
              unsigned line_bytes, std::array<Addr, warpSize> &lines)
{
    constexpr unsigned slotBits = 6;
    // 1-based indices into lines; 0 marks an empty slot.
    std::array<std::uint8_t, 1u << slotBits> slots{};
    const Addr align = ~Addr(line_bytes - 1);
    unsigned n = 0;
    for (unsigned lane : lanesOf(lanes)) {
        const Addr line = lane_addrs[lane] & align;
        if (n != 0 && lines[n - 1] == line)
            continue;
        // Fibonacci hashing: the top bits mix every bit of the line.
        unsigned slot =
            unsigned((line * 0x9e3779b97f4a7c15ull) >> (64 - slotBits));
        while (slots[slot] != 0 && lines[slots[slot] - 1] != line)
            slot = (slot + 1) & ((1u << slotBits) - 1);
        if (slots[slot] == 0) {
            lines[n++] = line;
            slots[slot] = std::uint8_t(n);
        }
    }
    return n;
}

} // namespace si

#endif // SI_MEM_COALESCE_HH
