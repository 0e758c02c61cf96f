/**
 * @file
 * Workload: a ready-to-simulate bundle — kernel, launch geometry,
 * functional memory image, optional scene, and the RT-core timing that
 * matches the workload's traversal-heaviness.
 */

#ifndef SI_RT_WORKLOAD_HH
#define SI_RT_WORKLOAD_HH

#include <memory>
#include <string>

#include "core/gpu.hh"
#include "rt/scene.hh"

namespace si {

/** Device-memory segment bases shared by the workload generators. */
namespace layout {

inline constexpr Addr rayBufBase = 0x20000000ull;
inline constexpr Addr normalBufBase = 0x28000000ull;
inline constexpr Addr matBufBase = 0x2c000000ull;
inline constexpr Addr gbufBase = 0x30000000ull;
inline constexpr Addr attrBufBase = 0x34000000ull;
inline constexpr Addr outBufBase = 0x38000000ull;
inline constexpr Addr dataBufBase = 0x3a000000ull;

/** Constant-bank byte offsets (LDC operands). */
inline constexpr std::int32_t cRayBuf = 0;
inline constexpr std::int32_t cNormalBuf = 4;
inline constexpr std::int32_t cMatBuf = 8;
inline constexpr std::int32_t cGbuf = 12;
inline constexpr std::int32_t cAttrBuf = 16;
inline constexpr std::int32_t cOutBuf = 20;
inline constexpr std::int32_t cDataBuf = 24;

} // namespace layout

/** A simulation-ready workload. */
struct Workload
{
    std::string name;
    Program program;
    LaunchParams launch;

    /** Pristine memory image; runs copy it so results are independent. */
    std::shared_ptr<Memory> memory;

    /** Scene for RTQUERY kernels; null for compute-only kernels. */
    std::shared_ptr<Scene> scene;

    /**
     * RT-core timing matched to the workload's traversal-heaviness. A
     * workload run (runWorkload) takes its RT-core shape from here, not
     * from the GpuConfig it is given.
     */
    RtCoreConfig rtc;

    const Bvh *
    bvh() const
    {
        return scene ? &scene->bvh : nullptr;
    }
};

} // namespace si

#endif // SI_RT_WORKLOAD_HH
