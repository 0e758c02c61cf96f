/**
 * @file
 * Minimal geometry kit for the RT-core substrate: Vec3, Ray, AABB,
 * Triangle, and the Möller–Trumbore intersection test.
 */

#ifndef SI_RTCORE_GEOM_HH
#define SI_RTCORE_GEOM_HH

#include <cmath>
#include <cstdint>
#include <limits>

namespace si {

/** Three-component float vector. */
struct Vec3
{
    float x = 0, y = 0, z = 0;

    Vec3() = default;
    Vec3(float x, float y, float z) : x(x), y(y), z(z) {}

    Vec3 operator+(const Vec3 &o) const { return {x + o.x, y + o.y, z + o.z}; }
    Vec3 operator-(const Vec3 &o) const { return {x - o.x, y - o.y, z - o.z}; }
    Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
    Vec3
    operator/(float s) const
    {
        float inv = 1.0f / s;
        return {x * inv, y * inv, z * inv};
    }

    float
    dot(const Vec3 &o) const
    {
        return x * o.x + y * o.y + z * o.z;
    }

    Vec3
    cross(const Vec3 &o) const
    {
        return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
    }

    float length() const { return std::sqrt(dot(*this)); }

    Vec3
    normalized() const
    {
        float len = length();
        return len > 0 ? *this / len : Vec3{0, 0, 1};
    }

    float
    operator[](int i) const
    {
        return i == 0 ? x : (i == 1 ? y : z);
    }
};

/** A ray with a parametric validity interval. */
struct Ray
{
    Vec3 origin;
    Vec3 dir;
    float tMin = 1e-4f;
    float tMax = std::numeric_limits<float>::infinity();
};

/** Axis-aligned bounding box. */
struct Aabb
{
    Vec3 lo{std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity()};
    Vec3 hi{-std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity()};

    /**
     * Grow to cover @p p. For non-NaN operands the comparisons give
     * the same bits as libm fmin/fmax (on a tie, such as -0 vs
     * +0, both return @p p's coordinate) but inline; NaN coordinates
     * never get here (Bvh rejects non-finite vertices).
     */
    void
    expand(const Vec3 &p)
    {
        auto min = [](float x, float y) { return x < y ? x : y; };
        auto max = [](float x, float y) { return x > y ? x : y; };
        lo = {min(lo.x, p.x), min(lo.y, p.y), min(lo.z, p.z)};
        hi = {max(hi.x, p.x), max(hi.y, p.y), max(hi.z, p.z)};
    }

    void
    expand(const Aabb &b)
    {
        expand(b.lo);
        expand(b.hi);
    }

    Vec3 centroid() const { return (lo + hi) * 0.5f; }

    /** Surface area (for SAH diagnostics). */
    float
    area() const
    {
        Vec3 d = hi - lo;
        if (d.x < 0 || d.y < 0 || d.z < 0)
            return 0;
        return 2.0f * (d.x * d.y + d.y * d.z + d.z * d.x);
    }

    /** Slab test against @p ray over [ray.tMin, t_max]. */
    bool
    hit(const Ray &ray, float t_max) const
    {
        return hit(ray.origin, reciprocal(ray.dir), ray.tMin, t_max);
    }

    /**
     * Slab test over [t_min, t_max] of the ray from @p origin whose
     * direction has per-axis reciprocals @p inv_dir (computed once per
     * ray by the caller).
     */
    bool
    hit(const Vec3 &origin, const Vec3 &inv_dir, float t_min,
        float t_max) const
    {
        // No per-axis early exit: t0 only grows and t1 only shrinks, so
        // the verdict is the same, and the branch-free form is faster.
        float t0 = t_min, t1 = t_max;
        for (int a = 0; a < 3; ++a) {
            const float inv = inv_dir[a];
            const float ta = (lo[a] - origin[a]) * inv;
            const float tb = (hi[a] - origin[a]) * inv;
            const float near = inv < 0 ? tb : ta;
            const float far = inv < 0 ? ta : tb;
            t0 = near > t0 ? near : t0;
            t1 = far < t1 ? far : t1;
        }
        return !(t1 < t0);
    }

    /** Per-axis 1/d, the slab test's direction operand. */
    static Vec3
    reciprocal(const Vec3 &d)
    {
        return {1.0f / d.x, 1.0f / d.y, 1.0f / d.z};
    }
};

/** A triangle with a material binding. */
struct Triangle
{
    Vec3 v0, v1, v2;
    std::uint32_t materialId = 0;

    Aabb
    bounds() const
    {
        Aabb b;
        b.expand(v0);
        b.expand(v1);
        b.expand(v2);
        return b;
    }

    Vec3
    normal() const
    {
        return (v1 - v0).cross(v2 - v0).normalized();
    }
};

/** Result of a ray/triangle or ray/scene intersection. */
struct Hit
{
    bool valid = false;
    float t = std::numeric_limits<float>::infinity();
    float u = 0, v = 0;
    std::uint32_t primId = 0;
    std::uint32_t materialId = 0;
};

/**
 * Möller–Trumbore ray/triangle intersection against the triangle with
 * vertex @p v0 and edges @p e1 = v1 - v0, @p e2 = v2 - v0.
 * @return hit with t in (ray.tMin, t_max), or invalid; primId and
 * materialId are left for the caller.
 */
inline Hit
intersect(const Ray &ray, const Vec3 &v0, const Vec3 &e1, const Vec3 &e2,
          float t_max)
{
    Hit hit;
    const Vec3 p = ray.dir.cross(e2);
    const float det = e1.dot(p);
    if (std::fabs(det) < 1e-9f)
        return hit;
    const float inv_det = 1.0f / det;
    const Vec3 s = ray.origin - v0;
    const float u = s.dot(p) * inv_det;
    if (u < 0.0f || u > 1.0f)
        return hit;
    const Vec3 q = s.cross(e1);
    const float v = ray.dir.dot(q) * inv_det;
    if (v < 0.0f || u + v > 1.0f)
        return hit;
    const float t = e2.dot(q) * inv_det;
    if (t <= ray.tMin || t >= t_max)
        return hit;
    hit.valid = true;
    hit.t = t;
    hit.u = u;
    hit.v = v;
    return hit;
}

/**
 * Möller–Trumbore against @p tri.
 * @return hit with t in (ray.tMin, t_max) and tri's material, or invalid.
 */
inline Hit
intersect(const Ray &ray, const Triangle &tri, float t_max)
{
    Hit hit = intersect(ray, tri.v0, tri.v1 - tri.v0, tri.v2 - tri.v0,
                        t_max);
    if (hit.valid)
        hit.materialId = tri.materialId;
    return hit;
}

} // namespace si

#endif // SI_RTCORE_GEOM_HH
