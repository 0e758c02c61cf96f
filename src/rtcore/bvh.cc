#include "rtcore/bvh.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <utility>

#include "common/sim_error.hh"
#include "snapshot/snapshot.hh"

namespace si {

struct Bvh::PrimRef
{
    Aabb box;
    Vec3 centroid;
    std::uint32_t index; ///< triangle index in the builder's input
    std::uint32_t bin;   ///< SAH bin at the node being split
};

Bvh::Bvh(std::vector<Triangle> triangles, BvhBuilder builder)
    : builder_(builder)
{
    auto finite = [](const Vec3 &v) {
        return std::isfinite(v.x) && std::isfinite(v.y) &&
               std::isfinite(v.z);
    };
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        const Triangle &t = triangles[i];
        sim_throw_if(!finite(t.v0) || !finite(t.v1) || !finite(t.v2),
                     ErrorKind::Config,
                     "bvh: triangle %zu has a non-finite vertex", i);
    }

    if (triangles.empty()) {
        nodes_.emplace_back();
        return;
    }

    std::vector<PrimRef> refs;
    refs.reserve(triangles.size());
    for (const Triangle &t : triangles) {
        const Aabb box = t.bounds();
        refs.push_back({box, box.centroid(), std::uint32_t(refs.size()), 0});
    }

    nodes_.reserve(triangles.size() * 2);
    buildNode(refs, 0, std::uint32_t(refs.size()));

    tris_.reserve(refs.size());
    for (const PrimRef &r : refs) {
        const Triangle &t = triangles[r.index];
        tris_.push_back(
            {t.v0, t.v1 - t.v0, t.v2 - t.v0, r.index, t.materialId});
    }
}

std::uint32_t
Bvh::buildNode(std::vector<PrimRef> &refs, std::uint32_t begin,
               std::uint32_t end)
{
    const std::uint32_t node_index = std::uint32_t(nodes_.size());
    nodes_.emplace_back();

    Aabb box;
    Aabb centroid_box;
    for (std::uint32_t i = begin; i < end; ++i) {
        box.expand(refs[i].box);
        centroid_box.expand(refs[i].centroid);
    }
    nodes_[node_index].box = box;

    const std::uint32_t count = end - begin;
    if (count <= maxLeafSize) {
        nodes_[node_index].index = begin;
        nodes_[node_index].count = count;
        return node_index;
    }

    // Binned SAH along the widest centroid axis.
    const Vec3 extent = centroid_box.hi - centroid_box.lo;
    int axis = 0;
    if (extent.y > extent.x)
        axis = 1;
    if (extent.z > extent[axis])
        axis = 2;

    constexpr unsigned numBins = 12;
    const float axis_lo = centroid_box.lo[axis];
    const float axis_extent = extent[axis];
    const auto first = refs.begin() + begin;
    const auto last = refs.begin() + end;

    std::uint32_t mid;
    if (axis_extent < 1e-12f) {
        // Degenerate: all centroids coincide; split by median.
        mid = begin + count / 2;
    } else if (builder_ == BvhBuilder::MedianSplit) {
        // Object-median split along the widest axis.
        mid = begin + count / 2;
        std::nth_element(first, refs.begin() + mid, last,
                         [&](const PrimRef &a, const PrimRef &b) {
                             return a.centroid[axis] < b.centroid[axis];
                         });
    } else {
        struct Bin
        {
            Aabb box;
            std::uint32_t count = 0;
        };
        Bin bins[numBins];
        for (auto it = first; it != last; ++it) {
            const float rel = (it->centroid[axis] - axis_lo) / axis_extent;
            it->bin = std::min(unsigned(rel * numBins), numBins - 1);
            Bin &b = bins[it->bin];
            b.box.expand(it->box);
            b.count++;
        }

        // Sweep to find the cheapest split boundary.
        float left_area[numBins], right_area[numBins];
        std::uint32_t left_count[numBins], right_count[numBins];
        Aabb acc;
        std::uint32_t cnt = 0;
        for (unsigned b = 0; b < numBins; ++b) {
            if (bins[b].count)
                acc.expand(bins[b].box);
            cnt += bins[b].count;
            left_area[b] = acc.area();
            left_count[b] = cnt;
        }
        acc = Aabb{};
        cnt = 0;
        for (int b = numBins - 1; b >= 0; --b) {
            if (bins[b].count)
                acc.expand(bins[b].box);
            cnt += bins[b].count;
            right_area[b] = acc.area();
            right_count[b] = cnt;
        }

        float best_cost = std::numeric_limits<float>::infinity();
        unsigned best_split = 0;
        for (unsigned b = 0; b + 1 < numBins; ++b) {
            if (left_count[b] == 0 || right_count[b + 1] == 0)
                continue;
            float cost = left_area[b] * float(left_count[b]) +
                         right_area[b + 1] * float(right_count[b + 1]);
            if (cost < best_cost) {
                best_cost = cost;
                best_split = b;
            }
        }

        if (best_cost == std::numeric_limits<float>::infinity()) {
            mid = begin + count / 2;
        } else {
            auto it = std::partition(first, last, [&](const PrimRef &r) {
                return r.bin <= best_split;
            });
            mid = std::uint32_t(it - refs.begin());
            if (mid == begin || mid == end)
                mid = begin + count / 2;
        }
    }

    buildNode(refs, begin, mid); // left child == node_index + 1
    nodes_[node_index].index = buildNode(refs, mid, end);
    return node_index;
}

std::uint64_t
Bvh::nextSerial()
{
    static std::atomic<std::uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

Bvh::Bvh(Bvh &&other) noexcept
    : builder_(other.builder_), tris_(std::move(other.tris_)),
      nodes_(std::move(other.nodes_)),
      serial_(std::exchange(other.serial_, nextSerial()))
{
}

Bvh &
Bvh::operator=(Bvh &&other) noexcept
{
    if (this == &other)
        return *this;
    builder_ = other.builder_;
    tris_ = std::move(other.tris_);
    nodes_ = std::move(other.nodes_);
    serial_ = std::exchange(other.serial_, nextSerial());
    return *this;
}

const Aabb &
Bvh::bounds() const
{
    return nodes_.front().box;
}

std::uint64_t
Bvh::digest() const
{
    Fnv1a h;
    auto put = [&](float f) { h.update(std::bit_cast<std::uint32_t>(f)); };
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node &n = nodes_[i];
        for (const Vec3 &v : {n.box.lo, n.box.hi}) {
            put(v.x);
            put(v.y);
            put(v.z);
        }
        h.update(std::uint64_t(n.count));
        if (n.count) {
            h.update(std::uint64_t(n.index));
            for (unsigned k = 0; k < n.count; ++k)
                h.update(std::uint64_t(tris_[n.index + k].prim));
        } else {
            h.update(std::uint64_t(i + 1));
            h.update(std::uint64_t(n.index));
        }
    }
    return h.digest();
}

Hit
Bvh::trace(const Ray &ray, TraversalStats *stats) const
{
    Hit best;
    if (tris_.empty())
        return best;

    const Vec3 inv_dir = Aabb::reciprocal(ray.dir);
    std::uint32_t stack[64];
    int sp = 0;
    stack[sp++] = 0;

    float t_max = ray.tMax;
    std::uint32_t visited = 0, tested = 0;
    while (sp > 0) {
        const std::uint32_t self = stack[--sp];
        const Node &node = nodes_[self];
        ++visited;
        if (!node.box.hit(ray.origin, inv_dir, ray.tMin, t_max))
            continue;
        if (node.count) {
            tested += node.count;
            const LeafTriangle *tri = &tris_[node.index];
            for (const LeafTriangle *end = tri + node.count; tri != end;
                 ++tri) {
                Hit h = intersect(ray, tri->v0, tri->e1, tri->e2, t_max);
                if (h.valid) {
                    h.primId = tri->prim;
                    h.materialId = tri->materialId;
                    best = h;
                    t_max = h.t;
                }
            }
        } else {
            sim_throw_if(sp + 2 > 64, ErrorKind::Internal,
                         "BVH traversal stack overflow");
            stack[sp++] = node.index;
            stack[sp++] = self + 1; // left child visited first
        }
    }
    if (stats) {
        stats->nodesVisited += visited;
        stats->trianglesTested += tested;
    }
    return best;
}

} // namespace si
