/**
 * @file
 * Bounding Volume Hierarchy: binned-SAH construction and stack-based
 * traversal that reports both the nearest hit and the amount of work the
 * traversal performed (node/leaf visits), which drives the RT-core
 * timing model.
 */

#ifndef SI_RTCORE_BVH_HH
#define SI_RTCORE_BVH_HH

#include <cstdint>
#include <vector>

#include "rtcore/geom.hh"

namespace si {

/** Traversal effort accounting for one query. */
struct TraversalStats
{
    std::uint32_t nodesVisited = 0;
    std::uint32_t trianglesTested = 0;
};

/** Construction strategy. */
enum class BvhBuilder {
    BinnedSah,   ///< binned surface-area heuristic (production default)
    MedianSplit, ///< object-median split (fast build, worse traversal)
};

/**
 * A binary BVH over a triangle soup. Build once, query many times;
 * queries are const and thread-compatible. Nodes are stored depth
 * first (left child next to its parent) and each leaf's triangles
 * are stored contiguously in leaf order.
 */
class Bvh
{
  public:
    Bvh() = default;

    /**
     * Build over @p triangles. Empty input is allowed.
     * @throws SimError (ErrorKind::Config) when any vertex coordinate
     * is NaN or infinite.
     */
    explicit Bvh(std::vector<Triangle> triangles,
                 BvhBuilder builder = BvhBuilder::BinnedSah);

    /**
     * Find the nearest intersection along @p ray.
     * @param stats optional effort accounting for the timing model.
     */
    Hit trace(const Ray &ray, TraversalStats *stats = nullptr) const;

    std::size_t numTriangles() const { return tris_.size(); }
    std::size_t numNodes() const { return nodes_.size(); }
    const Aabb &bounds() const;

    /**
     * FNV-1a over the tree, field by field: each node's box bits and
     * child indices, or its leaf range and the leaf's triangle ids.
     * Independent of the in-memory node layout, so it pins the tree
     * a builder produces.
     */
    std::uint64_t digest() const;

    /** Maximum leaf size the builder produces. */
    static constexpr unsigned maxLeafSize = 4;

  private:
    struct Node
    {
        Aabb box;
        /** Leaf: first of its count triangles in tris_. Inner: the
         *  right child; the left child is the next node. */
        std::uint32_t index = 0;
        std::uint32_t count = 0; ///< 0 for inner nodes
    };
    static_assert(sizeof(Node) == 32);

    /** A triangle in leaf order, pre-split for Möller–Trumbore. */
    struct LeafTriangle
    {
        Vec3 v0, e1, e2;         ///< e1 = v1 - v0, e2 = v2 - v0
        std::uint32_t prim;      ///< index in the builder's input
        std::uint32_t materialId;
    };

    /** Build-time record of one triangle; permuted in place. */
    struct PrimRef;

    std::uint32_t buildNode(std::vector<PrimRef> &refs,
                            std::uint32_t begin, std::uint32_t end);

    BvhBuilder builder_ = BvhBuilder::BinnedSah;
    std::vector<LeafTriangle> tris_;
    std::vector<Node> nodes_;
};

} // namespace si

#endif // SI_RTCORE_BVH_HH
