#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace ezflow::phy {

/// Planar node position in meters. The testbed map (Fig. 3) and the ns-2
/// scenarios are both 2-D deployments.
struct Position {
    double x = 0.0;
    double y = 0.0;
};

inline double distance(const Position& a, const Position& b)
{
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

/// Uniform-grid index over fixed points: the one range query behind the
/// link graph, the Channel's reach sets and the shard planner.
/// Cells are `radius` wide, in flat CSR arrays row-major over the bounding
/// box (a box needing over ~4 cells per point gets wider cells, keeping
/// memory O(n)). Build is O(n); a query visits the 3x3 cells around p.
class GridIndex {
public:
    /// Throws std::invalid_argument for a radius <= 0 or non-finite, and
    /// for a non-finite position or bounding-box extent.
    GridIndex(std::vector<Position> points, double radius);

    /// Into `out` (cleared first): the ids i with distance(p, points[i])
    /// <= radius, ascending. That is the expression callers use for the
    /// distances they keep, so a point at exactly the radius is in.
    void within(const Position& p, std::vector<int>& out) const;

private:
    std::vector<Position> points_;
    double radius_;
    double cell_m_;
    Position origin_;  ///< lower-left corner of the bounding box
    std::ptrdiff_t cols_ = 0;
    std::ptrdiff_t rows_ = 0;
    std::vector<std::size_t> cell_start_;  ///< rows_ * cols_ + 1 offsets into ids_
    std::vector<int> ids_;                 ///< point ids by cell, ascending within one
};

}  // namespace ezflow::phy
