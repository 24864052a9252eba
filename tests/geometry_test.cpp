// phy::GridIndex against a brute-force oracle: every query must return
// exactly the ids whose distance() from the query point is <= the radius,
// ascending. Seeded scatters (negative coordinates, probes outside the
// bounding box) cover irregular cells; hand-built layouts cover the
// boundary: pairs at exactly the radius on the axes and on 3-4-5
// diagonals, pairs a few ulps across a cell edge, points on cell edges,
// coincident points, a single point, all points in one cell, and lines
// spanning many cells.

#include "phy/geometry.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace ezflow::phy {
namespace {

std::vector<int> brute_force_within(const std::vector<Position>& points, const Position& p,
                                    double radius)
{
    std::vector<int> ids;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (distance(p, points[i]) <= radius) ids.push_back(static_cast<int>(i));
    return ids;
}

/// Queries at every point and at each probe must match the oracle,
/// element for element (so order is checked too).
void expect_matches_oracle(const std::vector<Position>& points, double radius,
                           const std::vector<Position>& probes = {})
{
    const GridIndex index(points, radius);
    std::vector<Position> queries = points;
    queries.insert(queries.end(), probes.begin(), probes.end());
    std::vector<int> got;
    for (const Position& q : queries) {
        index.within(q, got);
        ASSERT_EQ(got, brute_force_within(points, q, radius))
            << "query (" << q.x << ", " << q.y << "), radius " << radius << ", "
            << points.size() << " points";
    }
}

TEST(GridIndex, MatchesBruteForceOnSeededScatters)
{
    util::Rng rng(0x6E0'1DULL);
    for (int trial = 0; trial < 60; ++trial) {
        const int count = rng.uniform_int(1, 300);
        const double side = rng.uniform_real(100.0, 6000.0);
        const Position corner{rng.uniform_real(-5000.0, 1000.0),
                              rng.uniform_real(-5000.0, 1000.0)};
        const double radius = rng.uniform_real(20.0, 900.0);
        std::vector<Position> points;
        for (int i = 0; i < count; ++i)
            points.push_back({corner.x + rng.uniform_real(0.0, side),
                              corner.y + rng.uniform_real(0.0, side)});
        std::vector<Position> probes;
        for (int i = 0; i < 40; ++i)
            probes.push_back({corner.x + rng.uniform_real(-side, 2 * side),
                              corner.y + rng.uniform_real(-side, 2 * side)});
        expect_matches_oracle(points, radius, probes);
    }
}

TEST(GridIndex, PairsAtExactlyTheRadiusStayIn)
{
    // Axis pairs and 3-4-5 diagonals at exactly r around an off-grid
    // centre, at integer scale (exact doubles) and at scales where the
    // computed distance rounds either side of r.
    for (const double k : {50.0, 0.1, 0.3, 7.77, 1e3 / 3}) {
        const double r = 5 * k;
        const Position c{-1234.5, 987.25};
        const std::vector<Position> points = {
            c,
            {c.x + r, c.y},
            {c.x - r, c.y},
            {c.x, c.y + r},
            {c.x, c.y - r},
            {c.x + 3 * k, c.y + 4 * k},
            {c.x - 3 * k, c.y + 4 * k},
            {c.x + 4 * k, c.y - 3 * k},
            {c.x - 4 * k, c.y - 3 * k},
        };
        expect_matches_oracle(points, r);
        if (k == 50.0) {
            std::vector<int> got;
            GridIndex(points, r).within(c, got);
            EXPECT_EQ(got.size(), points.size()) << "every pair at exactly r is in";
        }
    }
}

TEST(GridIndex, PairsAFewUlpsAcrossACellEdge)
{
    // {radius, box origin, q, p} on one row: q a few ulps off a cell edge,
    // p about r to its right. Found by fuzzing; without the query window's
    // slack, p -/+ r rounds across the edge and the pair is dropped.
    const double cases[][4] = {
        {313.85804637670299, -770.68109292114241, -142.96500016773652, 170.8930462089665},
        {693.72224375068674, -7716.9108696618541, -779.68843215498703, -85.96618840430024},
        {284.15541018512619, -836.69159428633611, -268.38077391608385, 15.774636269042334},
        {636.71171798762919, -1379.1034496903121, -742.39173170268305, -105.68001371505383},
    };
    for (const auto& c : cases)
        expect_matches_oracle({{c[1], 0.0}, {c[2], 0.0}, {c[3], 0.0}}, c[0]);
}

TEST(GridIndex, PointsOnCellEdgesAndLinesSpanningManyCells)
{
    // Spacing exactly r puts every point on a cell edge with each
    // neighbour at exactly r; the other lines cross cells off-edge.
    for (const double spacing : {250.0, 37.3, 0.1}) {
        std::vector<Position> row;
        std::vector<Position> diagonal;
        for (int i = 0; i < 400; ++i) {
            row.push_back({-5000.0 + i * spacing, 12.5});
            diagonal.push_back({-3.0 + i * spacing, 7.0 - i * spacing});
        }
        expect_matches_oracle(row, 250.0, {{-5250.0, 12.5}, {-5000.0 + 400 * spacing, 12.5}});
        expect_matches_oracle(diagonal, spacing * 2.5);
    }
    std::vector<Position> lattice;
    for (int y = -10; y <= 10; ++y)
        for (int x = -10; x <= 10; ++x) lattice.push_back({x * 100.0, y * 100.0});
    expect_matches_oracle(lattice, 200.0);
    expect_matches_oracle(lattice, 300.0);
}

TEST(GridIndex, DegenerateLayouts)
{
    expect_matches_oracle({{3.0, -4.0}}, 1.0, {{3.0, -3.0}, {3.0, -2.9}, {1e9, -1e9}});
    expect_matches_oracle(std::vector<Position>(50, Position{-7.5, 7.5}), 10.0,
                          {{-7.5, 17.5}, {2.5, 7.5}, {2.6, 7.5}});
    // All points in one cell, and a sparse box whose cells get widened.
    util::Rng rng(3);
    std::vector<Position> clump;
    for (int i = 0; i < 100; ++i)
        clump.push_back({rng.uniform_real(-30.0, 30.0), rng.uniform_real(-30.0, 30.0)});
    expect_matches_oracle(clump, 500.0);
    expect_matches_oracle(clump, 20.0);
    clump.push_back({4e6, -3e6});
    expect_matches_oracle(clump, 20.0, {{4e6 - 20.0, -3e6}});

    std::vector<int> got{1, 2, 3};
    GridIndex({}, 5.0).within({0.0, 0.0}, got);
    EXPECT_TRUE(got.empty());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    GridIndex({{0.0, 0.0}}, 5.0).within({nan, 0.0}, got);
    EXPECT_TRUE(got.empty());
}

TEST(GridIndex, RejectsBadRadiiAndNonFinitePositions)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double radius : {0.0, -1.0, nan, inf})
        EXPECT_THROW(GridIndex({{0.0, 0.0}}, radius), std::invalid_argument) << radius;
    for (const Position bad : {Position{nan, 0.0}, Position{0.0, nan}, Position{inf, 0.0},
                               Position{0.0, -inf}})
        EXPECT_THROW(GridIndex({{0.0, 0.0}, bad}, 10.0), std::invalid_argument);
    const double huge = std::numeric_limits<double>::max();
    EXPECT_THROW(GridIndex({{-huge, 0.0}, {huge, 0.0}}, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace ezflow::phy
