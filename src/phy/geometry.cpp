#include "phy/geometry.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace ezflow::phy {
namespace {

/// Cell of coordinate v on an axis of `extent` cells from `origin`,
/// clamped to [-1, extent] so far-off points and NaN never reach the cast.
std::ptrdiff_t cell_of(double v, double origin, double cell_m, std::ptrdiff_t extent)
{
    const double c = std::floor((v - origin) / cell_m);
    if (!(c >= 0.0)) return -1;
    return c >= static_cast<double>(extent) ? extent : static_cast<std::ptrdiff_t>(c);
}

}  // namespace

GridIndex::GridIndex(std::vector<Position> points, double radius)
    : points_(std::move(points)), radius_(radius), cell_m_(radius)
{
    if (!(radius > 0.0) || !std::isfinite(radius))
        throw std::invalid_argument("GridIndex: radius must be finite and > 0");
    Position hi = points_.empty() ? Position{} : points_.front();
    origin_ = hi;
    for (const Position& p : points_) {
        if (!std::isfinite(p.x) || !std::isfinite(p.y))
            throw std::invalid_argument("GridIndex: non-finite position");
        origin_ = Position{std::min(origin_.x, p.x), std::min(origin_.y, p.y)};
        hi = Position{std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    const double width = hi.x - origin_.x;
    const double height = hi.y - origin_.y;
    if (!std::isfinite(width) || !std::isfinite(height))
        throw std::invalid_argument("GridIndex: positions span more than a double holds");
    const double budget = 4.0 * static_cast<double>(points_.size()) + 16.0;
    while ((std::floor(width / cell_m_) + 1.0) * (std::floor(height / cell_m_) + 1.0) > budget)
        cell_m_ *= 2.0;
    cols_ = static_cast<std::ptrdiff_t>(std::floor(width / cell_m_)) + 1;
    rows_ = static_cast<std::ptrdiff_t>(std::floor(height / cell_m_)) + 1;

    // Counting sort by cell; filling in id order keeps each cell ascending.
    const auto cell_index = [this](const Position& p) {
        return static_cast<std::size_t>(cell_of(p.y, origin_.y, cell_m_, rows_) * cols_ +
                                        cell_of(p.x, origin_.x, cell_m_, cols_));
    };
    cell_start_.assign(static_cast<std::size_t>(rows_ * cols_) + 1, 0);
    for (const Position& p : points_) ++cell_start_[cell_index(p) + 1];
    std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
    std::vector<std::size_t> next(cell_start_.begin(), cell_start_.end() - 1);
    ids_.resize(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i)
        ids_[next[cell_index(points_[i])]++] = static_cast<int>(i);
}

void GridIndex::within(const Position& p, std::vector<int>& out) const
{
    out.clear();
    // Cells covering [v - reach, v + reach] on one axis. The 1e-9 relative
    // slack outweighs the rounding of v -/+ radius, so no point whose
    // computed distance is <= radius sits in an unvisited cell.
    const auto window = [this](double v, double origin, std::ptrdiff_t extent) {
        const double reach = radius_ + 1e-9 * (radius_ + std::abs(v));
        return std::pair<std::ptrdiff_t, std::ptrdiff_t>(
            std::max<std::ptrdiff_t>(cell_of(v - reach, origin, cell_m_, extent), 0),
            std::min(cell_of(v + reach, origin, cell_m_, extent), extent - 1));
    };
    const auto [col_lo, col_hi] = window(p.x, origin_.x, cols_);
    const auto [row_lo, row_hi] = window(p.y, origin_.y, rows_);
    if (col_lo > col_hi) return;
    // Row-major cells: a row's part of the window is one run of ids_.
    for (std::ptrdiff_t row = row_lo; row <= row_hi; ++row) {
        const auto first = static_cast<std::size_t>(row * cols_ + col_lo);
        const auto last = static_cast<std::size_t>(row * cols_ + col_hi);
        for (std::size_t k = cell_start_[first]; k < cell_start_[last + 1]; ++k)
            if (distance(p, points_[static_cast<std::size_t>(ids_[k])]) <= radius_)
                out.push_back(ids_[k]);
    }
    std::sort(out.begin(), out.end());
}

}  // namespace ezflow::phy
