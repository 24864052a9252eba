#include "util/table.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace ezflow::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    if (header_.empty()) throw std::invalid_argument("Table: header must have columns");
}

void Table::add_row(std::vector<std::string> cells)
{
    if (cells.size() != header_.size())
        throw std::invalid_argument("Table::add_row: wrong number of cells");
    rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string Table::to_string() const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " ");
            if (c == 0)
                os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
            else
                os << std::right << std::setw(static_cast<int>(width[c])) << row[c];
            os << " |";
        }
        os << '\n';
    };
    emit_row(header_);
    for (std::size_t c = 0; c < header_.size(); ++c) {
        os << (c == 0 ? "|" : "") << std::string(width[c] + 3, '-')
           << (c + 1 == header_.size() ? "|\n" : "");
    }
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

}  // namespace ezflow::util
